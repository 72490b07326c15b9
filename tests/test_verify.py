"""Every check of fanocalc.verify on ten fixed seeds.

The checks are the property suite: `fanocalc verify` runs each on
verify.SEED, and here each runs on nine more seeds as well.
"""

import random

import pytest

from fanocalc import verify

SEEDS = (verify.SEED, 8, 1, 2, 3, 5, 13, 21, 34, 55)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda fn: fn.__name__)
def test_check(check, seed):
    # A CheckFailed fails the item with the check's own detail.
    check(random.Random(seed))

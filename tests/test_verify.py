"""Every check of fanocalc.verify on ten fixed seeds.

The checks are the property suite: `fanocalc verify` runs each on
verify.SEED, and here each runs on nine more seeds as well.
"""

import pathlib
import random

import pytest

from fanocalc import dataset, verify

SEEDS = (verify.SEED, 8, 1, 2, 3, 5, 13, 21, 34, 55)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda fn: fn.__name__)
def test_check(check, seed):
    # A CheckFailed fails the item with the check's own detail.
    check(random.Random(seed))


def test_run_all_parses_the_dataset_once(monkeypatch):
    monkeypatch.delenv(dataset.DATA_ENV_VAR, raising=False)
    monkeypatch.setattr(dataset, "_parsed", {}, raising=False)
    parsed = []
    entry = dataset._entry
    monkeypatch.setattr(dataset, "_entry",
                        lambda row: parsed.append(row) or entry(row))
    assert all(r.ok for r in verify.run_all())
    table = pathlib.Path(dataset.dataset_path()).read_text().splitlines()
    assert len(parsed) == len(table) - 1

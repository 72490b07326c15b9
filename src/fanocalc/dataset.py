"""Curated Fano manifold dataset.

The classification filters consult a small table of Fano manifolds with
cyclic Picard group (dimension, index, degree, name, fourth Betti rank).
These facts are literature input; the tool trusts them and never derives
them.  A second table carries the rational pushforward coefficients of
the second Chern class of the tangent bundle for the degree-matched
five-dimensional targets.
"""

from __future__ import annotations

import csv
import io
import os
from fractions import Fraction

from . import Record, integer

DATA_ENV_VAR = "FANOCALC_DATA"


class FanoEntry(Record):
    __slots__ = ("dim", "index", "degree", "name", "b4_rank", "source_note")

    def __init__(self, dim: int, index: int, degree: int, name: str,
                 b4_rank: int | None, source_note: str):
        dim, index = integer(dim, "dim", 1), integer(index, "index")
        degree = integer(degree, "degree", 1)
        if b4_rank is not None:
            b4_rank = integer(b4_rank, "b4_rank")
        # From dimension 2 on, the square of an ample class is nonzero in H^4.
        least_b4 = 1 if dim >= 2 else 0
        if b4_rank is not None and b4_rank < least_b4:
            raise ValueError(f"b4_rank must be at least {least_b4} "
                             f"in dimension {dim}")
        if not (1 <= index <= dim + 1):
            raise ValueError("index must lie between 1 and dim+1")
        self._fill(dim, index, degree, name, b4_rank, source_note)


def _default_path(filename: str) -> str:
    # The data files are installed as plain files next to this module; a
    # zipped install is not supported.
    return os.path.join(os.path.dirname(__file__), "data", filename)


def dataset_path() -> str:
    """Path of the manifold table, honoring the FANOCALC_DATA override."""
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return override
    return _default_path("fano_manifolds.csv")


DATASET_COLUMNS = ("dim", "index", "degree", "name", "b4_rank", "source_note")


def _entry(row: dict[str, str]) -> FanoEntry:
    # csv.DictReader files the cells past the header under the key None.
    if None in row:
        raise ValueError(f"{len(row[None])} cell(s) more than the header")
    b4_rank = row["b4_rank"]
    return FanoEntry(dim=int(row["dim"]), index=int(row["index"]),
                     degree=int(row["degree"]), name=row["name"],
                     b4_rank=int(b4_rank) if b4_rank else None,
                     source_note=row["source_note"])


# Per data file, the bytes last parsed and what they parsed to.  Keyed on
# content, so any rewrite shows on the next call; a failed parse is not kept.
_parsed: dict[str, tuple[bytes, object]] = {}


def _parse_once(slot: str, path: str, parse):
    """parse(path, text) of the file at `path`, once per content."""
    with open(path, "rb") as fh:
        data = fh.read()
    if _parsed.get(slot, (None,))[0] != data:
        text = io.TextIOWrapper(io.BytesIO(data), "utf-8", newline="")
        _parsed[slot] = (data, parse(path, text))
    return _parsed[slot][1]


def load_dataset() -> list[FanoEntry]:
    """Read the manifold table at dataset_path() into a new list.  A file
    that lacks a column of DATASET_COLUMNS raises ValueError naming the
    file and the columns; a row that does not parse or convert, or has more
    cells than the header, one naming the file and the line; text that is
    not UTF-8, one naming the file."""
    return list(_parse_once("manifolds", dataset_path(), _parse_dataset))


def _parse_dataset(path: str, fh) -> tuple[FanoEntry, ...]:
    # A short row reads "" for its missing cells, which int() rejects
    # with ValueError, not None, which it rejects with TypeError.
    reader = csv.DictReader(fh, restval="")
    try:
        missing = [c for c in DATASET_COLUMNS
                   if c not in (reader.fieldnames or ())]
        entries = () if missing else tuple(_entry(row) for row in reader)
    except UnicodeDecodeError as err:
        # Decoding runs a block ahead of the reader: no line to name.
        raise ValueError(f"{path}: {err}") from None
    except (ValueError, csv.Error) as err:
        # The DictReader updates its own line_num only after a row
        # parses; that of the csv.reader under it counts this one.
        raise ValueError(f"{path}: line {reader.reader.line_num}: "
                         f"{err}") from None
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
    return entries


def load_c2_pushforward() -> dict[int, Fraction]:
    """A new map target degree -> pushforward coefficient of c2 of the
    tangent bundle, used by the degeneracy-divisor formula."""
    return dict(_parse_once("c2", _default_path("c2_pushforward.csv"),
                            lambda path, fh: {
                                int(row["degree"]): Fraction(row["coeff"])
                                for row in csv.DictReader(fh)}))

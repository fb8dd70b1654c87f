"""Bit rows: a relation between two finite index sets held as one int mask
per row, bit j of row i set when i is related to j.

``transpose`` has two paths, picked from its input alone.  Sparse or small
inputs take a loop that pays one interpreter step per set bit.  Dense ones,
with at least ``4 * (len(rows) + width)`` set bits in all, write the rows as
one binary string, last row first, and read each column as a strided slice
of it, so that the work per bit is done by ``format``, slicing and ``int``
in C.  Under CPython 3.11 on one core, a 144 x 144 relation at 75% density
takes about 0.2-0.3 ms that way against about 5 ms in the loop; at 5%
density the two cost about the same, and on a few rows or columns the loop
wins, which the rule keeps.

``read_pairs`` and ``read_names`` read the lists of relation documents and
models, pairs of names or names, into rows.  Each runs a bulk pass first,
with the entry types checked at once, in C, and the name lookups as the
only per-entry checks.  Only a list that pass refuses is read again, by the
validating loop for its shape, which checks the entries in order and raises
the caller's ``error`` as ``where[n]: ...`` at the first malformed one.  The
bulk pass refuses either before it writes a bit or at an entry the loop
refuses too, so the rows need no reset between the two."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=64)
def identity(n: int) -> tuple[int, ...]:
    """The identity relation on ``n`` indices: row i is bit i alone.  Kept
    per ``n``, since every reader of a model of that size asks for it."""
    return tuple(1 << i for i in range(n))


def union(rows: Sequence[int], mask: int) -> int:
    """OR of the rows picked by the set bits of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


_PAIR = {list, tuple}


def read_pairs(entries, ix: dict, iy: dict, rows: list[int], mirror: list[int] | None,
               where: str, error: type[Exception]) -> None:
    """OR each pair (x, y) of ``entries`` into ``rows`` as bit ``iy[y]`` of
    row ``ix[x]``, and into ``mirror`` (unless None) as bit ``ix[x]`` of row
    ``iy[y]``.

    Both dicts must have only ``str`` keys, as a model's index has.  With
    every entry a list or tuple (checked at once), a successful lookup is
    then the type test and the membership test in one: anything else either
    misses the dict or is unhashable.  So the bulk pass raises on any list
    the validating loop would refuse."""
    if set(map(type, entries)) <= _PAIR:
        bit_x, bit_y = identity(len(ix)), identity(len(iy))
        try:
            if mirror is None:
                for x, y in entries:
                    rows[ix[x]] |= bit_y[iy[y]]
            else:
                for x, y in entries:
                    i = ix[x]
                    j = iy[y]
                    rows[i] |= bit_y[j]
                    mirror[j] |= bit_x[i]
            return
        except (ValueError, KeyError, TypeError):
            pass
    _checked_pairs(entries, ix, iy, rows, mirror, where, error)


def _checked_pairs(entries, ix, iy, rows, mirror, where, error) -> None:
    """The validating loop of ``read_pairs``."""
    bit_x, bit_y = identity(len(ix)), identity(len(iy))
    for n, entry in enumerate(entries):
        if isinstance(entry, (list, tuple)) and len(entry) == 2:
            x, y = entry
            if isinstance(x, str) and isinstance(y, str):
                i = ix.get(x)
                if i is None:
                    raise error(f"{where}[{n}]: unknown element {x!r}")
                j = iy.get(y)
                if j is None:
                    raise error(f"{where}[{n}]: unknown element {y!r}")
                rows[i] |= bit_y[j]
                if mirror is not None:
                    mirror[j] |= bit_x[i]
                continue
        raise error(f"{where}[{n}]: expected a pair of element names")


def read_names(names, index: dict, where: str, error: type[Exception]) -> int:
    """The row with bit ``index[name]`` set for each of ``names``, read as
    ``read_pairs`` reads pairs; ``index`` must have only ``str`` keys."""
    try:
        return sum(map(identity(len(index)).__getitem__, set(map(index.__getitem__, names))))
    except (KeyError, TypeError):
        return _checked_names(names, index, where, error)


def _checked_names(names, index, where, error) -> int:
    """The validating loop of ``read_names``."""
    row = 0
    for n, name in enumerate(names):
        if not isinstance(name, str):
            raise error(f"{where}[{n}]: expected an element name")
        if name not in index:
            raise error(f"{where}[{n}]: unknown element {name!r}")
        row |= 1 << index[name]
    return row


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The converse relation: ``width`` rows, one per column of ``rows``.
    Bits of a row at ``width`` or above lie in no column and are dropped."""
    if sum(map(int.bit_count, rows)) >= 4 * (len(rows) + width):
        return _transpose_slices(rows, width)
    return _transpose_bits(rows, width)


def _transpose_bits(rows: Sequence[int], width: int) -> list[int]:
    """``transpose`` by one step per set bit."""
    out = [0] * width
    full = (1 << width) - 1
    for i, row in enumerate(rows):
        bit = 1 << i
        row &= full
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def _transpose_slices(rows: Sequence[int], width: int) -> list[int]:
    """``transpose`` through one binary string: row i is the i-th block of
    ``width`` digits from the end, so the digits of column k, one per row and
    last row first, lie ``width`` apart from offset ``width - 1 - k``."""
    full = (1 << width) - 1
    spec = "0%db" % width
    text = "".join([format(row & full, spec) for row in reversed(rows)])
    return [int(text[offset::width], 2) for offset in range(width - 1, -1, -1)]

"""Bit rows: a relation between two finite index sets held as one int mask
per row, bit j of row i set when i is related to j."""

from __future__ import annotations

from typing import Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def identity(n: int) -> tuple[int, ...]:
    """The identity relation on ``n`` indices: row i is bit i alone."""
    return tuple(1 << i for i in range(n))


def union(rows: Sequence[int], mask: int) -> int:
    """OR of the rows picked by the set bits of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The converse relation: ``width`` rows, one per column of ``rows``."""
    out = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out

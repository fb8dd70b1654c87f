"""Bit rows against set-based definitions: ``bits``, ``identity``, ``union``
and both paths of ``transpose``, with the popcount rule that picks a path
checked just below and at its threshold.  The readers ``read_pairs`` and
``read_names`` raise the caller's error at the first malformed entry, and
read a list their bulk pass refuses but their validating loop accepts as a
plain loop would."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from guardasim import bitrows
from guardasim.bitrows import bits, identity, read_names, read_pairs, transpose, union
from test_readers_differential import bad_names, bad_pairs

PROPS = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def as_set(mask):
    return {j for j in range(mask.bit_length()) if mask >> j & 1}


def converse(rows, width):
    """The set-based transpose: column j holds the rows i with bit j, j < width."""
    sets = [as_set(row) for row in rows]
    return [{i for i, s in enumerate(sets) if j in s} for j in range(width)]


def from_sets(sets):
    return [sum(1 << j for j in s) for s in sets]


@st.composite
def relations(draw, max_rows=24, max_width=24, overhang=6):
    """Rows and a width; rows may set bits up to ``overhang`` past the width."""
    width = draw(st.integers(0, max_width))
    rows = draw(st.lists(st.integers(0, (1 << (width + overhang)) - 1), max_size=max_rows))
    return rows, width


@PROPS
@given(st.integers(0, 1 << 80))
def test_bits_are_the_set_bits_ascending(mask):
    assert list(bits(mask)) == sorted(as_set(mask))


@pytest.mark.parametrize("n", [0, 1, 5, 70])
def test_identity_is_one_bit_per_row(n):
    assert [as_set(row) for row in identity(n)] == [{i} for i in range(n)]


@PROPS
@given(relations(), st.data())
def test_union_is_the_union_of_the_picked_rows(rel, data):
    rows, _ = rel
    mask = data.draw(st.integers(0, (1 << len(rows)) - 1))
    expected = set().union(*(as_set(rows[i]) for i in as_set(mask)))
    assert as_set(union(rows, mask)) == expected


@PROPS
@given(relations())
def test_both_transpose_paths_are_the_converse(rel):
    rows, width = rel
    expected = from_sets(converse(rows, width))
    assert transpose(rows, width) == expected
    assert bitrows._transpose_bits(rows, width) == expected
    if rows or not width:
        # no row, some columns: below the popcount rule, so never sliced
        assert bitrows._transpose_slices(rows, width) == expected


@PROPS
@given(relations(overhang=0))
def test_transpose_twice_is_the_identity(rel):
    rows, width = rel
    assert transpose(transpose(rows, width), len(rows)) == rows


@pytest.mark.parametrize("rows,width", [
    ([], 0), ([], 7), ([0, 0], 0), ([5, 1 << 40], 0), ([0b111, 0b1000], 2),
])
def test_transpose_edge_shapes(rows, width):
    assert transpose(rows, width) == from_sets(converse(rows, width))


def paths_taken(rows, width):
    """The private path functions ``transpose`` called, by name."""
    with mock.patch.object(bitrows, "_transpose_bits", wraps=bitrows._transpose_bits) as loop, \
            mock.patch.object(bitrows, "_transpose_slices", wraps=bitrows._transpose_slices) as slices:
        got = transpose(rows, width)
    assert got == from_sets(converse(rows, width))
    return {name for name, m in (("bits", loop), ("slices", slices)) if m.called}


@PROPS
@given(st.integers(8, 40), st.integers(8, 40), st.integers(0, 1 << 30), st.booleans())
def test_popcount_rule_picks_the_path(n, width, seed, dense):
    # 4 * (n + width) set bits take the slice path, one fewer the loop
    threshold = 4 * (n + width)
    cells = random.Random(seed).sample(range(n * width), threshold if dense else threshold - 1)
    rows = [0] * n
    for c in cells:
        rows[c // width] |= 1 << (c % width)
    assert paths_taken(rows, width) == ({"slices"} if dense else {"bits"})


def test_small_and_thin_inputs_stay_on_the_loop():
    assert paths_taken([0b1111] * 4, 4) == {"bits"}
    assert paths_taken([0b111] * 200, 3) == {"bits"}
    dense = [(1 << 144) - 1 - (1 << (i % 144)) for i in range(144)]
    assert paths_taken(dense, 144) == {"slices"}


class Refused(Exception):
    """A caller's error type, to see that the readers raise it."""


IX, IY = {"a": 0, "c": 1}, {"b": 0, "d": 1}
REFUSALS = r"(expected a pair of element names|expected an element name|unknown element .*)"


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("bad", bad_pairs("a", "b"), ids=repr)
def test_read_pairs_raises_the_callers_error_at_the_entry(bad, at, mirror):
    entries = [["a", "b"], ("c", "d")]
    entries.insert(at, bad)
    with pytest.raises(Refused, match=rf"^fwd\[{at}\]: {REFUSALS}$"):
        read_pairs(entries, IX, IY, [0, 0], [0, 0] if mirror else None, "fwd", Refused)


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("bad", bad_names("a"), ids=repr)
def test_read_names_raises_the_callers_error_at_the_entry(bad, at):
    names = ["a", "c"]
    names.insert(at, bad)
    with pytest.raises(Refused, match=rf"^predicates\.P1\[{at}\]: {REFUSALS}$"):
        read_names(names, IX, "predicates.P1", Refused)


class Pair(list):
    pass


def plain_rows(entries, ix, iy, rows, mirror):
    for x, y in entries:
        rows[ix[x]] |= 1 << iy[y]
        if mirror is not None:
            mirror[iy[y]] |= 1 << ix[x]


# A list the bulk pass refuses and the validating loop accepts: one with an
# entry of a list subclass.
@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("ix,entries", [
    ({"a": 0, "c": 1}, [["a", "b"], Pair(["c", "d"]), ("a", "d")]),
], ids=["list-subclass"])
def test_refused_bulk_lists_read_as_a_plain_loop(ix, entries, mirror):
    rows, want = [0b10, 0], [0b10, 0]
    got_mirror, want_mirror = ([0b1, 0], [0b1, 0]) if mirror else (None, None)
    with mock.patch.object(bitrows, "_checked_pairs", wraps=bitrows._checked_pairs) as loop:
        read_pairs(entries, ix, IY, rows, got_mirror, "fwd", Refused)
    assert loop.called
    plain_rows(entries, ix, IY, want, want_mirror)
    assert (rows, got_mirror) == (want, want_mirror)


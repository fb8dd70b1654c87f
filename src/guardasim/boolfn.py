"""Boolean functions as truth tables: classification and constructive normal forms.

A function of arity n is stored as the 2^n output bits indexed by input
tuples read as binary numbers with p1 in the most significant position.
On top of that sit the order-theoretic classifiers (monotone,
anti-monotone, rest, TFT, FTF and the derived specialness flags) and the
constructive representations: lattice DNF for monotone functions,
witness substitutions reducing TFT functions to p1 -> p2 and FTF
functions to p1 & ~p2, projection substitutions for rest functions, and
the two-sided clause forms for non-FTF / non-TFT functions.

Each de Morgan dual is written once and derived from its counterpart.
Reading a table from the other end (``_flip``: index i becomes
i ^ (2^n - 1)) turns the subset order upside down, so ``TruthTable.dual``
is the flipped complement and the strict-superset closure is the flipped
strict-subset closure.  The CNF reading of a ``MonotoneDnf`` is the
complement of its DNF reading with positive and negative clauses swapped,
and both print through one clause printer given the two joiners.  The TFT
and FTF witnesses come from one chain walk given the middle value, the
fallback slots and the target table; the rest projections are segment
substitutions of the two-point chain x < y = y.

Every construction reads whole-table masks, in O(n * 2^n) word operations:
chains and order violations are found as the lowest bit of a closure mask,
and ``from_expr`` evaluates its parse tree once over the variables' column
masks.  Arity 16 runs in well under a second.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

from . import bitrows
from .syntax import _climb, _parse

MAX_ARITY = 16


class BoolExprError(ValueError):
    """Raised on malformed Boolean expressions; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function of fixed arity.

    ``bits`` packs the outputs: bit i is the output for the input tuple
    whose big-endian reading (p1 most significant) is i.  Equality is
    bitwise at fixed arity.
    """

    arity: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity {self.arity} outside supported range 0..{MAX_ARITY}")
        if not 0 <= self.bits < (1 << self.size):
            raise ValueError("output bits out of range for arity")

    @property
    def size(self) -> int:
        return 1 << self.arity

    @property
    def outputs(self) -> tuple[bool, ...]:
        return tuple(bool((self.bits >> i) & 1) for i in range(self.size))

    def value_at(self, index: int) -> bool:
        return bool((self.bits >> index) & 1)

    def evaluate(self, args: Iterable[bool]) -> bool:
        """Apply the function to a tuple of truth values (p1 first)."""
        index = 0
        count = 0
        for a in args:
            index = (index << 1) | (1 if a else 0)
            count += 1
        if count != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {count}")
        return self.value_at(index)

    def complement(self) -> "TruthTable":
        return TruthTable(self.arity, ~self.bits & ((1 << self.size) - 1))

    def dual(self) -> "TruthTable":
        """The de-Morgan dual: negate the output on the negated input."""
        return TruthTable(self.arity, _flip(self.complement().bits, self.arity))

    def coordinates(self, index: int) -> tuple[int, ...]:
        """Input tuple (p1..pn) encoded by ``index``."""
        n = self.arity
        return tuple((index >> (n - k)) & 1 for k in range(1, n + 1))


# -- canonical tables used as reduction targets ------------------------------

TABLE_TOP = TruthTable(0, 1)
TABLE_BOT = TruthTable(0, 0)
TABLE_P1_1 = TruthTable(1, 0b10)       # p1 as a unary table
TABLE_NOT_P1_1 = TruthTable(1, 0b01)
TABLE_AND = TruthTable(2, 0b1000)      # outputs for 00,01,10,11 are bits 0..3
TABLE_OR = TruthTable(2, 0b1110)
TABLE_IMPLIES = TruthTable(2, 0b1011)  # p1 -> p2
TABLE_AND_NOT = TruthTable(2, 0b0100)  # p1 & ~p2
TABLE_P1_2 = TruthTable(2, 0b1100)     # p1 as a binary table
TABLE_NOT_P1_2 = TruthTable(2, 0b0011)


# -- expression parsing -------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<var>p[0-9]+)|(?P<const>T|F)|(?P<op><->|->|[~&|()]))")

_NODES = {
    "<->": lambda a, b: ("iff", a, b),
    "->": lambda a, b: ("imp", a, b),
    "|": lambda a, b: ("or", a, b),
    "&": lambda a, b: ("and", a, b),
    "~": lambda a: ("not", a),
}


def _eval_node(node, cols: tuple[int, ...], full: int) -> int:
    """The table of ``node`` as a mask over all rows, from the variables'
    column masks ``cols``."""
    tag = node[0]
    if tag == "var":
        return cols[node[1] - 1]
    if tag == "const":
        return full if node[1] else 0
    if tag == "not":
        return full ^ _eval_node(node[1], cols, full)
    a = _eval_node(node[1], cols, full)
    b = _eval_node(node[2], cols, full)
    if tag == "and":
        return a & b
    if tag == "or":
        return a | b
    if tag == "imp":
        return (full ^ a) | b
    return full ^ a ^ b  # iff


def from_expr(text: str) -> TruthTable:
    """Parse an ASCII Boolean expression over p1..pn into its truth table.

    Variables are numbered from p1 and the highest index fixes the arity;
    ``T``/``F`` alone give the arity-0 constants.
    """
    n = 0
    zero = None  # position of the first p0, p00, ...
    over = None  # (index, position) of the first variable above the cap

    def atom(cur):
        nonlocal n, zero, over
        kind, val, pos = cur.next()
        if kind == "var":
            k = int(val[1:])
            n = max(n, k)
            if k == 0 and zero is None:
                zero = pos
            if k > MAX_ARITY and over is None:
                over = k, pos
            return ("var", k)
        if kind == "const":
            return ("const", val == "T")
        if (kind, val) == ("op", "("):
            node = _climb(cur, atom, _NODES)
            cur.expect("op", ")")
            return node
        raise BoolExprError(f"expected an atom, found {val!r}", pos)

    node = _parse(text, _TOKEN_RE, lambda cur: _climb(cur, atom, _NODES), BoolExprError)
    if over is not None:
        raise BoolExprError(f"variable p{over[0]} exceeds the arity cap {MAX_ARITY}", over[1])
    if zero is not None:
        raise BoolExprError("variables are numbered from p1", zero)
    return TruthTable(n, _eval_node(node, _columns(n), (1 << (1 << n)) - 1))


# -- order-theoretic machinery on packed tables -------------------------------

@lru_cache(maxsize=None)
def _low_masks(n: int) -> tuple[int, ...]:
    """For each index-bit b, the mask of indices with bit b clear.  For b < n - 1
    it is the arity n - 1 mask twice over; bit n - 1 is clear in the lower half."""
    if n == 0:
        return ()
    half = 1 << (n - 1)
    return (*(m | m << half for m in _low_masks(n - 1)), (1 << half) - 1)


def _columns(n: int) -> tuple[int, ...]:
    """Entry k - 1 is the column of p_k: the mask of the rows where p_k is true."""
    full = (1 << (1 << n)) - 1
    return tuple(full ^ m for m in reversed(_low_masks(n)))


def _strict_down_or(bits: int, n: int) -> int:
    """Mask where bit i is set iff some strict subset j of i has bit j set."""
    down = bits
    low = _low_masks(n)
    for b in range(n):
        down |= (down & low[b]) << (1 << b)
    out = 0
    for b in range(n):
        out |= (down & low[b]) << (1 << b)
    return out


def _flip(bits: int, n: int) -> int:
    """The packed table read from the other end: bit i moves to the index of
    the complemented input, i ^ (2^n - 1)."""
    size = 1 << n
    return int(format(bits, f"0{size}b")[::-1], 2)


def _strict_up_or(bits: int, n: int) -> int:
    """Mask where bit i is set iff some strict superset j of i has bit j set:
    the subset closure of the flipped table, flipped back."""
    return _flip(_strict_down_or(_flip(bits, n), n), n)


def _chain_middles(mid: int, other: int, n: int) -> int:
    """The points b of ``mid`` in a chain a < b < c with a and c in ``other``."""
    return mid & _strict_down_or(other, n) & _strict_up_or(other, n)


@dataclass(frozen=True)
class BoolClass:
    """Classification flags of one Boolean function."""

    is_constant: bool
    is_monotone: bool
    is_antimonotone: bool
    is_rest: bool
    is_tft: bool
    is_ftf: bool
    forall_special: bool
    exists_special: bool
    weakly_forall_special: bool
    weakly_exists_special: bool


def classify(f: TruthTable) -> BoolClass:
    """Compute all taxonomy flags of ``f`` by exhaustive order checks.

    Monotonicity is checked along single-coordinate raises; the TFT/FTF
    chain searches run over subset-closure masks, so classification costs
    O(n * 2^n) word operations.
    """
    n, bits = f.arity, f.bits
    full = (1 << f.size) - 1
    low = _low_masks(n)
    monotone = True
    antimono = True
    for b in range(n):
        step = 1 << b
        lo = bits & low[b]
        hi = (bits >> step) & low[b]
        if lo & ~hi:
            monotone = False
        if hi & ~lo:
            antimono = False
    constant = bits == 0 or bits == full
    rest = not monotone and not antimono

    ones = bits
    zeros = full & ~bits
    tft = bool(_chain_middles(zeros, ones, n))
    ftf = bool(_chain_middles(ones, zeros, n))

    return BoolClass(
        is_constant=constant,
        is_monotone=monotone,
        is_antimonotone=antimono,
        is_rest=rest,
        is_tft=tft,
        is_ftf=ftf,
        forall_special=rest and not tft,
        exists_special=rest and not ftf,
        weakly_forall_special=not tft,
        weakly_exists_special=not ftf,
    )


# -- substitutions ------------------------------------------------------------

class Slot(Enum):
    """Substitution entries, ordered for lexicographic tie-breaking."""

    P1 = 0
    P2 = 1
    OR = 2    # p1 | p2
    AND = 3   # p1 & p2
    TOP = 4
    BOT = 5

    def apply(self, v1: bool, v2: bool) -> bool:
        if self is Slot.P1:
            return v1
        if self is Slot.P2:
            return v2
        if self is Slot.OR:
            return v1 or v2
        if self is Slot.AND:
            return v1 and v2
        return self is Slot.TOP

    def text(self) -> str:
        return {
            Slot.P1: "p1", Slot.P2: "p2", Slot.OR: "p1 | p2",
            Slot.AND: "p1 & p2", Slot.TOP: "T", Slot.BOT: "F",
        }[self]


@dataclass(frozen=True)
class Substitution:
    """A list of binary-argument slots, one per argument position."""

    entries: tuple[Slot, ...]

    def __len__(self) -> int:
        return len(self.entries)


def apply_substitution(f: TruthTable, s: Substitution) -> TruthTable:
    """Compose ``f`` with the slot expressions, yielding a binary table."""
    if len(s) != f.arity:
        raise ValueError(f"substitution length {len(s)} != arity {f.arity}")
    bits = 0
    for i, (v1, v2) in enumerate(((False, False), (False, True), (True, False), (True, True))):
        if f.evaluate(e.apply(v1, v2) for e in s.entries):
            bits |= 1 << i
    return TruthTable(2, bits)


# -- lattice DNF / two-sided clause forms -------------------------------------

@dataclass(frozen=True)
class MonotoneDnf:
    """Clause sets over variable indices, read either as a DNF or dually as a CNF.

    DNF reading: disjunction of positive conjunctions and of negated
    conjunctions.  CNF reading (used by the non-TFT form): conjunction of
    positive disjunctions and of negated disjunctions.
    """

    positive: frozenset[frozenset[int]]
    negative: frozenset[frozenset[int]]

    def dnf_table(self, arity: int) -> TruthTable:
        full = (1 << (1 << arity)) - 1
        var_mask = dict(enumerate(_columns(arity), 1))
        bits = 0
        for clauses, sign in ((self.positive, 0), (self.negative, full)):
            for clause in clauses:
                m = full
                for k in clause:
                    if k not in var_mask:
                        raise ValueError(f"clause {sorted(clause)}: variable {k} is outside 1..{arity}")
                    m &= sign ^ var_mask[k]
                bits |= m
        return TruthTable(arity, bits)

    def cnf_table(self, arity: int) -> TruthTable:
        """The CNF reading: by de Morgan, the complement of the DNF reading
        with the positive and negative clauses swapped."""
        return MonotoneDnf(self.negative, self.positive).dnf_table(arity).complement()

    def _text(self, inner: str, outer: str, empty: str) -> str:
        parts = []
        for clauses, sign in ((self.positive, ""), (self.negative, "~")):
            for clause in sorted(tuple(sorted(c)) for c in clauses):
                term = inner.join(f"{sign}p{k}" for k in clause)
                parts.append(f"({term})" if len(clause) > 1 else term)
        return outer.join(parts) if parts else empty

    def dnf_text(self) -> str:
        return self._text(" & ", " | ", "F")

    def cnf_text(self) -> str:
        return self._text(" | ", " & ", "T")


def _coords_set(index: int, n: int) -> frozenset[int]:
    return frozenset(k for k in range(1, n + 1) if (index >> (n - k)) & 1)


def monotone_lattice_expr(f: TruthTable) -> MonotoneDnf:
    """Positive-clause DNF of a non-constant monotone function.

    For anti-monotone input the returned clauses describe the complement,
    which the caller re-negates; both directions reduce to the disjunction
    of the minimal true points.
    """
    cls = classify(f)
    if cls.is_constant or cls.is_rest:
        raise ValueError("lattice form needs a non-constant monotone or anti-monotone function")
    g_bits = f.bits if cls.is_monotone else f.complement().bits
    minimal = g_bits & ~_strict_down_or(g_bits, f.arity)
    clauses = frozenset(_coords_set(i, f.arity) for i in bitrows.bits(minimal))
    return MonotoneDnf(positive=clauses, negative=frozenset())


class DiagonalValue(Enum):
    """Result of identifying all arguments: one of T, F, p1, ~p1."""

    TOP = "T"
    BOT = "F"
    P1 = "p1"
    NOT_P1 = "~p1"

    def table(self) -> TruthTable:
        return {
            DiagonalValue.TOP: TABLE_TOP,
            DiagonalValue.BOT: TABLE_BOT,
            DiagonalValue.P1: TABLE_P1_1,
            DiagonalValue.NOT_P1: TABLE_NOT_P1_1,
        }[self]


def diagonal(f: TruthTable) -> DiagonalValue:
    """The unary function f(p1,...,p1), collapsed to its canonical name."""
    at_zero = f.value_at(0)
    at_one = f.value_at(f.size - 1)
    if at_zero and at_one:
        return DiagonalValue.TOP
    if not at_zero and not at_one:
        return DiagonalValue.BOT
    if not at_zero and at_one:
        return DiagonalValue.P1
    return DiagonalValue.NOT_P1


def _first_chain(f: TruthTable, middle_value: bool) -> tuple[int, int, int]:
    """First (a, b, c) with a < b < c whose values are v,~v,v for v = not middle_value:
    b is the lowest chain middle, a and c its lowest strict subset and superset of value v."""
    full = (1 << f.size) - 1
    mid = f.bits if middle_value else full ^ f.bits
    other = full ^ mid
    b = next(bitrows.bits(_chain_middles(mid, other, f.arity)))
    a = next(x for x in range(b) if x & b == x and other >> x & 1)
    c = next(y for y in range(b + 1, f.size) if y & b == b and other >> y & 1)
    return a, b, c


def _segment_substitution(
    f: TruthTable, a: int, b: int, c: int, mid_slot: Slot, top_slot: Slot
) -> Substitution:
    n = f.arity
    entries = []
    for k in range(1, n + 1):
        bit = 1 << (n - k)
        if a & bit:
            entries.append(Slot.TOP)
        elif b & bit:
            entries.append(mid_slot)
        elif c & bit:
            entries.append(top_slot)
        else:
            entries.append(Slot.BOT)
    return Substitution(tuple(entries))


def _chain_substitution(
    f: TruthTable, middle_value: bool, fallback: tuple[Slot, Slot], target: TruthTable
) -> Substitution:
    """Walk the first chain a < b < c whose middle value is ``middle_value``.

    With d the join of a and the top segment, the slots (p1, p2) on the
    b\\a and top segments reach ``target`` exactly when f(d) differs from
    the middle value, and ``fallback`` reaches it otherwise.  (p1, p2) is
    lexicographically smaller than either fallback, so the case split on
    f(d) realizes the tie-break.
    """
    a, b, c = _first_chain(f, middle_value)
    d = a | (c & ~b)
    slots = (Slot.P1, Slot.P2) if f.value_at(d) != middle_value else fallback
    sub = _segment_substitution(f, a, b, c, *slots)
    if apply_substitution(f, sub) != target:
        raise AssertionError("internal error: chain construction missed the target")
    return sub


def tft_substitution(f: TruthTable) -> Substitution:
    """Witness substitution composing ``f`` down to p1 -> p2, from the first
    true-false-true chain; the fallback puts p1 | p2 on the b\\a segment."""
    if not classify(f).is_tft:
        raise ValueError("substitution to p1 -> p2 needs a TFT function")
    return _chain_substitution(f, False, (Slot.OR, Slot.P2), TABLE_IMPLIES)


def ftf_substitution(f: TruthTable) -> Substitution:
    """Witness substitution composing ``f`` down to p1 & ~p2 (dual of the TFT
    case); the fallback puts p1 & p2 on the top segment."""
    if not classify(f).is_ftf:
        raise ValueError("substitution to p1 & ~p2 needs an FTF function")
    return _chain_substitution(f, True, (Slot.P1, Slot.AND), TABLE_AND_NOT)


def _interval_projection(f: TruthTable, lo_value: bool) -> Substitution:
    """Substitution over {p1, T, F} from the first x < y with f(x)=lo_value,
    f(y)=~lo_value, y the lowest such upper point: the segment substitution
    of the chain x < y = y."""
    lo = (f if lo_value else f.complement()).bits
    y = next(bitrows.bits(~lo & _strict_down_or(lo, f.arity)))
    x = next(x for x in range(y) if x & y == x and lo >> x & 1)
    return _segment_substitution(f, x, y, y, Slot.P1, Slot.P1)


def rest_projections(f: TruthTable) -> tuple[Substitution, Substitution]:
    """Substitutions over {p1, T, F} whose composites are p1 and ~p1 respectively.

    The first comes from a failure of anti-monotonicity (value rising along
    the order), the second from a failure of monotonicity.
    """
    if not classify(f).is_rest:
        raise ValueError("projection pair needs a rest function")
    to_p1 = _interval_projection(f, lo_value=False)
    to_not_p1 = _interval_projection(f, lo_value=True)
    if apply_substitution(f, to_p1) != TABLE_P1_2:
        raise AssertionError("internal error: rising-pair construction missed p1")
    if apply_substitution(f, to_not_p1) != TABLE_NOT_P1_2:
        raise AssertionError("internal error: falling-pair construction missed ~p1")
    return to_p1, to_not_p1


def non_ftf_dnf(f: TruthTable) -> MonotoneDnf:
    """Two-sided DNF of a non-constant non-FTF function.

    Positive clauses come from the minimal true points that have no false
    point strictly above them; negated clauses from the maximal true
    points with no false point strictly below.  A true point incomparable
    to every false point is covered from both sides.
    """
    cls = classify(f)
    if cls.is_constant or cls.is_ftf:
        raise ValueError("two-sided DNF needs a non-constant non-FTF function")
    n, size = f.arity, f.size
    full = (1 << size) - 1
    ones = f.bits
    zeros = full & ~ones
    upper = ones & ~_strict_up_or(zeros, n)
    lower = ones & ~_strict_down_or(zeros, n)
    minimal_upper = upper & ~_strict_down_or(upper, n)
    maximal_lower = lower & ~_strict_up_or(lower, n)
    positive = frozenset(_coords_set(i, n) for i in bitrows.bits(minimal_upper))
    negative = frozenset(_coords_set(i ^ (size - 1), n) for i in bitrows.bits(maximal_lower))
    result = MonotoneDnf(positive=positive, negative=negative)
    if result.dnf_table(n) != f:
        raise AssertionError("internal error: two-sided DNF does not reproduce the function")
    return result


def non_tft_cnf(f: TruthTable) -> MonotoneDnf:
    """Two-sided CNF of a non-constant non-TFT function, via the dual DNF."""
    cls = classify(f)
    if cls.is_constant or cls.is_tft:
        raise ValueError("two-sided CNF needs a non-constant non-TFT function")
    dual_form = non_ftf_dnf(f.dual())
    if dual_form.cnf_table(f.arity) != f:
        raise AssertionError("internal error: two-sided CNF does not reproduce the function")
    return dual_form

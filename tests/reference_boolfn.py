"""The Boolean-core constructions as they were written before each de Morgan
dual was derived from its counterpart, kept as the reference the library's
folded versions are compared against.

Every dual pair is written out twice here, as it used to be: the strict
superset closure beside the subset closure, the dual table bit by bit, the
CNF reading and the CNF printer beside their DNF twins, one chain walk per
TFT and FTF witness, the unset coordinates beside the set ones, and one
clause-form branch per reading in ``core_expr``.  The classifier and the
substitution check these call are copied too.  Only the plain data types
are shared with the code under test.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from guardasim.boolfn import BoolClass, MonotoneDnf, Slot, Substitution, TruthTable
from guardasim.syntax import And, Bot, FoFormula, Not, Or, Top

TABLE_IMPLIES = TruthTable(2, 0b1011)
TABLE_AND_NOT = TruthTable(2, 0b0100)
TABLE_P1_2 = TruthTable(2, 0b1100)
TABLE_NOT_P1_2 = TruthTable(2, 0b0011)


# -- order machinery and classification ---------------------------------------------

def _low_masks(n: int) -> tuple[int, ...]:
    masks = []
    for b in range(n):
        m = 0
        for i in range(1 << n):
            if not (i >> b) & 1:
                m |= 1 << i
        masks.append(m)
    return tuple(masks)


def strict_down_or(bits: int, n: int) -> int:
    down = bits
    low = _low_masks(n)
    for b in range(n):
        down |= (down & low[b]) << (1 << b)
    out = 0
    for b in range(n):
        out |= (down & low[b]) << (1 << b)
    return out


def strict_up_or(bits: int, n: int) -> int:
    up = bits
    low = _low_masks(n)
    full = (1 << (1 << n)) - 1
    for b in range(n):
        high = full & ~low[b]
        up |= (up & high) >> (1 << b)
    out = 0
    for b in range(n):
        high = full & ~low[b]
        out |= (up & high) >> (1 << b)
    return out


def classify(f: TruthTable) -> BoolClass:
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
    tft = bool(zeros & strict_down_or(ones, n) & strict_up_or(ones, n))
    ftf = bool(ones & strict_down_or(zeros, n) & strict_up_or(zeros, n))
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


def dual(f: TruthTable) -> TruthTable:
    full = f.size - 1
    bits = 0
    for i in range(f.size):
        if not f.value_at(full ^ i):
            bits |= 1 << i
    return TruthTable(f.arity, bits)


def apply_substitution(f: TruthTable, s: Substitution) -> TruthTable:
    if len(s) != f.arity:
        raise ValueError(f"substitution length {len(s)} != arity {f.arity}")
    bits = 0
    for i, (v1, v2) in enumerate(((False, False), (False, True), (True, False), (True, True))):
        if f.evaluate(e.apply(v1, v2) for e in s.entries):
            bits |= 1 << i
    return TruthTable(2, bits)


# -- the two readings of a clause set ------------------------------------------------

def _var_masks(arity: int) -> tuple[dict[int, int], int]:
    size = 1 << arity
    full = (1 << size) - 1
    var_mask = {}
    for k in range(1, arity + 1):
        m = 0
        for i in range(size):
            if (i >> (arity - k)) & 1:
                m |= 1 << i
        var_mask[k] = m
    return var_mask, full


def dnf_table(form: MonotoneDnf, arity: int) -> TruthTable:
    var_mask, full = _var_masks(arity)
    bits = 0
    for clause in form.positive:
        m = full
        for k in clause:
            m &= var_mask[k]
        bits |= m
    for clause in form.negative:
        m = full
        for k in clause:
            m &= full & ~var_mask[k]
        bits |= m
    return TruthTable(arity, bits)


def cnf_table(form: MonotoneDnf, arity: int) -> TruthTable:
    var_mask, full = _var_masks(arity)
    bits = full
    for clause in form.positive:
        m = 0
        for k in clause:
            m |= var_mask[k]
        bits &= m
    for clause in form.negative:
        m = 0
        for k in clause:
            m |= full & ~var_mask[k]
        bits &= m
    return TruthTable(arity, bits)


def _sorted_clauses(clauses: frozenset[frozenset[int]]) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(c)) for c in clauses)


def dnf_text(form: MonotoneDnf) -> str:
    parts = []
    for clause in _sorted_clauses(form.positive):
        term = " & ".join(f"p{k}" for k in clause)
        parts.append(f"({term})" if len(clause) > 1 else term)
    for clause in _sorted_clauses(form.negative):
        term = " & ".join(f"~p{k}" for k in clause)
        parts.append(f"({term})" if len(clause) > 1 else term)
    return " | ".join(parts) if parts else "F"


def cnf_text(form: MonotoneDnf) -> str:
    parts = []
    for clause in _sorted_clauses(form.positive):
        term = " | ".join(f"p{k}" for k in clause)
        parts.append(f"({term})" if len(clause) > 1 else term)
    for clause in _sorted_clauses(form.negative):
        term = " | ".join(f"~p{k}" for k in clause)
        parts.append(f"({term})" if len(clause) > 1 else term)
    return " & ".join(parts) if parts else "T"


# -- witness substitutions -----------------------------------------------------------

def _indices(bits: int, size: int) -> Iterator[int]:
    for i in range(size):
        if (bits >> i) & 1:
            yield i


def _coords_set(index: int, n: int) -> frozenset[int]:
    return frozenset(k for k in range(1, n + 1) if (index >> (n - k)) & 1)


def _coords_unset(index: int, n: int) -> frozenset[int]:
    return frozenset(k for k in range(1, n + 1) if not (index >> (n - k)) & 1)


def _first_chain(f: TruthTable, middle_value: bool) -> tuple[int, int, int]:
    size = f.size
    for b in range(size):
        if f.value_at(b) != middle_value:
            continue
        a = next((x for x in range(b) if x & b == x and f.value_at(x) != middle_value), None)
        if a is None:
            continue
        c = next(
            (y for y in range(b + 1, size) if y & b == b and f.value_at(y) != middle_value),
            None,
        )
        if c is not None:
            return a, b, c
    raise ValueError("no witnessing chain exists")


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


def tft_substitution(f: TruthTable) -> Substitution:
    if not classify(f).is_tft:
        raise ValueError("substitution to p1 -> p2 needs a TFT function")
    a, b, c = _first_chain(f, middle_value=False)
    d = a | (c & ~b)
    if f.value_at(d):
        sub = _segment_substitution(f, a, b, c, Slot.P1, Slot.P2)
    else:
        sub = _segment_substitution(f, a, b, c, Slot.OR, Slot.P2)
    if apply_substitution(f, sub) != TABLE_IMPLIES:
        raise AssertionError("internal error: chain construction missed the target")
    return sub


def ftf_substitution(f: TruthTable) -> Substitution:
    if not classify(f).is_ftf:
        raise ValueError("substitution to p1 & ~p2 needs an FTF function")
    a, b, c = _first_chain(f, middle_value=True)
    d = a | (c & ~b)
    if not f.value_at(d):
        sub = _segment_substitution(f, a, b, c, Slot.P1, Slot.P2)
    else:
        sub = _segment_substitution(f, a, b, c, Slot.P1, Slot.AND)
    if apply_substitution(f, sub) != TABLE_AND_NOT:
        raise AssertionError("internal error: chain construction missed the target")
    return sub


def _interval_projection(f: TruthTable, lo_value: bool) -> Substitution:
    n, size = f.arity, f.size
    for y in range(size):
        if f.value_at(y) == lo_value:
            continue
        for x in range(y):
            if x & y == x and f.value_at(x) == lo_value:
                entries = []
                for k in range(1, n + 1):
                    bit = 1 << (n - k)
                    if x & bit:
                        entries.append(Slot.TOP)
                    elif y & bit:
                        entries.append(Slot.P1)
                    else:
                        entries.append(Slot.BOT)
                return Substitution(tuple(entries))
    raise ValueError("no order violation found")


def rest_projections(f: TruthTable) -> tuple[Substitution, Substitution]:
    if not classify(f).is_rest:
        raise ValueError("projection pair needs a rest function")
    to_p1 = _interval_projection(f, lo_value=False)
    to_not_p1 = _interval_projection(f, lo_value=True)
    if apply_substitution(f, to_p1) != TABLE_P1_2:
        raise AssertionError("internal error: rising-pair construction missed p1")
    if apply_substitution(f, to_not_p1) != TABLE_NOT_P1_2:
        raise AssertionError("internal error: falling-pair construction missed ~p1")
    return to_p1, to_not_p1


# -- two-sided clause forms ----------------------------------------------------------

def non_ftf_dnf(f: TruthTable) -> MonotoneDnf:
    cls = classify(f)
    if cls.is_constant or cls.is_ftf:
        raise ValueError("two-sided DNF needs a non-constant non-FTF function")
    n, size = f.arity, f.size
    full = (1 << size) - 1
    ones = f.bits
    zeros = full & ~ones
    upper = ones & ~strict_up_or(zeros, n)
    lower = ones & ~strict_down_or(zeros, n)
    minimal_upper = upper & ~strict_down_or(upper, n)
    maximal_lower = lower & ~strict_up_or(lower, n)
    positive = frozenset(_coords_set(i, n) for i in _indices(minimal_upper, size))
    negative = frozenset(_coords_unset(i, n) for i in _indices(maximal_lower, size))
    result = MonotoneDnf(positive=positive, negative=negative)
    if dnf_table(result, n) != f:
        raise AssertionError("internal error: two-sided DNF does not reproduce the function")
    return result


def non_tft_cnf(f: TruthTable) -> MonotoneDnf:
    cls = classify(f)
    if cls.is_constant or cls.is_tft:
        raise ValueError("two-sided CNF needs a non-constant non-TFT function")
    dual_form = non_ftf_dnf(dual(f))
    if cnf_table(dual_form, f.arity) != f:
        raise AssertionError("internal error: two-sided CNF does not reproduce the function")
    return dual_form


# -- the first-order combination of a core -----------------------------------------

def _conjoin(parts: list[FoFormula]) -> FoFormula:
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def _disjoin(parts: list[FoFormula]) -> FoFormula:
    if not parts:
        return Bot()
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def core_expr(core: TruthTable, args: Sequence[FoFormula]) -> FoFormula:
    """``connective.core_expr`` for ``args`` of the core's arity."""
    cc = classify(core)
    if cc.is_constant:
        return Top() if core.bits else Bot()

    def pos_clause(clause, combine):
        return combine([args[k - 1] for k in sorted(clause)])

    def neg_clause(clause, combine):
        return combine([Not(args[k - 1]) for k in sorted(clause)])

    if not cc.is_ftf:
        form = non_ftf_dnf(core)
        parts = [pos_clause(c, _conjoin) for c in sorted(form.positive, key=sorted)]
        parts += [neg_clause(c, _conjoin) for c in sorted(form.negative, key=sorted)]
        return _disjoin(parts)
    if not cc.is_tft:
        form = non_tft_cnf(core)
        parts = [pos_clause(c, _disjoin) for c in sorted(form.positive, key=sorted)]
        parts += [neg_clause(c, _disjoin) for c in sorted(form.negative, key=sorted)]
        return _conjoin(parts)
    rows = []
    for i in range(core.size):
        if core.value_at(i):
            coords = core.coordinates(i)
            rows.append(
                _conjoin([args[k] if v else Not(args[k]) for k, v in enumerate(coords)])
            )
    return _disjoin(rows)

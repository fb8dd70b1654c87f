"""Cross-model relations and the asimulation machinery.

A cross relation holds directed pairs in both orientations between two
models; a pair (x, y) promises that truth transfers from x to y.  Each
connective of a fragment imposes one condition on such a relation: back or
forth matching of guard paths, with two witnesses for the special (rest-core)
flat connectives.  Degree 0 is matching along the empty guard chain: each
pair must lie in the relation its core admits, so the condition is one meet,
the candidate rows and each witness's rows.  On top of the checks sit the
asimulation verifier, the greatest-fixpoint solver for the largest
asimulation, the invariance checker, and the formula-preservation preorder
computed by enumeration.

A relation is one bit row per carrier element; the ``CrossRelation``s this
module returns carry their rows and build their frozensets only when read.
Each back/forth check is compiled once per connective into row algebra
serving the solver and the verifier, and kept per signature object; witness
paths are built only for violation reports.  A check is one row loop per
direction: ``passing`` computes every row, while the verifier stops at the
first row that loses a pair, so a failing ``fwd`` costs no ``bwd`` row and a
passing condition every row.  The verifier turns its relation into rows and
inverse rows once per call and every connective's check reads those; atom
transfer is row algebra too, read off each predicate's holder rows.  A
relation document is read straight into rows and inverse rows, by
``bitrows.read_pairs``; with one model object on both sides and equal lists,
once, into mirrored rows.  A relation that carries no rows over the two
model objects checked is read as its document.

Within one check, each distinct set is worked out once per partner model.
The rows of a relation repeat (at the solver's first condition the
atom-preserving rows take at most 2^|theta| values), so forth matching
keeps the partner elements with an endpoint in a witness row by the row's
value, and back matching keeps, per cover, the candidates already tested
against it and those that passed, and tests a later row's candidates only
where they are new.  The solver keeps these memos for its whole solve, since
they depend on no relation.

The solver bounds, then sweeps.  An asimulation for a fragment is one for
each of its sub-fragments, so the largest asimulation lies inside that of
any sub-fragment.  The bound is the exact answer of the largest
sub-fragment partition refinement solves: with a degree-0 negation, the
largest bisimulation along the chains of the degree-1 non-constant
conditions; otherwise the atom rows narrowed once by the non-special rest
cores, with their bisimulation as the witness.  When that sub-fragment is
the whole fragment the bound is the answer; otherwise the sweeps start from
it, taking the conditions in turn, each reading the relation the previous
one left.  With one model object on both sides, one row list serves both
directions and each step computes one.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, compress, cycle
from json.encoder import encode_basestring_ascii
from operator import and_, is_, or_
from typing import Sequence

from .bitrows import bits, read_pairs, transpose, union
from .boolfn import BoolClass
from .connective import (
    ConnectiveClass,
    ConnectiveError,
    FragmentSignature,
    GuardedConnective,
    ancestor,
    classify_connective,
    validate_standard_fragment,
)
from .formula import class_vectors, eval_fo
from .model import Model, pair_set, sorted_pairs
from .syntax import FoFormula, free_vars

FWD = "fwd"
BWD = "bwd"
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits as selectors for compress


class NonStandardFragmentError(ConnectiveError):
    """The requested operation only covers standard fragments."""


def _require_standard(sig: FragmentSignature) -> None:
    """Raise ``NonStandardFragmentError`` listing every problem that keeps
    ``sig`` from being a standard fragment."""
    problems = validate_standard_fragment(sig)
    if problems:
        raise NonStandardFragmentError("; ".join(problems))


class RelationError(ValueError):
    """Malformed relation document; the message names the offending entry."""


class CrossRelation:
    """Directed pairs: fwd from the first model into the second, bwd back.

    One this module returns carries its rows and models, builds ``fwd`` and
    ``bwd`` from them on first read, and reads them for the other members."""

    __slots__ = ("_pairs", "_rows", "_models")

    def __init__(self, fwd: frozenset[tuple[str, str]], bwd: frozenset[tuple[str, str]]):
        self._pairs, self._rows, self._models = {FWD: fwd, BWD: bwd}, None, None

    fwd = property(lambda self: self.pairs(FWD))
    bwd = property(lambda self: self.pairs(BWD))

    def _sides(self, direction: str) -> tuple[Model, Model]:
        m1, m2 = self._models
        return (m1, m2) if direction == FWD else (m2, m1)

    def pairs(self, direction: str) -> frozenset[tuple[str, str]]:
        got = self._pairs.get(direction)
        if got is None:
            got = self._pairs[direction] = pair_set(self._rows[direction], *self._sides(direction))
        return got

    @property
    def is_empty(self) -> bool:
        return not (self.count(FWD) or self.count(BWD))

    def count(self, direction: str) -> int:
        """The number of pairs in the direction."""
        if self._rows is None:
            return len(self.pairs(direction))
        return sum(map(int.bit_count, self._rows[direction]))

    def relates(self, x: str, y: str) -> bool:
        """Whether (x, y) is a fwd pair."""
        if self._rows is None:
            return (x, y) in self.fwd
        m1, m2 = self._models
        i, j = m1.index.get(x), m2.index.get(y)
        return i is not None and j is not None and self._rows[FWD][i] >> j & 1 == 1

    def _both_rows(self, other: "CrossRelation"):
        """Both relations' rows if both carry rows over the same model objects."""
        if self._rows is not None and other._rows is not None and all(map(is_, self._models, other._models)):
            return self._rows, other._rows
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossRelation):
            return NotImplemented
        both = self._both_rows(other)
        if both:
            return both[0] == both[1]
        return self.fwd == other.fwd and self.bwd == other.bwd

    def __hash__(self) -> int:
        # both forms count their pairs without building pair sets
        return hash((self.count(FWD), self.count(BWD)))

    def __repr__(self) -> str:
        return f"CrossRelation(fwd={self.fwd!r}, bwd={self.bwd!r})"

    def inverse(self) -> "CrossRelation":
        if self._rows is not None:
            return _relation(_inverse(self._rows, *self._models), *self._models)
        return CrossRelation(
            fwd=frozenset((a, b) for (b, a) in self.bwd),
            bwd=frozenset((b, a) for (a, b) in self.fwd),
        )

    def _combine(self, other: "CrossRelation", op) -> "CrossRelation":
        both = self._both_rows(other)
        if both:
            return _relation(_meet(*both, op), *self._models)
        return CrossRelation(op(self.fwd, other.fwd), op(self.bwd, other.bwd))

    __and__ = lambda self, other: self._combine(other, and_)
    __or__ = lambda self, other: self._combine(other, or_)

    def subset_of(self, other: "CrossRelation") -> bool:
        both = self._both_rows(other)
        if both:
            return not any(r & ~s for d in (FWD, BWD) for r, s in zip(both[0][d], both[1][d]))
        return self.fwd <= other.fwd and self.bwd <= other.bwd

    def to_doc(self) -> dict:
        """Each direction's pairs as name lists, sorted; a mirrored relation's
        two lists share their pair lists."""
        if self._rows is None:
            return {d: [list(p) for p in sorted(self.pairs(d))] for d in (FWD, BWD)}
        fwd = sorted_pairs(self._rows[FWD], *self._models)
        bwd = list(fwd) if _mirrored(self._rows) else sorted_pairs(self._rows[BWD], *self._sides(BWD))
        return {FWD: fwd, BWD: bwd}

    def to_json(self, extra: dict) -> str:
        """``json.dumps({**self.to_doc(), **extra}, sort_keys=True)``, written
        row by row: each model's names quoted once, each row one join of its
        pairs, picked in name order by its binary digits, and a mirrored
        relation's one text serving both directions."""
        if self._rows is None:
            return json.dumps({**self.to_doc(), **extra}, sort_keys=True)
        m1, m2 = self._models
        q1 = list(map(encode_basestring_ascii, m1.domain))
        q2 = q1 if m2 is m1 else list(map(encode_basestring_ascii, m2.domain))

        def text(rows: list[int], xs: list[str], ys: list[str]) -> str:
            out = []
            for x, row in zip(xs, rows):
                if row:
                    head = "[" + x + ", "
                    digits = bin(row)[:1:-1].encode().translate(_DIGIT_BYTES)
                    out.append(head + ("], " + head).join(compress(ys, digits)) + "]")
            return "[" + ", ".join(out) + "]"

        fwd = text(self._rows[FWD], q1, q2)
        parts = {FWD: fwd, BWD: fwd if _mirrored(self._rows) else text(self._rows[BWD], q2, q1)}
        parts.update((key, json.dumps(value, sort_keys=True)) for key, value in extra.items())
        return "{" + ", ".join(json.dumps(key) + ": " + parts[key] for key in sorted(parts)) + "}"


def relation_from_doc(doc: object, m1: Model, m2: Model) -> CrossRelation:
    """The relation a document ``{"fwd": [[x, y], ...], "bwd": [[y, x], ...]}``
    lists; a missing direction is empty, and keys besides ``verdict`` and
    ``status`` (which ``largest`` adds) are refused."""
    return _relation(_doc_rows(doc, m1, m2)[0], m1, m2)


def full_relation(m1: Model, m2: Model) -> CrossRelation:
    return _relation(_full(m1, m2), m1, m2)


@dataclass(frozen=True)
class ViolationReport:
    """A replayable witness of one failed condition."""

    connective: str
    condition: str  # back | forth | s-back | s-forth | atom | degree0 | empty
    pair: tuple[str, str] | None
    direction: str
    path: tuple[str, ...]
    detail: str = ""

    def to_doc(self) -> dict:
        return {
            "connective": self.connective,
            "condition": self.condition,
            "pair": list(self.pair) if self.pair else None,
            "direction": self.direction,
            "path": list(self.path),
            "detail": self.detail,
        }


def _directions(m1: Model, m2: Model):
    return ((FWD, m1, m2), (BWD, m2, m1))


# -- bit rows: per direction, one mask over the partner model per carrier element

def _read(a: object, m1: Model, m2: Model) -> tuple[dict[str, list[int]], dict[str, list[int]] | None]:
    """The rows of ``a``, a relation or a relation document, and its inverse
    rows.  A relation carrying rows over these two model objects gives its
    own rows and None for the inverse rows; any other is read as its
    document, pairs sorted, by ``_doc_rows``."""
    if isinstance(a, CrossRelation):
        if a._rows is not None and a._models[0] is m1 and a._models[1] is m2:
            return a._rows, None
        try:
            a = a.to_doc()
        except TypeError:  # pairs whose names are of mixed types do not sort
            raise RelationError("relation: expected a pair of element names") from None
    return _doc_rows(a, m1, m2)


def _doc_rows(doc: object, m1: Model, m2: Model) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """The rows and inverse rows of a relation document, fwd before bwd;
    the first malformed entry raises ``RelationError`` naming it.  Equal
    lists on one model object are read once, mirrored."""
    if not isinstance(doc, dict):
        raise RelationError("document: expected an object")
    unknown = set(doc) - {FWD, BWD, "verdict", "status"}
    if unknown:
        raise RelationError(f"document: unknown keys {sorted(unknown)}")
    entries = doc.get(FWD, [])
    if m1 is m2 and isinstance(entries, list) and entries == doc.get(BWD, []):
        rows, inv = [0] * len(m1), [0] * len(m1)
        read_pairs(entries, m1.index, m1.index, rows, inv, FWD, RelationError)
        return _both(rows), _both(inv)
    rows = {FWD: [0] * len(m1), BWD: [0] * len(m2)}
    inv = {FWD: [0] * len(m1), BWD: [0] * len(m2)}
    for key, first, second in _directions(m1, m2):
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            raise RelationError(f"{key}: expected a list of pairs")
        # a pair (x, y) of one direction is the pair (y, x) of the other's inverse
        read_pairs(entries, first.index, second.index, rows[key], inv[BWD if key == FWD else FWD],
                   key, RelationError)
    return rows, inv


def _relation(rows: dict[str, list[int]], m1: Model, m2: Model) -> CrossRelation:
    """The relation carrying ``rows``, which must not change afterwards."""
    rel = CrossRelation.__new__(CrossRelation)
    rel._pairs, rel._rows, rel._models = {}, rows, (m1, m2)
    return rel


def _mirrored(*relations: dict[str, list[int]]) -> bool:
    """Whether each relation holds one row list for both directions.  Only
    a self-pair's relations do (``m1 is m2``): ``_full`` and ``_atom_rows``
    build them so for one model, and ``_inverse``, ``_meet`` and
    ``_Condition.passing`` keep them so, computing one direction for both."""
    return all(r[FWD] is r[BWD] for r in relations)


def _both(rows: list[int]) -> dict[str, list[int]]:
    """A mirrored relation: ``rows`` for both directions."""
    return {FWD: rows, BWD: rows}


def _inverse(rows: dict[str, list[int]], m1: Model, m2: Model) -> dict[str, list[int]]:
    if _mirrored(rows):
        return _both(transpose(rows[FWD], len(m1)))
    return {FWD: transpose(rows[BWD], len(m1)), BWD: transpose(rows[FWD], len(m2))}


def _meet(a: dict[str, list[int]], b: dict[str, list[int]], op=and_) -> dict[str, list[int]]:
    """The rows of ``a`` and ``b`` met pairwise, or joined with ``op=or_``."""
    if _mirrored(a, b):
        return _both(list(map(op, a[FWD], b[FWD])))
    return {d: list(map(op, a[d], b[d])) for d in (FWD, BWD)}


def _full(m1: Model, m2: Model) -> dict[str, list[int]]:
    if m1 is m2:
        return _both([(1 << len(m1)) - 1] * len(m1))
    return {d: [(1 << len(my)) - 1] * len(mx) for d, mx, my in _directions(m1, m2)}


def _atom_rows(m1: Model, m2: Model, theta_preds: Sequence[str]) -> dict[str, list[int]]:
    """The atom-preserving relation as rows, mirrored when ``m1 is m2``."""
    out = {}
    for d, mx, my in _directions(m1, m2):
        rows = out[d] = [(1 << len(my)) - 1] * len(mx)
        for p in theta_preds:
            holders = my.pred_row(p)
            for i in bits(mx.pred_row(p)):
                rows[i] &= holders
        if m1 is m2:
            return _both(rows)
    return out


def _atom_violations(theta_preds: Sequence[str], rows, m1: Model, m2: Model) -> list[ViolationReport]:
    """The pairs of ``rows`` outside the atom-preserving rows, sorted by pair
    within each direction, each with its first untransferred predicate,
    read off each predicate's holder rows; only failing rows are reported."""
    reports = []
    preds = sorted(theta_preds)
    for d, mx, my in _directions(m1, m2):
        bad, given = [0] * len(mx), rows[d]
        for p in preds:
            holders = my.pred_row(p)
            for i in bits(mx.pred_row(p)):
                bad[i] |= given[i] & ~holders
        for x, row in compress(zip(mx.domain, bad), bad):
            for y in map(my.domain.__getitem__, bits(row)):
                p = next(p for p in preds if mx.has_pred(p, x) and not my.has_pred(p, y))
                reports.append(ViolationReport("", "atom", (x, y), d, (), f"{p} not transferred"))
    return reports


def atom_preserving(m1: Model, m2: Model, theta_preds: Sequence[str]) -> CrossRelation:
    """The largest relation transferring every listed atom along the pair."""
    return _relation(_atom_rows(m1, m2, theta_preds), m1, m2)


class CoreCandidateKind(Enum):
    """How a Boolean core acts on candidate relations: constant cores accept
    anything, monotone ones pass the relation through, anti-monotone ones
    flip it, rest cores keep only the symmetric part."""

    FULL = "full"
    SAME = "same"
    INVERSE = "inverse"
    SYMMETRIC_PART = "symmetric-part"


def core_candidate_kind(core_class: BoolClass) -> CoreCandidateKind:
    if core_class.is_constant:
        return CoreCandidateKind.FULL
    if core_class.is_monotone:
        return CoreCandidateKind.SAME
    if core_class.is_antimonotone:
        return CoreCandidateKind.INVERSE
    return CoreCandidateKind.SYMMETRIC_PART


def _candidate(kind: CoreCandidateKind, a, inv, m1: Model, m2: Model) -> dict[str, list[int]]:
    if kind is CoreCandidateKind.FULL:
        return _full(m1, m2)
    if kind is CoreCandidateKind.SAME:
        return a
    if kind is CoreCandidateKind.INVERSE:
        return inv
    return _meet(a, inv)


# -- the pair check, compiled once per connective ---------------------------------

def _sparse_cover(row: int, cover: int, missing: int, dead: int, y_ends, y_sources) -> int:
    """Back matching of the candidates ``row`` when the cover is smaller than
    both the row and the uncovered set: a candidate passes when it has no
    endpoint (it lies in ``dead``) or all its endpoints lie in the cover, so
    only the candidates with an endpoint in the cover are tested."""
    kept = row & dead
    for j in bits(union(y_sources, cover) & row):
        if not y_ends[j] & missing:
            kept |= 1 << j
    return kept


@dataclass(frozen=True)
class _Condition:
    """Back (``forall``) or forth (``exists``) matching of the guard paths of
    one block against witness relations.  Back at (x, y): every endpoint of
    y has, in each witness relation, an endpoint of x related to it.  Forth:
    every endpoint of x has, in each witness relation, an endpoint of y it is
    related to.  Special connectives take two separate witnesses, the
    relation and its inverse; a degree-2 connective takes as its one witness
    the pairs passing its inner block's condition.  With no guards, an
    element's one endpoint is itself: the pair must lie in the witness."""

    guards: tuple[str, ...]
    back: bool
    special: bool = False
    kind: CoreCandidateKind = CoreCandidateKind.SAME
    inner: "_Condition | None" = None

    def witnesses(self, a, inv, m1: Model, m2: Model, memos=None) -> list:
        """The maximal witness relations for the relation ``a`` (with its
        inverse); ``memos`` as ``passing`` takes it."""
        if self.inner is not None:
            inner = self.inner
            return [inner.passing(_full(m1, m2), inner.witnesses(a, inv, m1, m2, memos), m1, m2, memos)]
        if self.special:
            return [a, inv]
        return [_candidate(self.kind, a, inv, m1, m2)]

    def reads_inverse(self) -> bool:
        """Whether ``witnesses`` reads the inverse rows."""
        if self.inner is not None:
            return self.inner.reads_inverse()
        return self.special or self.kind in (CoreCandidateKind.INVERSE, CoreCandidateKind.SYMMETRIC_PART)

    def passing(self, cand, witnesses, m1: Model, m2: Model, memos=None) -> dict[str, list[int]]:
        """The pairs of ``cand`` that satisfy the condition, as rows: every
        row of ``_kept``, one direction serving both when the inputs are
        mirrored.  ``memos`` keeps the memos of ``_kept`` by condition and
        partner model, so calls on the same two models can share them: an
        entry depends on the partner model's chain rows alone."""
        out = {}
        mirrored = _mirrored(cand, *witnesses)
        if memos is None:
            memos = {}
        for d, mx, my in _directions(m1, m2)[:1 if mirrored else 2]:
            out[d] = list(self._kept(cand[d], [w[d] for w in witnesses], mx, my, memos))
        if mirrored:
            out[BWD] = out[FWD]
        return out

    def _kept(self, cand: list[int], ws: list[list[int]], mx: Model, my: Model, memos: dict):
        """Each row of ``cand``, from ``mx`` into ``my``, cut to its pairs
        passing against the witness rows ``ws``, yielded in index order.
        With no guards each element's one endpoint is itself: the pairs of
        the row in every witness row."""
        if not self.guards:
            for w in ws:
                cand = map(and_, cand, w)
            yield from cand
            return
        x_ends = mx.endpoint_indices(self.guards)
        y_ends, y_sources, dead = my.chain_rows(self.guards)
        memo = memos.setdefault((self, id(my)), {})  # a self pair's directions share one
        if self.back:
            full = (1 << len(my)) - 1
            # memo[cover]: the candidates tested against cover so far, and
            # those of them that passed; whether a candidate passes depends
            # on the cover alone, so no candidate is tested twice against one
            for i, row in enumerate(cand):
                if row and not x_ends[i]:
                    # no endpoint, so an empty cover: only candidates with none pass
                    row &= dead
                elif row:
                    cover = full
                    for w in ws:
                        covered = 0
                        for j in x_ends[i]:
                            covered |= w[j]
                        cover &= covered
                    if cover != full:
                        tested, passed = memo.get(cover, (0, 0))
                        todo = row & ~tested
                        if todo:
                            missing = full ^ cover
                            n_todo, n_missing = todo.bit_count(), missing.bit_count()
                            n_cover = len(my) - n_missing
                            if n_cover < n_todo and n_cover < n_missing:
                                kept = _sparse_cover(todo, cover, missing, dead, y_ends, y_sources)
                            elif n_todo < n_missing:
                                # fewer candidates than gaps: test each candidate's endpoints
                                kept = sum(1 << j for j in bits(todo) if not y_ends[j] & missing)
                            else:
                                # settle every partner element: those with an
                                # endpoint outside the cover fail
                                todo, kept = full, full ^ union(y_sources, missing)
                            tested, passed = memo[cover] = tested | todo, passed | kept
                        row &= passed
                yield row
        else:
            # memo[S]: the partner elements with an endpoint in the witness row S
            for i, row in enumerate(cand):
                for j in x_ends[i] if row else ():
                    for w in ws:
                        s = w[j]
                        hit = memo.get(s)
                        if hit is None:
                            hit = memo[s] = union(y_sources, s)
                        row &= hit
                yield row

    def violation(self, cand, witnesses, m1: Model, m2: Model) -> ViolationReport | None:
        """The first failing pair of ``cand`` in sorted order, with the first
        unmatched endpoint in sorted order and its witness path: indices are
        in name order, so these are the lowest bit of the first row of
        ``_kept`` that loses a bit, where the rows stop (mirrored inputs
        check ``fwd`` alone), and the first failing bit among the endpoints."""
        memos = {}
        for d, mx, my in _directions(m1, m2)[:1 if _mirrored(cand, *witnesses) else 2]:
            ws = [w[d] for w in witnesses]
            for i, (row, kept) in enumerate(zip(cand[d], self._kept(cand[d], ws, mx, my, memos))):
                if row != kept:
                    break
            else:
                continue
            j = next(bits(row ^ kept))
            x_ends, y_ends = mx.chain_rows(self.guards)[0][i], my.chain_rows(self.guards)[0][j]
            if self.back:
                covers = [union(w, x_ends) for w in ws]
                start, side, ends = j, my, y_ends
                misses = [[not (c >> e) & 1 for c in covers] for e in range(len(my))]
            else:
                start, side, ends = i, mx, x_ends
                misses = [[not w[e] & y_ends for w in ws] for e in range(len(mx))]
            end = next(e for e in bits(ends) if any(misses[e]))
            detail = ""
            if self.special:
                detail = f"no witness related {'to' if misses[end][0] else 'from'} the endpoint"
            path = side.guard_path(self.guards, side.domain[start], side.domain[end])
            name = ("s-" if self.special else "") + ("back" if self.back else "forth")
            return ViolationReport("", name, (mx.domain[i], my.domain[j]), d, tuple(path), detail)
        return None


def _compile(mu: GuardedConnective, cls: ConnectiveClass) -> _Condition:
    """The connective's condition; degree 0 has the empty guard chain."""
    if mu.degree == 0:
        return _Condition((), True, kind=core_candidate_kind(cls.core_class))
    block = mu.blocks[0]
    inner = None
    if mu.degree == 2:
        mu1 = ancestor(mu, 1)
        inner = _compile(mu1, classify_connective(mu1))
    return _Condition(block.guards, block.quantifier == "forall", cls.is_special,
                      core_candidate_kind(cls.core_class), inner)


# The conditions of each signature object; a signature is immutable, and
# they depend on no model.  The entry points gate standardness before they
# look them up, so one compile serves every ``strict``.
_SIGNATURE_CONDITIONS = weakref.WeakKeyDictionary()


def _conditions(connectives) -> tuple[tuple[str, _Condition], ...]:
    """Each connective's name with its compiled condition, in order, once
    per signature.  A monotone or constant degree-0 core admits every
    relation, so it gets none."""
    if not isinstance(connectives, FragmentSignature):
        return _compile_all(connectives)
    got = _SIGNATURE_CONDITIONS.get(connectives)
    if got is None:
        got = _SIGNATURE_CONDITIONS[connectives] = _compile_all(connectives)
    return got


def _compile_all(connectives) -> tuple[tuple[str, _Condition], ...]:
    out = []
    for mu in connectives:
        if mu.degree > 2:
            raise NonStandardFragmentError(f"{mu.name}: degree {mu.degree} is not supported")
        cls = classify_connective(mu)
        if mu.degree or not cls.core_class.is_monotone:
            out.append((mu.name, _compile(mu, cls)))
    return tuple(out)


def _reports(conds, rows, inv, m1: Model, m2: Model) -> list[ViolationReport]:
    """The first violation of each compiled condition on the relation with
    the given rows and inverse rows, in order; inverse rows given as None
    are built when a condition first reads them.  Only a passing condition
    computes every row: a failing one stops at its first failing row."""
    reports = []
    for name, cond in conds:
        if inv is None and cond.reads_inverse():
            inv = _inverse(rows, m1, m2)
        got = cond.violation(rows, cond.witnesses(rows, inv, m1, m2), m1, m2)
        if got is not None and not cond.guards:
            # along the empty chain, a failing pair is one whose mirror is missing
            got = replace(got, condition="degree0", path=(), detail="pair lacks its mirror")
        if got is not None:
            reports.append(replace(got, connective=name))
    return reports


def connective_condition(
    mu: GuardedConnective, a: CrossRelation, m1: Model, m2: Model, strict: bool = True
):
    """Decide the existential condition one connective imposes on ``a``.

    Maximal candidate relations replace the existential search: the checks
    are monotone in their targets, and the inner relation of a degree-2
    connective is constrained pointwise, so the largest candidates decide
    membership.  Returns True or the first ViolationReport.
    """
    rows, inv = _read(a, m1, m2)
    conds = _conditions([mu])
    if strict and not classify_connective(mu).is_standard:
        raise NonStandardFragmentError(f"{mu.name}: not a standard connective")
    got = _reports(conds, rows, inv, m1, m2)
    return got[0] if got else True


def is_asimulation(
    sig: FragmentSignature,
    theta_preds: Sequence[str],
    m1: Model,
    m2: Model,
    a: CrossRelation | dict,
    strict: bool = True,
) -> list[ViolationReport]:
    """All violations keeping ``a`` from being an asimulation; empty means ok.

    ``a`` is a ``CrossRelation`` or a relation document as
    ``relation_from_doc`` takes it; a document is read straight into rows.
    Emptiness of the relation is itself a violation, atom transfer is
    checked pairwise, and every connective contributes its condition.  The
    relation becomes rows and inverse rows once, shared by every check.
    """
    if strict:
        _require_standard(sig)
    rows, inv = _read(a, m1, m2)
    if not any(rows[FWD]) and not any(rows[BWD]):
        return [ViolationReport("", "empty", None, "", (), "the empty relation is not an asimulation")]
    return _atom_violations(theta_preds, rows, m1, m2) + _reports(_conditions(sig), rows, inv, m1, m2)


def largest_asimulation(
    sig: FragmentSignature,
    theta_preds: Sequence[str],
    m1: Model,
    m2: Model,
    strict: bool = True,
) -> CrossRelation:
    """Greatest fixpoint of the condition functional below the atom-preserving
    relation; empty exactly when no asimulation exists.

    A fragment's conditions include each sub-fragment's, so its gfp lies
    inside the sub-fragment's.  ``_bound`` solves the largest sub-fragment
    that partition refinement solves exactly; if that is the whole fragment
    its answer is the gfp, and otherwise the sweeps start from it.
    """
    if strict:
        _require_standard(sig)
    conds = [cond for _, cond in _conditions(sig)]
    rows, exact = _bound(conds, theta_preds, m1, m2)
    return _relation(rows if exact else _sweeps(conds, rows, m1, m2), m1, m2)


def _bound(conds, theta_preds: Sequence[str], m1: Model, m2: Model) -> tuple[dict[str, list[int]], bool]:
    """The gfp of the largest sub-fragment a refinement route solves, as
    rows, and whether that sub-fragment is the whole fragment.

    For conditions of degree at most 1 on non-constant cores, the gfp's
    symmetric part is an atom-respecting bisimulation along their chains,
    so it lies in the largest one, B.  A degree-0 cut among them makes the
    gfp symmetric and B post-fixed, so their gfp is B.  Without one, the
    non-special rest cores read only the symmetric part: the atom pairs
    passing each with witness B (along their own chains) hold B, so they
    are post-fixed, their gfp.  The other conditions are left to the sweeps.
    """
    flat = [c for c in conds if c.inner is None and c.kind is not CoreCandidateKind.FULL]
    if not all(c.guards for c in flat):
        return _bisimulation(flat, theta_preds, m1, m2), len(flat) == len(conds)
    rest = [c for c in flat if not c.special and c.kind is CoreCandidateKind.SYMMETRIC_PART]
    rows = _atom_rows(m1, m2, theta_preds)
    if rest:
        witness = [_bisimulation(rest, theta_preds, m1, m2)]
        for cond in rest:
            rows = cond.passing(rows, witness, m1, m2)
    return rows, len(rest) == len(conds)


def _bisimulation(conds, theta_preds: Sequence[str], m1: Model, m2: Model) -> dict[str, list[int]]:
    """The largest bisimulation along the conditions' chains that keeps every
    listed predicate, by colour refinement of both models at once: colours
    start as valuations, and each round adds an element's endpoints' colours
    per chain, until no colour splits."""
    models = (m1,) if m1 is m2 else (m1, m2)
    chains = list(dict.fromkeys(c.guards for c in conds if c.guards))
    ends = [[m.endpoint_indices(g) for g in chains] for m in models]
    keys = []
    for m in models:
        ks = [0] * len(m)
        for row in map(m.pred_row, theta_preds):
            ks = [k + k + (row >> i & 1) for i, k in enumerate(ks)]
        keys.append(ks)
    count = 0
    while True:
        ids = {k: c for c, k in enumerate(dict.fromkeys(chain.from_iterable(keys)))}
        colours = [list(map(ids.__getitem__, ks)) for ks in keys]
        if len(ids) == count:
            break
        count = len(ids)
        keys = [list(zip(cs, *([frozenset(map(cs.__getitem__, e)) for e in es] for es in ess)))
                for cs, ess in zip(colours, ends)]
    by_colour = {}  # the last model's elements of each colour
    for j, c in enumerate(colours[-1]):
        by_colour[c] = by_colour.get(c, 0) | 1 << j
    fwd = [by_colour.get(c, 0) for c in colours[0]]
    return _both(fwd) if m1 is m2 else {FWD: fwd, BWD: transpose(fwd, len(m2))}


def _sweeps(conds, start: dict[str, list[int]], m1: Model, m2: Model) -> dict[str, list[int]]:
    """The greatest fixpoint by sweeping the conditions in turn from the rows
    ``start``, each reading the relation the previous one left, until every
    condition in a row leaves it unchanged.  Each step keeps a superset of
    the gfp and the end is post-fixed, so from any start that holds the gfp
    and lies inside the atom rows, in any order, the result is the gfp; from
    the atom rows, sweep k lies inside round k of the iteration that fixes
    every witness at the start of the round.  Inverse rows are built once
    per change, if a condition reads them, and the conditions' memos serve
    the whole solve."""
    steps = [(cond, cond.reads_inverse()) for cond in conds]
    memos = {}
    a, inv = start, None
    settled = 0  # the conditions in a row that have left a unchanged
    for cond, reads_inverse in cycle(steps):
        if settled == len(steps):
            break
        if reads_inverse and inv is None:
            inv = _inverse(a, m1, m2)
        kept = cond.passing(a, cond.witnesses(a, inv, m1, m2, memos), m1, m2, memos)
        if kept == a:
            settled += 1
        else:
            a, inv, settled = kept, None, 0
    return a


def invariance_check(
    phi: FoFormula, a: CrossRelation, m1: Model, m2: Model
) -> tuple[tuple[str, str], str] | None:
    """First pair (with direction) where truth of ``phi`` fails to transfer."""
    fv = sorted(free_vars(phi))
    if len(fv) > 1:
        raise ValueError(f"need at most one free variable, got {fv}")
    rows = _read(a, m1, m2)[0]
    var = fv[0] if fv else "x"
    for d, mx, my in _directions(m1, m2):
        for x, row in zip(mx.domain, rows[d]):
            for y in map(my.domain.__getitem__, bits(row)):
                if eval_fo(mx, {var: x}, phi) and not eval_fo(my, {var: y}, phi):
                    return (x, y), d
    return None


def preservation_relation(
    sig: FragmentSignature,
    preds: Sequence[str],
    m1: Model,
    m2: Model,
    depth: int,
    budget: int | None = 1_000_000,
) -> CrossRelation:
    """Pairs along which every fragment formula up to the given nesting depth
    transfers truth, computed from the deduplicated enumeration."""
    return _ClassProfiles(class_vectors(sig, preds, depth, m1, m2, budget)[0], m1, m2).preorder()


class _ClassProfiles:
    """The classes true at each element of a model pair, transposed once:
    bit k of a model's profile row i is class k, given by its joint vector
    ``vecs[k]``, at its element i.  Depth-d readings mask the rows to the
    first classes."""

    def __init__(self, vecs: Sequence[int], m1: Model, m2: Model):
        n1 = len(m1)
        profiles = transpose(vecs, n1 + len(m2))
        p1, p2 = profiles[:n1], profiles[n1:]
        self.m1, self.m2 = m1, m2
        self.sides = ((FWD, p1, p2), (BWD, p2, p1))

    def preorder(self, end: int | None = None) -> CrossRelation:
        """Pairs (x, y) such that each of the first ``end`` classes (all by
        default) that is true at x is true at y."""
        mask = -1 if end is None else (1 << end) - 1
        rows = {}
        for d, px, py in self.sides:
            rows[d] = [sum(1 << j for j, q in enumerate(py) if p & mask & ~q == 0) for p in px]
        return _relation(rows, self.m1, self.m2)

    def violations(self, a: CrossRelation) -> int:
        """How many (class, pair of ``a``) have the class true at the pair's
        first element and false at its second."""
        rows = _read(a, self.m1, self.m2)[0]
        return sum((px[i] & ~py[j]).bit_count()
                   for d, px, py in self.sides for i, row in enumerate(rows[d]) for j in bits(row))

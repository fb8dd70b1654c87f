"""Finite models of the correspondence vocabulary: binary relations R<n> and
unary predicates P<n> over a named domain, with guard-chain traversal,
JSON (de)serialization, and seeded random generation.

A relation's pairs are read into step rows, one bit row over element
indices per element, and guard chains are composed from those rows (a
one-guard chain is the step rows themselves); one walk over a chain's bits
gives its transpose and each element's endpoints as a tuple of indices,
for the loops that walk them.  A predicate's elements are one bit row.
The frozenset views ``relations`` and ``predicates`` are built from the
rows on first read; everything else reads the rows.  Each list is read by
``bitrows.read_pairs`` or ``read_names``.

Element indices are in name order: index i is the i-th element name in
sorted order, so a row read bit by bit, and rows read in index order, list
their elements in name order, the order of every output.  The domain is
sorted once, at construction; only ``save`` and ``==`` read the order the
document gave."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bitrows import bits, identity, read_names, read_pairs, union
from .syntax import _PRED_NAME, _REL_NAME


class ModelError(ValueError):
    """Malformed model document or query; the message names the offending path."""


class Model:
    """An immutable finite structure.

    Relation and predicate symbols absent from the model are read as empty,
    so a model over a finite piece of the vocabulary stands for its
    completion with empty interpretations.  ``domain`` lists the element
    names in sorted order, and ``index`` maps each name to its place there,
    its bit in every row; the order given is kept for ``save`` and ``==``.
    """

    __slots__ = ("domain", "index", "_given", "_steps", "_pred_rows", "_chains", "_endpoints",
                 "_relations", "_predicates")

    def __init__(
        self,
        domain: Sequence[str],
        relations: Mapping[str, Iterable[tuple[str, str]]] | None = None,
        predicates: Mapping[str, Iterable[str]] | None = None,
    ):
        if not isinstance(domain, (list, tuple)) or not all(isinstance(x, str) for x in domain):
            raise ModelError("domain: expected a list of strings")
        if not domain:
            raise ModelError("domain: must be non-empty")
        self._given = tuple(domain)
        self.domain: tuple[str, ...] = tuple(sorted(domain))
        # index[el]: the rank of el's name, its bit in every row
        self.index = members = {el: i for i, el in enumerate(self.domain)}
        if len(members) != len(self.domain):
            raise ModelError("domain: duplicate element names")

        # _steps[name][i]: the elements one step from element i through name
        self._steps: dict[str, list[int]] = {}
        for name, pairs in (relations or {}).items():
            if not _REL_NAME.fullmatch(name):
                raise ModelError(f"relations.{name}: not a relation symbol (expected R<digits>)")
            if not isinstance(pairs, (list, tuple, set, frozenset)):
                raise ModelError(f"relations.{name}: expected a list of pairs")
            step = self._steps[name] = [0] * len(members)
            read_pairs(pairs, members, members, step, None, f"relations.{name}", ModelError)

        # _pred_rows[name]: the elements holding name, as a bit row
        self._pred_rows: dict[str, int] = {}
        for name, elems in (predicates or {}).items():
            if not _PRED_NAME.fullmatch(name):
                raise ModelError(f"predicates.{name}: not a predicate symbol (expected P<digits>)")
            if not isinstance(elems, (list, tuple, set, frozenset)):
                raise ModelError(f"predicates.{name}: expected a list of element names")
            self._pred_rows[name] = read_names(elems, members, f"predicates.{name}", ModelError)

        self._chains: dict[tuple[str, ...], tuple[tuple[int, ...], tuple[int, ...], int]] = {}
        self._endpoints: dict[tuple[str, ...], tuple[tuple[int, ...], ...]] = {}
        self._relations = self._predicates = None

    @property
    def relations(self) -> dict[str, frozenset[tuple[str, str]]]:
        """Each declared relation's pairs, built from the step rows on first read and kept."""
        if self._relations is None:
            self._relations = {name: pair_set(step, self, self) for name, step in self._steps.items()}
        return self._relations

    @property
    def predicates(self) -> dict[str, frozenset[str]]:
        """Each declared predicate's elements, built from its row on first read and kept."""
        if self._predicates is None:
            self._predicates = {name: frozenset(map(self.domain.__getitem__, bits(row)))
                                for name, row in self._pred_rows.items()}
        return self._predicates

    def __len__(self) -> int:
        return len(self.domain)

    def __contains__(self, element: str) -> bool:
        return element in self.index

    def index_of(self, element: str) -> int:
        return self.index[element]

    def rel_pairs(self, name: str) -> frozenset[tuple[str, str]]:
        return self.relations.get(name, frozenset())

    def successors(self, name: str, element: str) -> tuple[str, ...]:
        i = self.index.get(element)
        row = 0 if i is None else self.chain_rows((name,))[0][i]
        return tuple(map(self.domain.__getitem__, bits(row)))

    def has_pred(self, name: str, element: str) -> bool:
        i = self.index.get(element)
        return i is not None and self._pred_rows.get(name, 0) >> i & 1 == 1

    def has_rel(self, name: str, x: str, y: str) -> bool:
        """Whether (x, y) is a pair of the relation."""
        step, i, j = self._steps.get(name), self.index.get(x), self.index.get(y)
        return step is not None and i is not None and j is not None and step[i] >> j & 1 == 1

    def pred_elements(self, name: str) -> frozenset[str]:
        return self.predicates.get(name, frozenset())

    def pred_row(self, name: str) -> int:
        """The elements holding the predicate, as a bit row over element indices."""
        return self._pred_rows.get(name, 0)

    def chain_rows(self, guards: Sequence[str]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The guard chain as bit rows over element indices: ``ends[i]`` holds
        the elements reachable from element i by one step through each listed
        relation in order, ``sources`` is its transpose, and ``dead`` is the
        row of the elements with no endpoint.  A one-guard chain is the step
        rows read with the model, and a longer one composes the chain without
        its last guard with that guard's steps.  One walk over the bits of
        ``ends`` fills ``sources``, ``dead`` and ``endpoint_indices``.  Built
        once per guard tuple and kept, as the model is immutable."""
        guards = tuple(guards)
        got = self._chains.get(guards)
        if got is None:
            n = len(self.domain)
            if not guards:
                ends = identity(n)
            else:
                step = self._steps.get(guards[-1]) or [0] * n
                if len(guards) == 1:
                    ends = tuple(step)
                else:
                    ends = tuple(union(step, row) for row in self.chain_rows(guards[:-1])[0])
            sources, dead, points = [0] * n, 0, []
            for bit, row in zip(identity(n), ends):
                js = []
                if not row:
                    dead |= bit
                while row:
                    low = row & -row
                    j = low.bit_length() - 1
                    js.append(j)
                    sources[j] |= bit
                    row ^= low
                points.append(tuple(js))
            self._endpoints[guards] = tuple(points)
            got = self._chains[guards] = (ends, tuple(sources), dead)
        return got

    def endpoint_indices(self, guards: Sequence[str]) -> tuple[tuple[int, ...], ...]:
        """The rows ``ends`` of ``chain_rows`` as index tuples: entry i lists
        the endpoints of element i in ascending order.  Built with the chain
        rows and kept."""
        guards = tuple(guards)
        self.chain_rows(guards)
        return self._endpoints[guards]

    def guard_endpoints(self, guards: Sequence[str], start: str) -> frozenset[str]:
        """Elements reachable from ``start`` along the guard chain: one step
        through each listed relation in order."""
        if start not in self.index:
            raise ModelError(f"unknown element {start!r}")
        row = self.chain_rows(guards)[0][self.index[start]]
        return frozenset(self.domain[j] for j in bits(row))

    def guard_path(self, guards: Sequence[str], start: str, end: str) -> tuple[str, ...] | None:
        """One witnessing path start,...,end along the guard chain, or None."""
        paths: dict[str, tuple[str, ...]] = {start: (start,)}
        for g in guards:
            nxt: dict[str, tuple[str, ...]] = {}
            for a, path in paths.items():
                for b in self.successors(g, a):
                    if b not in nxt:
                        nxt[b] = path + (b,)
            paths = nxt
        return paths.get(end)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Model)
            and self._given == other._given
            and self._steps == other._steps
            and self._pred_rows == other._pred_rows
        )

    def __repr__(self) -> str:
        return f"Model(|U|={len(self.domain)}, R={sorted(self._steps)}, P={sorted(self._pred_rows)})"


def pair_set(rows: Sequence[int], mx: Model, my: Model) -> frozenset[tuple[str, str]]:
    """The pairs of ``rows``, bit j of row i pairing element i of ``mx`` with
    element j of ``my``, as name pairs."""
    names = my.domain
    return frozenset((x, names[j]) for x, row in zip(mx.domain, rows) for j in bits(row))


def sorted_pairs(rows: Sequence[int], mx: Model, my: Model) -> list[list[str]]:
    """The pairs of ``rows`` as ``[x, y]`` name lists, read as by
    ``pair_set``; rows and bits in index order are pairs in name order, so
    the list is sorted."""
    xs, ys = mx.domain, my.domain
    return [[xs[i], ys[j]] for i, row in enumerate(rows) for j in bits(row)]


@dataclass(frozen=True)
class PointedModel:
    model: Model
    point: str

    def __post_init__(self):
        if self.point not in self.model:
            raise ModelError(f"point {self.point!r} not in the domain")


def load(doc: object) -> Model:
    """Build a model from its JSON document form, validating references."""
    if not isinstance(doc, dict):
        raise ModelError("document: expected an object")
    unknown = set(doc) - {"domain", "relations", "predicates"}
    if unknown:
        raise ModelError(f"document: unknown keys {sorted(unknown)}")
    relations = doc.get("relations", {})
    predicates = doc.get("predicates", {})
    if not isinstance(relations, dict):
        raise ModelError("relations: expected an object")
    if not isinstance(predicates, dict):
        raise ModelError("predicates: expected an object")
    return Model(doc.get("domain"), relations, predicates)


def loads(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"document: invalid JSON ({e})") from e
    return load(doc)


def load_file(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save(m: Model) -> dict:
    """Canonical document: domain as given, pair and element lists sorted."""
    return {
        "domain": list(m._given),
        "relations": {name: sorted_pairs(m._steps[name], m, m) for name in sorted(m._steps)},
        "predicates": {
            name: list(map(m.domain.__getitem__, bits(m._pred_rows[name]))) for name in sorted(m._pred_rows)
        },
    }


def dumps(m: Model) -> str:
    return json.dumps(save(m), indent=2, sort_keys=True)


def random_model(
    n: int,
    rel_symbols: Sequence[str],
    pred_symbols: Sequence[str],
    edge_prob: float,
    pred_prob: float,
    seed: int,
) -> Model:
    """Independently sampled edges and predicate memberships, deterministic per seed."""
    if n < 1:
        raise ValueError("model size must be at least 1")
    if not (0.0 <= edge_prob <= 1.0 and 0.0 <= pred_prob <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    domain = [f"w{i}" for i in range(n)]
    relations = {}
    for r in rel_symbols:
        pairs = [
            (a, b)
            for a in domain
            for b in domain
            if rng.random() < edge_prob
        ]
        relations[r] = pairs
    predicates = {}
    for p in pred_symbols:
        predicates[p] = [w for w in domain if rng.random() < pred_prob]
    return Model(domain, relations, predicates)

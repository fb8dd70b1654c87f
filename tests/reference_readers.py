"""The input readers as they were before the bulk pass, frozen: the loop that
read a relation document into rows and inverse rows, and the loops of
``Model.__init__`` that read relation pairs into step rows and predicate
lists into element sets.  Each checks every entry in turn and raises on the
first malformed one.

Rows are lists of ints over element indices (positions in the domain): bit j
of row i is set when the element at i is related to the element at j.  The
element indices are built here from the domains, not taken from a model.
"""

from guardasim.asim import BWD, FWD, RelationError
from guardasim.model import ModelError


def _index(domain):
    return {el: i for i, el in enumerate(domain)}


def doc_rows(doc, domain1, domain2):
    """The rows and inverse rows of a relation document between models with
    these domains: entries are checked in order, fwd before bwd, and the
    first malformed one raises ``RelationError`` naming it."""
    if not isinstance(doc, dict):
        raise RelationError("document: expected an object")
    rows = {FWD: [0] * len(domain1), BWD: [0] * len(domain2)}
    inv = {FWD: [0] * len(domain1), BWD: [0] * len(domain2)}
    for key, first, second in ((FWD, domain1, domain2), (BWD, domain2, domain1)):
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            raise RelationError(f"{key}: expected a list of pairs")
        out, mirror = rows[key], inv[BWD if key == FWD else FWD]
        ix, iy = _index(first), _index(second)
        for n, entry in enumerate(entries):
            if isinstance(entry, (list, tuple)) and len(entry) == 2:
                x, y = entry
                if isinstance(x, str) and isinstance(y, str):
                    i = ix.get(x)
                    if i is None:
                        raise RelationError(f"{key}[{n}]: unknown element {x!r}")
                    j = iy.get(y)
                    if j is None:
                        raise RelationError(f"{key}[{n}]: unknown element {y!r}")
                    out[i] |= 1 << j
                    mirror[j] |= 1 << i
                    continue
            raise RelationError(f"{key}[{n}]: expected a pair of element names")
    return rows, inv


def model_parts(domain, relations=None, predicates=None):
    """``(steps, relations, predicates, pred_rows)`` as ``Model`` read them:
    per relation its step rows and its set of pairs, per predicate its set of
    elements and their row; the first malformed entry raises ``ModelError``
    naming it.  Relation and predicate symbols are not checked: that check
    comes before the entries and is not part of what is frozen here."""
    if not domain:
        raise ModelError("domain: must be non-empty")
    members = _index(domain)
    if len(members) != len(domain):
        raise ModelError("domain: duplicate element names")

    steps, rels = {}, {}
    for name, pairs in (relations or {}).items():
        if not isinstance(pairs, (list, tuple, set, frozenset)):
            raise ModelError(f"relations.{name}: expected a list of pairs")
        pair_set = set()
        step = steps[name] = [0] * len(members)
        for i, pair in enumerate(pairs):
            if isinstance(pair, (list, tuple)) and len(pair) == 2:
                a, b = pair
                if isinstance(a, str) and isinstance(b, str):
                    ia = members.get(a)
                    if ia is None:
                        raise ModelError(f"relations.{name}[{i}]: unknown element {a!r}")
                    ib = members.get(b)
                    if ib is None:
                        raise ModelError(f"relations.{name}[{i}]: unknown element {b!r}")
                    step[ia] |= 1 << ib
                    pair_set.add((a, b))
                    continue
            raise ModelError(f"relations.{name}[{i}]: expected a pair of element names")
        rels[name] = frozenset(pair_set)

    preds = {}
    for name, elems in (predicates or {}).items():
        if not isinstance(elems, (list, tuple, set, frozenset)):
            raise ModelError(f"predicates.{name}: expected a list of element names")
        elem_set = set()
        for i, el in enumerate(elems):
            if not isinstance(el, str):
                raise ModelError(f"predicates.{name}[{i}]: expected an element name")
            if el not in members:
                raise ModelError(f"predicates.{name}[{i}]: unknown element {el!r}")
            elem_set.add(el)
        preds[name] = frozenset(elem_set)
    pred_rows = {name: sum(1 << members[el] for el in elems) for name, elems in preds.items()}
    return steps, rels, preds, pred_rows

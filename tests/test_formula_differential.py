"""The row-wise bit-parallel enumeration against the per-element one it
replaced, kept in reference_formula.py, on seeded random model pairs of 1-6
elements: equal (formula, vec1, vec2) lists, equal budget exhaustion (also at
each layer's boundary), equal distinguishing formulas, and preservation
preorders read off the depth-3 prefix."""

import random
from itertools import product

import pytest

from guardasim import asim, formula
from guardasim.asim import CrossRelation
from guardasim.bitrows import union
from guardasim.connective import FragmentSignature
from guardasim.formula import (
    BudgetExceeded,
    distinguishing_formula,
    fragment_truth_set,
    semantic_classes,
)
from guardasim.model import PointedModel, random_model
from guardasim.syntax import Apply, fragment_depth

import reference_formula as ref
from helpers import ALL_SIGS, theta_of

RELATIONS = ["R1", "R2", "R3"]

SIGS = {
    **{name: build() for name, build in ALL_SIGS.items()},
    # Nullary connectives with guard blocks: true where some R1-successor
    # exists, and where no R2-path of two steps exists.
    "nullary_guarded": FragmentSignature.from_dict({"connectives": {
        "live": "exists[R1]{ T }",
        "stuck2": "forall[R2,R2]{ F }",
        "box": "forall[R1]{ p1 }",
    }}),
    # Constant cores of positive arity.
    "constant_core": FragmentSignature.from_dict({"connectives": {
        "dead": "forall[R1]{ p2 & F }",
        "any": "exists[R3]{ p1 | T }",
        "dia": "exists[R2]{ p1 }",
    }}),
    # Arity-3 cores: one with fewer true rows, one with fewer false rows.
    "arity3": FragmentSignature.from_dict({"connectives": {
        "maj": "forall[R1]{ (p1 & p2) | (p1 & p3) | (p2 & p3) }",
        "sel": "exists[R2] forall[R1]{ (p1 & ~p3) | (p2 & p3) }",
    }}),
    # A binary core that ignores its last argument, so the two masks a row
    # folds its prefix into are equal.
    "last_arg_ignored": FragmentSignature.from_dict({"connectives": {
        "first": "forall[R1]{ p1 & (p2 | ~p2) }",
        "dia": "exists[R1]{ p1 }",
    }}),
    # Constant binary cores, with and without a block.
    "constant_core2": FragmentSignature.from_dict({"connectives": {
        "never": "{ (p1 & ~p1) | (p2 & ~p2) }",
        "always": "exists[R2]{ p1 | ~p1 | p2 }",
        "box": "forall[R1]{ p1 }",
    }}),
    # Cores symmetric in their last two arguments under guard blocks, so
    # their rows skip the mirrored argument lists: arity 2, and arity 3
    # symmetric in p2 and p3 only; "pick" is a non-symmetric arity-3 control.
    "symmetric_guarded": FragmentSignature.from_dict({"connectives": {
        "both": "exists[R1]{ p1 & p2 }",
        "same": "forall[R2]{ p1 <-> p2 }",
        "guard": "forall[R1]{ p1 & (p2 | p3) }",
        "pick": "exists[R2]{ p1 | (p2 & ~p3) }",
    }}),
    # No model below interprets R4.
    "missing_symbol": FragmentSignature.from_dict({"connectives": {
        "box4": "forall[R4]{ p1 }",
        "dia14": "exists[R1,R4]{ p1 }",
        "imp": "forall[R1]{ ~p1 | p2 }",
    }}),
}

BUDGETS = (None, 1, 50, 400, 5000)
# The arity-3 signatures' last layers run to 10^5 candidates or more, too
# many for the reference; there they are compared under the finite budgets only.
FULL_DEPTH = {"arity3": 2, "symmetric_guarded": 2}


def _pairs(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        rels = RELATIONS[: rng.randint(1, 3)]
        m1 = random_model(rng.randint(1, 6), rels, ["P1", "P2"], 0.3, 0.5, rng.randrange(1 << 30))
        m2 = random_model(rng.randint(1, 6), rels, ["P1", "P2"], 0.3, 0.5, rng.randrange(1 << 30))
        yield k, m1, m2


def _outcome(enumerate_, *args):
    try:
        return enumerate_(*args)
    except BudgetExceeded as e:
        return ("budget", e.checked)


def _triples(classes):
    if isinstance(classes, tuple):
        return classes
    return [(c.formula, c.vec1, c.vec2) for c in classes]


@pytest.mark.parametrize("sig_name", sorted(SIGS))
def test_semantic_classes_match_reference(sig_name):
    sig = SIGS[sig_name]
    for k, m1, m2 in _pairs(1000 + len(sig_name), 6):
        theta = theta_of(m1, m2)
        for depth in range(4):
            for budget in BUDGETS:
                if budget is None and depth > FULL_DEPTH.get(sig_name, 3):
                    continue
                got = _outcome(semantic_classes, sig, theta, depth, m1, m2, budget)
                want = _outcome(ref.semantic_classes, sig, theta, depth, m1, m2, budget)
                assert _triples(got) == _triples(want), (sig_name, k, depth, budget)


@pytest.mark.parametrize("sig_name", sorted(SIGS))
def test_budget_boundaries_match_reference(sig_name):
    """Budgets of -1 and 0, and the reference's candidate count through each
    layer, one less and one more: a row that crosses the budget raises with
    the count a check before each candidate stops at, and a budget spent
    exactly by the last layer does not raise."""
    sig = SIGS[sig_name]
    depth = FULL_DEPTH.get(sig_name, 3)
    for k, m1, m2 in _pairs(4000 + len(sig_name), 4):
        theta = theta_of(m1, m2)
        through: list[int] = []
        ref.semantic_classes(sig, theta, depth, m1, m2, None, through)
        budgets = sorted({-1, 0} | {c + e for c in through for e in (-1, 0, 1)})
        for budget in budgets:
            got = _outcome(semantic_classes, sig, theta, depth, m1, m2, budget)
            want = _outcome(ref.semantic_classes, sig, theta, depth, m1, m2, budget)
            assert _triples(got) == _triples(want), (sig_name, k, budget)


@pytest.mark.parametrize("sig_name", sorted(SIGS))
def test_class_vectors_match_reference(sig_name):
    """The joint vectors of the reference classes, vec1 | vec2 << n1, and how
    many of them have depth <= d, at the budgets above and at each layer's
    boundary, one less and one more; a budget that runs out raises alike."""
    sig = SIGS[sig_name]
    full = FULL_DEPTH.get(sig_name, 3)
    for k, m1, m2 in _pairs(4000 + len(sig_name), 4):
        theta = theta_of(m1, m2)
        through: list[int] = []
        ref.semantic_classes(sig, theta, full, m1, m2, None, through)
        boundaries = {c + e for c in through for e in (-1, 0, 1)}
        for depth in range(4):
            for budget in {*BUDGETS, *(boundaries if depth == full else ())}:
                if budget is None and depth > full:
                    continue
                got = _outcome(formula.class_vectors, sig, theta, depth, m1, m2, budget)
                want = _outcome(ref.semantic_classes, sig, theta, depth, m1, m2, budget)
                if isinstance(want, list):
                    layers = [fragment_depth(c.formula) for c in want]
                    want = ([c.vec1 | c.vec2 << len(m1) for c in want],
                            [sum(x <= d for x in layers) for d in range(depth + 1)])
                assert got == want, (sig_name, k, depth, budget)


@pytest.mark.parametrize("sig_name", sorted(SIGS))
def test_distinguishing_formulas_match_reference(sig_name):
    """For every pair of points: the first reference class true at the first
    point and false at the second, or None."""
    sig = SIGS[sig_name]
    depth = FULL_DEPTH.get(sig_name, 3)
    for k, m1, m2 in _pairs(5000 + len(sig_name), 4):
        classes = ref.semantic_classes(sig, theta_of(m1, m2), depth, m1, m2, None)
        for i1, a in enumerate(m1.domain):
            for i2, b in enumerate(m2.domain):
                want = next((c.formula for c in classes
                             if (c.vec1 >> i1) & 1 and not (c.vec2 >> i2) & 1), None)
                got = distinguishing_formula(sig, PointedModel(m1, a), PointedModel(m2, b), depth, None)
                assert got == want, (sig_name, k, a, b)


@pytest.mark.parametrize("sig_name", sorted(SIGS))
def test_truth_sets_match_reference(sig_name):
    sig = SIGS[sig_name]
    for k, m1, m2 in _pairs(2000 + len(sig_name), 4):
        for cls in semantic_classes(sig, theta_of(m1, m2), 2, m1, m2, None):
            for m in (m1, m2):
                vec = ref.truth_vector(m, cls.formula, sig)
                want = frozenset(u for i, u in enumerate(m.domain) if (vec >> i) & 1)
                assert fragment_truth_set(m, cls.formula, sig) == want, (sig_name, k)


def class_preorder(classes, m1, m2):
    """Pairs (x, y) such that every listed class true at x is true at y, read
    off the classes' truth vectors."""
    def pairs(mx, my, vecs):  # per class, its truth vectors on mx and on my
        return frozenset((x, y) for i, x in enumerate(mx.domain) for j, y in enumerate(my.domain)
                         if all(vy >> j & 1 for vx, vy in vecs if vx >> i & 1))

    vecs = [(c.vec1, c.vec2) for c in classes]
    return CrossRelation(pairs(m1, m2, vecs), pairs(m2, m1, [v[::-1] for v in vecs]))


@pytest.mark.parametrize("sig_name", sorted([*ALL_SIGS, "symmetric_guarded"]))
def test_preservation_relation_is_read_off_the_depth3_prefix(sig_name):
    sig = SIGS[sig_name]
    depth = FULL_DEPTH.get(sig_name, 3)
    for k, m1, m2 in _pairs(3000 + len(sig_name), 6):
        theta = theta_of(m1, m2)
        classes = semantic_classes(sig, theta, depth, m1, m2, None)
        layers = [fragment_depth(c.formula) for c in classes]
        assert layers == sorted(layers)
        for d in range(depth + 1):
            prefix = [c for c, layer in zip(classes, layers) if layer <= d]
            assert prefix == semantic_classes(sig, theta, d, m1, m2, None), (sig_name, k, d)
            assert asim.preservation_relation(sig, theta, m1, m2, d, None) == \
                class_preorder(prefix, m1, m2), (sig_name, k, d)


# One small seeded pair per signature, whose reference enumeration checks a
# few hundred candidates over two or three layers.
EXHAUSTIVE_SEEDS = {"nullary_guarded": 8011, "symmetric_guarded": 8011, "arity3": 8039, "modal": 8011}


@pytest.mark.parametrize("sig_name", sorted(EXHAUSTIVE_SEEDS))
def test_every_budget_matches_reference(sig_name):
    """Every budget from -1 to the reference's candidate count, so the
    charge of every row is pinned, not only at the layer boundaries: the
    classes, and the joint vectors with their per-depth counts."""
    sig = SIGS[sig_name]
    depth = FULL_DEPTH.get(sig_name, 3)
    _k, m1, m2 = next(_pairs(EXHAUSTIVE_SEEDS[sig_name], 1))
    theta = theta_of(m1, m2)
    through: list[int] = []
    ref.semantic_classes(sig, theta, depth, m1, m2, None, through)
    assert len(through) > 1, sig_name
    for budget in range(-1, through[-1] + 1):
        got = _outcome(semantic_classes, sig, theta, depth, m1, m2, budget)
        want = _outcome(ref.semantic_classes, sig, theta, depth, m1, m2, budget)
        assert _triples(got) == _triples(want), (sig_name, budget)
        got = _outcome(formula.class_vectors, sig, theta, depth, m1, m2, budget)
        assert got == _joint_vectors(want, len(m1), depth), (sig_name, budget)


def _row_ends(sig, classes, depth):
    """The reference's candidate count at the end of each row, keyed by the
    layer, the connective and all but the last argument class, and the count
    at the end of the enumeration, in the reference's product order."""
    layers = [fragment_depth(c.formula) for c in classes]
    ends, checked = {}, 0
    for layer in range(1, depth + 1):
        count = sum(x < layer for x in layers)
        for name in sig.names():
            for combo in product(range(count), repeat=sig.get(name).arity):
                if combo and max(layers[i] for i in combo) == layer - 1:
                    checked += 1
                    ends[layer, name, combo[:-1]] = checked
        if layer not in layers:
            break
    return ends, checked


@pytest.mark.parametrize("sig_name", sorted(EXHAUSTIVE_SEEDS))
def test_distinguishing_budget_stops_at_the_answers_row(sig_name):
    """For every pair of points and every budget from -1 to the full count:
    the unbounded answer comes back exactly when the budget covers the
    charge through the end of its row (the argument lists that share its
    prefix), or through the whole enumeration when there is none, and the
    search raises with the budget's count otherwise."""
    sig = SIGS[sig_name]
    depth = FULL_DEPTH.get(sig_name, 3)
    for k, m1, m2 in _pairs(EXHAUSTIVE_SEEDS[sig_name], 2):
        classes = ref.semantic_classes(sig, theta_of(m1, m2), depth, m1, m2, None)
        index = {c.formula: at for at, c in enumerate(classes)}
        ends, total = _row_ends(sig, classes, depth)
        for i1, a in enumerate(m1.domain):
            for i2, b in enumerate(m2.domain):
                want = next((c.formula for c in classes
                             if (c.vec1 >> i1) & 1 and not (c.vec2 >> i2) & 1), None)
                if want is None:
                    charge = total
                elif isinstance(want, Apply) and want.args:
                    args = tuple(index[f] for f in want.args)
                    charge = ends[fragment_depth(want), want.name, args[:-1]]
                else:
                    charge = 0
                for budget in range(-1, total + 1):
                    got = _outcome(distinguishing_formula, sig, PointedModel(m1, a),
                                   PointedModel(m2, b), depth, budget)
                    assert got == (want if charge <= max(budget, 0) else ("budget", max(budget, 0))), \
                        (sig_name, k, a, b, budget)


def _joint_vectors(classes, n1, depth):
    """What ``class_vectors`` returns for these classes: their joint vectors
    and how many have depth <= d for each d; a budget's count as it is."""
    if isinstance(classes, tuple):
        return classes
    layers = [fragment_depth(c.formula) for c in classes]
    return [c.vec1 | c.vec2 << n1 for c in classes], [sum(x <= d for x in layers) for d in range(depth + 1)]


def _witnessed_vectors(sig, theta, depth, m1, m2, budget):
    """What ``class_vectors`` must return, read off ``semantic_classes``
    after checking each class's vectors against the reference truth vectors
    of its witness."""
    classes = _outcome(semantic_classes, sig, theta, depth, m1, m2, budget)
    for c in () if isinstance(classes, tuple) else classes:
        want = ref.truth_vector(m1, c.formula, sig), ref.truth_vector(m2, c.formula, sig)
        assert (c.vec1, c.vec2) == want, c.formula
    return _joint_vectors(classes, len(m1), depth)


def test_union_tables_match_the_bit_loop():
    """A union read from the joint's tables equals ``bitrows.union`` for every
    mask of 1, 7, 8, 9, 16 and 17 source rows, one to three tables, and a
    block applied through them equals the row path's, under forall and
    under exists."""
    sig = FragmentSignature.from_dict({"connectives": {
        "box": "forall[R1]{ p1 }",
        "dia": "exists[R1]{ p1 }",
    }})
    rng = random.Random(29)
    for n in (1, 7, 8, 9, 16, 17):
        models = [random_model(k, ["R1"], ["P1"], 0.3, 0.5, rng.randrange(1 << 30))
                  for k in (n - n // 2, n // 2) if k]
        joint = formula._Joint(models)
        sources = joint.sources(("R1",))
        table = joint.union(("R1",))
        masks = range(1 << n)
        assert len(sources) == n and any(sources)
        assert [table(s) for s in masks] == [union(sources, s) for s in masks], n
        for name in ("box", "dia"):
            kernel = formula._Kernel(joint, sig.get(name))
            assert kernel.image(list(masks)) == [kernel[v] for v in masks], (n, name)


WIDE_SIGS = ["modal", "modal_intuitionistic", "nullary_guarded", "symmetric_guarded"]


@pytest.mark.parametrize("sig_name", WIDE_SIGS)
def test_class_vectors_match_the_row_path_on_wide_joints(sig_name):
    """Joints of 17-24 bits, whose blocks read three tables each (lambda3 of
    modal_intuitionistic has two blocks, nullary_guarded has blocks on
    nullary connectives): each class's vectors are those of its witness
    under the reference evaluator."""
    sig = SIGS[sig_name]
    rng = random.Random(7100 + len(sig_name))
    for k in range(3):
        n = rng.randint(17, 24)
        m1, m2 = (random_model(size, RELATIONS, ["P1", "P2"], 0.15, 0.5, rng.randrange(1 << 30))
                  for size in (n // 2, n - n // 2))
        theta = theta_of(m1, m2)
        for depth, budget in ((2, None), (3, 3000), (3, 30000)):
            got = _outcome(formula.class_vectors, sig, theta, depth, m1, m2, budget)
            assert got == _witnessed_vectors(sig, theta, depth, m1, m2, budget), (sig_name, k, depth, budget)


def _row_sizes(parts, count):
    """The candidates each row evaluates, over the lists ``_Kernel.cores``
    yields, read off their spans."""
    sizes = []
    for (_prefix, i, los), part in parts:
        left = len(part)
        while left:
            sizes.append(count - los[i])
            left -= sizes[-1]
            i += 1
    return sizes


def test_class_vectors_cut_a_layer_larger_than_the_batch(monkeypatch):
    """A layer of more than ``_BATCH`` candidates under budget=None: an
    and/or layer over 295 classes is cut into lists of whole rows of at most
    ``_BATCH`` candidates, the lists hold the candidates of the layer's
    rows, symmetric skips included, and the vectors are those of the
    classes' witnesses."""
    sig = SIGS["modal"]
    rng = random.Random(0)
    m1, m2 = (random_model(5, ["R1"], ["P1", "P2"], 0.3, 0.5, rng.randrange(1 << 30)) for _ in range(2))
    theta = theta_of(m1, m2)
    lists, real = [], formula._Kernel.cores

    def cores(kernel, vecs, count, start, room=None):
        if kernel.arity == 1:
            want = count - start
        else:
            want = sum(count - (max(start, i) if kernel.symmetric else start if i < start else 0)
                       for i in range(count))
        lists.append((want, []))
        for span, part in real(kernel, vecs, count, start, room):
            lists[-1][1].append(len(part))
            yield span, part

    monkeypatch.setattr(formula._Kernel, "cores", cores)
    got = formula.class_vectors(sig, theta, 4, m1, m2, None)
    monkeypatch.undo()
    assert got == _witnessed_vectors(sig, theta, 4, m1, m2, None)
    assert got[1][3] == 295 and 295 ** 2 - got[1][2] ** 2 > formula._BATCH
    assert [want for want, _ in lists] == [sum(lens) for _, lens in lists]
    assert max(max(lens) for _, lens in lists) <= formula._BATCH
    assert max(len(lens) for _, lens in lists) > 1


def test_symmetric_rows_skip_mirrored_argument_lists(monkeypatch):
    """The rows come in the product order of all but the last argument; each
    is charged count - lo, where lo is the layer's start while the row uses
    no class of the previous layer, and 0 once it does.  A core symmetric in
    its last two arguments evaluates the row with prefix (..., i) only from
    max(lo, i); every other core evaluates the whole row.  A row's charge is
    the least room past the rows before it for which ``_Kernel.cores``
    yields it."""
    sig = SIGS["symmetric_guarded"]
    _k, m1, m2 = next(_pairs(17, 1))
    rows_seen = []
    real = formula._Kernel.cores

    def cores(kernel, vecs, count, start, room=None):
        parts = list(real(kernel, vecs, count, start, room))
        spent = 0
        for k, evaluated in enumerate(_row_sizes(parts, count)):
            charged = next(c for c in range(count + 1)
                           if len(_row_sizes(real(kernel, vecs, count, start, spent + c), count)) > k)
            rows_seen.append([charged, evaluated])
            spent += charged
        yield from parts

    monkeypatch.setattr(formula._Kernel, "cores", cores)
    classes = semantic_classes(sig, theta_of(m1, m2), 2, m1, m2, None)
    monkeypatch.undo()

    joint = formula._Joint((m1, m2))
    kernels = {name: formula._Kernel(joint, sig.get(name)) for name in sig.names()}
    layers = [fragment_depth(c.formula) for c in classes]
    want = []
    for layer in (1, 2):
        count = sum(x < layer for x in layers)
        start = sum(x < layer - 1 for x in layers)
        for kernel in (k for k in kernels.values() if k.arity):
            for prefix in product(range(count), repeat=kernel.arity - 1):
                lo = start if all(i < start for i in prefix) else 0
                want.append([count - lo, count - max(lo, prefix[-1]) if kernel.symmetric else count - lo])
        if layer not in layers:
            break
    assert rows_seen == want
    assert sum(evaluated < charged for charged, evaluated in rows_seen)

    symmetric = {name: kernel.symmetric for name, kernel in kernels.items()}
    assert symmetric == {"and": True, "or": True, "top": False, "bot": False,
                         "both": True, "same": True, "guard": True, "pick": False}


@pytest.mark.parametrize("sig_name", sorted(ALL_SIGS))
def test_class_profiles_match_the_pair_definitions(sig_name):
    """Invariance violations and each depth's preorder, read off one
    transpose of the classes, against their per-pair definitions, on
    relations that are not asimulations."""
    sig = SIGS[sig_name]
    total = 0
    for k, m1, m2 in _pairs(6000 + len(sig_name), 6):
        theta = theta_of(m1, m2)
        classes = semantic_classes(sig, theta, 3, m1, m2, None)
        vecs, ends = formula.class_vectors(sig, theta, 3, m1, m2, None)
        profiles = asim._ClassProfiles(vecs, m1, m2)
        for rel in (asim.atom_preserving(m1, m2, theta), asim.full_relation(m1, m2)):
            want = sum(
                (c.vec1 >> m1.index_of(x)) & 1 and not (c.vec2 >> m2.index_of(y)) & 1
                for c in classes for x, y in rel.fwd
            ) + sum(
                (c.vec2 >> m2.index_of(y)) & 1 and not (c.vec1 >> m1.index_of(x)) & 1
                for c in classes for y, x in rel.bwd
            )
            assert profiles.violations(rel) == want, (sig_name, k)
            total += want
        # each depth's prefix, as the experiment reads it, and two cuts inside layers
        for end in sorted({1, len(classes) // 2, *ends}):
            holds = [(x, y) for i, x in enumerate(m1.domain) for j, y in enumerate(m2.domain)
                     if all(not (c.vec1 >> i) & 1 or (c.vec2 >> j) & 1 for c in classes[:end])]
            holds_back = [(y, x) for j, y in enumerate(m2.domain) for i, x in enumerate(m1.domain)
                          if all(not (c.vec2 >> j) & 1 or (c.vec1 >> i) & 1 for c in classes[:end])]
            assert profiles.preorder(end) == asim.CrossRelation(
                frozenset(holds), frozenset(holds_back)), (sig_name, k, end)
        assert profiles.preorder() == profiles.preorder(len(classes))
    assert total, sig_name

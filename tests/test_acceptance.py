"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance (exact counts, zero-violation requirements, trial
counts, wall-clock bounds) is pinned here.
"""

import random
import time
import zlib

from guardasim.asim import (
    CrossRelation,
    atom_preserving,
    invariance_check,
    is_asimulation,
    largest_asimulation,
    preservation_relation,
)
from guardasim.boolfn import (
    DiagonalValue,
    TABLE_AND_NOT,
    TABLE_IMPLIES,
    TABLE_NOT_P1_2,
    TABLE_P1_2,
    TruthTable,
    apply_substitution,
    classify,
    diagonal,
    ftf_substitution,
    monotone_lattice_expr,
    non_ftf_dnf,
    non_tft_cnf,
    rest_projections,
    tft_substitution,
)
from guardasim.connective import FragmentSignature, modality_collapse, unify_args
from guardasim.formula import eval_fo, eval_fragment, semantic_classes, std_translate
from guardasim.model import load, random_model
from guardasim.syntax import Apply, Atom

from helpers import (
    ALL_SIGS,
    random_fragment_formula,
    random_preorder,
    sig_intuitionistic,
    sig_modal,
    sig_modal_intuitionistic,
    theta_of,
)
from oracles import brute_class, intuitionistic_clause_largest, partition_refinement_bisim


def report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'} ({elapsed:5.1f}s) {detail}")


def all_tables(arity):
    for bits in range(1 << (1 << arity)):
        yield TruthTable(arity, bits)


def test_criterion_1_taxonomy_exhaustive_and_sampled():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for arity in range(4):
        for t in all_tables(arity):
            got = classify(t)
            want = brute_class(t)
            checked += 1
            if any(getattr(got, k) != v for k, v in want.items()):
                mismatches += 1
    rng = random.Random(1)
    for _ in range(10_000):
        t = TruthTable(4, rng.randrange(1 << 16))
        got = classify(t)
        want = brute_class(t)
        checked += 1
        if any(getattr(got, k) != v for k, v in want.items()):
            mismatches += 1
    counts = {"mono": 0, "anti": 0, "const": 0, "rest": 0}
    for t in all_tables(3):
        c = classify(t)
        counts["mono"] += c.is_monotone
        counts["anti"] += c.is_antimonotone
        counts["const"] += c.is_constant
        counts["rest"] += c.is_rest
    counts_ok = counts == {"mono": 20, "anti": 20, "const": 2, "rest": 218}
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and counts_ok and elapsed < 10.0
    report(1, ok, elapsed, f"{checked} tables, {mismatches} mismatches, arity-3 census {counts}")
    assert mismatches == 0 and counts_ok
    assert elapsed < 10.0


def test_criterion_2_no_rest_function_avoids_both_chain_kinds():
    start = time.perf_counter()
    offenders = 0
    checked = 0
    for arity in range(5):
        for t in all_tables(arity):
            c = classify(t)
            checked += 1
            if c.is_rest and not c.is_tft and not c.is_ftf:
                offenders += 1
    elapsed = time.perf_counter() - start
    ok = offenders == 0 and elapsed < 60.0
    report(2, ok, elapsed, f"{checked} tables through arity 4, {offenders} offenders")
    assert offenders == 0
    assert elapsed < 60.0


def _check_constructions(f: TruthTable) -> int:
    """All applicable constructive forms, verified bitwise; returns checks done."""
    c = classify(f)
    done = 0
    if not c.is_constant and (c.is_monotone or c.is_antimonotone):
        form = monotone_lattice_expr(f)
        target = f if c.is_monotone else f.complement()
        assert form.dnf_table(f.arity) == target
        assert not form.negative
        done += 1
        want = DiagonalValue.P1 if c.is_monotone else DiagonalValue.NOT_P1
        assert diagonal(f) is want
        done += 1
    if c.is_tft:
        assert apply_substitution(f, tft_substitution(f)) == TABLE_IMPLIES
        done += 1
    if c.is_ftf:
        assert apply_substitution(f, ftf_substitution(f)) == TABLE_AND_NOT
        done += 1
    if c.is_rest:
        to_p1, to_not_p1 = rest_projections(f)
        assert apply_substitution(f, to_p1) == TABLE_P1_2
        assert apply_substitution(f, to_not_p1) == TABLE_NOT_P1_2
        done += 1
    if not c.is_constant and not c.is_ftf:
        assert non_ftf_dnf(f).dnf_table(f.arity) == f
        done += 1
    if not c.is_constant and not c.is_tft:
        assert non_tft_cnf(f).cnf_table(f.arity) == f
        done += 1
    return done


def test_criterion_3_constructions_reproduce_targets():
    start = time.perf_counter()
    checks = 0
    for arity in range(4):
        for f in all_tables(arity):
            checks += _check_constructions(f)
    rng = random.Random(3)
    for _ in range(1000):
        arity = rng.choice((4, 5, 6))
        f = TruthTable(arity, rng.randrange(1 << (1 << arity)))
        checks += _check_constructions(f)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(3, ok, elapsed, f"{checks} constructive-form verifications, zero failures")
    assert elapsed < 60.0


def test_criterion_4_translation_round_trip():
    start = time.perf_counter()
    rng = random.Random(4)
    sigs = [fn() for fn in ALL_SIGS.values()]
    mismatches = 0
    cases = 0
    for trial in range(500):
        sig = sigs[trial % len(sigs)]
        m = random_model(
            rng.randint(1, 6), ["R1", "R2", "R3"], ["P1", "P2"], 0.35, 0.5, 10_000 + trial
        )
        f = random_fragment_formula(sig, ["P1", "P2"], 3, rng)
        phi = std_translate(f, "x", sig)
        cases += 1
        for w in m.domain:
            if eval_fragment(m, w, f, sig) != eval_fo(m, {"x": w}, phi):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(4, ok, elapsed, f"{cases} seeded cases, {mismatches} mismatches")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_5_modality_distributivity():
    start = time.perf_counter()
    modalities = {
        "m_box1": "forall[R1]{ p1 }",
        "m_box2": "forall[R1,R2]{ p1 }",
        "m_boxneg": "forall[R1,R2]{ ~p1 }",
        "m_boxor": "forall[R1]{ p1 | p2 }",
        "m_dia1": "exists[R1]{ p1 }",
        "m_dia2": "exists[R1,R2]{ p1 }",
        "m_dianeg": "exists[R1]{ ~p1 }",
        "m_dianand": "exists[R1,R2]{ ~(p1 & p2) }",
    }
    sig = FragmentSignature.from_dict({"connectives": modalities})

    def fold(name, parts):
        out = parts[0]
        for p in parts[1:]:
            out = Apply(name, (out, p))
        return out

    atoms = [Atom("P1"), Atom("P2"), Atom("P3")]
    rng = random.Random(5)
    mismatches = 0
    points = 0
    for trial in range(200):
        m = random_model(rng.randint(1, 4), ["R1", "R2"], ["P1", "P2", "P3"], 0.4, 0.5, 20_000 + trial)
        u = rng.randint(1, 3)
        psis = atoms[:u]
        for name in modalities:
            mu = sig.get(name)
            quant = mu.blocks[0].quantifier
            mode = "conjunction" if quant == "forall" else "disjunction"
            outer = "and" if quant == "forall" else "or"
            # single-argument unification (one formula per slot)
            uni = unify_args(mu, atoms[: mu.arity])
            plain = Apply(name, tuple(atoms[: mu.arity]))
            collapsed = modality_collapse(mu, psis, mode)
            folded = fold(outer, [Apply(name, (p,) * mu.arity) for p in psis])
            for w in m.domain:
                points += 1
                if eval_fragment(m, w, uni, sig) != eval_fragment(m, w, plain, sig):
                    mismatches += 1
                if eval_fragment(m, w, collapsed, sig) != eval_fragment(m, w, folded, sig):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(5, ok, elapsed, f"{points} evaluation points over 200 models, {mismatches} mismatches")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_6_invariance_under_largest_asimulation():
    start = time.perf_counter()
    violations = 0
    formulas_checked = 0
    fo_spot_checks = 0
    for sig_name, sig_fn in ALL_SIGS.items():
        sig = sig_fn()
        rng = random.Random(zlib.crc32(sig_name.encode()) % 1000)
        for trial in range(100):
            m1 = random_model(
                rng.randint(1, 6), ["R1", "R2", "R3"], ["P1", "P2"], 0.35, 0.5, 30_000 + trial
            )
            m2 = random_model(
                rng.randint(1, 6), ["R1", "R2", "R3"], ["P1", "P2"], 0.35, 0.5, 40_000 + trial
            )
            theta = theta_of(m1, m2)
            big = largest_asimulation(sig, theta, m1, m2)
            if big.is_empty:
                continue
            classes = semantic_classes(sig, theta, 3, m1, m2, budget=500_000)
            for cls in classes:
                formulas_checked += 1
                for (x, y) in big.fwd:
                    if (cls.vec1 >> m1.index_of(x)) & 1 and not (cls.vec2 >> m2.index_of(y)) & 1:
                        violations += 1
                for (y, x) in big.bwd:
                    if (cls.vec2 >> m2.index_of(y)) & 1 and not (cls.vec1 >> m1.index_of(x)) & 1:
                        violations += 1
            # Spot-check a few formulas through the first-order route too.
            for cls in classes[:3]:
                phi = std_translate(cls.formula, "x", sig)
                if invariance_check(phi, big, m1, m2) is not None:
                    violations += 1
                fo_spot_checks += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    report(
        6, ok, elapsed,
        f"{formulas_checked} formula classes + {fo_spot_checks} first-order spot checks, "
        f"{violations} violations",
    )
    assert violations == 0
    assert elapsed < 300.0


def _curated_pairs():
    """30 deterministic model pairs with at most 4 elements each."""
    pairs = []
    # handcrafted shapes
    chain = load({"domain": ["a", "a2"], "relations": {"R1": [["a", "a2"]]},
                  "predicates": {"P1": ["a2"]}})
    point = load({"domain": ["b"], "relations": {}, "predicates": {}})
    loop = load({"domain": ["u"], "relations": {"R1": [["u", "u"]]}, "predicates": {"P1": ["u"]}})
    cycle = load({"domain": ["c", "d"], "relations": {"R1": [["c", "d"], ["d", "c"]]},
                  "predicates": {"P1": ["c"]}})
    fork = load({"domain": ["r", "s", "t"],
                 "relations": {"R1": [["r", "s"], ["r", "t"]]},
                 "predicates": {"P1": ["s"], "P2": ["t"]}})
    pairs.append(("modal", chain, point))
    pairs.append(("modal", loop, cycle))
    pairs.append(("modal", fork, chain))
    pairs.append(("intuitionistic", loop, loop))
    rng = random.Random(7)
    for sig_name in ("intuitionistic", "modal", "modal_intuitionistic"):
        need = 10 - sum(1 for name, *_ in pairs if name == sig_name)
        for k in range(need):
            seed = 60_000 + 100 * len(pairs) + k
            if sig_name == "intuitionistic":
                m1 = random_preorder(rng.randint(1, 4), ["P1", "P2"], 0.35, 0.5, seed)
                m2 = random_preorder(rng.randint(1, 4), ["P1", "P2"], 0.35, 0.5, seed + 17)
            else:
                m1 = random_model(rng.randint(1, 4), ["R1", "R2", "R3"], ["P1", "P2"],
                                  0.35, 0.5, seed)
                m2 = random_model(rng.randint(1, 4), ["R1", "R2", "R3"], ["P1", "P2"],
                                  0.35, 0.5, seed + 17)
            pairs.append((sig_name, m1, m2))
    return pairs


def test_criterion_7_preservation_sandwich():
    start = time.perf_counter()
    pairs = _curated_pairs()
    assert len(pairs) == 30
    passed = 0
    for sig_name, m1, m2 in pairs:
        sig = ALL_SIGS[sig_name]()
        theta = theta_of(m1, m2)
        big = largest_asimulation(sig, theta, m1, m2)
        hit = None
        for depth in range(7):
            pres = preservation_relation(sig, theta, m1, m2, depth, budget=500_000)
            assert big.subset_of(pres), f"containment fails at depth {depth}"
            if pres == big:
                hit = depth
                break
        if hit is not None:
            passed += 1
    elapsed = time.perf_counter() - start
    ok = passed == 30 and elapsed < 600.0
    report(7, ok, elapsed, f"{passed}/30 reach equality by depth 6")
    assert passed == 30
    assert elapsed < 600.0


def test_criterion_8_modal_signature_matches_bisimilarity():
    start = time.perf_counter()
    sig = sig_modal()
    rng = random.Random(8)
    agree = 0
    for trial in range(50):
        m1 = random_model(rng.randint(1, 8), ["R1"], ["P1", "P2"], 0.3, 0.5, 70_000 + trial)
        m2 = random_model(rng.randint(1, 8), ["R1"], ["P1", "P2"], 0.3, 0.5, 80_000 + trial)
        theta = theta_of(m1, m2)
        big = largest_asimulation(sig, theta, m1, m2)
        want = partition_refinement_bisim(m1, m2, theta)
        if big.fwd == want and big.bwd == frozenset((b, a) for (a, b) in want):
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == 50 and elapsed < 60.0
    report(8, ok, elapsed, f"{agree}/50 pairs agree with partition refinement")
    assert agree == 50
    assert elapsed < 60.0


def test_criterion_9_intuitionistic_signature_matches_clause_oracle():
    start = time.perf_counter()
    sig = sig_intuitionistic()
    rng = random.Random(9)
    agree = 0
    for trial in range(50):
        m1 = random_preorder(rng.randint(1, 5), ["P1", "P2"], 0.3, 0.5, 90_000 + trial)
        m2 = random_preorder(rng.randint(1, 5), ["P1", "P2"], 0.3, 0.5, 95_000 + trial)
        theta = theta_of(m1, m2)
        if largest_asimulation(sig, theta, m1, m2) == intuitionistic_clause_largest(m1, m2, theta):
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == 50 and elapsed < 60.0
    report(9, ok, elapsed, f"{agree}/50 preorder pairs agree with the clause oracle")
    assert agree == 50
    assert elapsed < 60.0


def _prune_to_accepted(sig, theta, m1, m2, rel):
    while True:
        reports = is_asimulation(sig, theta, m1, m2, rel)
        if not reports:
            return rel
        drop_fwd = {r.pair for r in reports if r.pair and r.direction == "fwd"}
        drop_bwd = {r.pair for r in reports if r.pair and r.direction == "bwd"}
        if not drop_fwd and not drop_bwd:
            return None
        rel = CrossRelation(rel.fwd - drop_fwd, rel.bwd - drop_bwd)


def test_criterion_10_solver_soundness_and_maximality():
    start = time.perf_counter()
    sigs = [sig_modal(), sig_intuitionistic(), sig_modal_intuitionistic()]
    rng = random.Random(10)
    accepted = 0
    attempts = 0
    escapes = 0
    while accepted < 200 and attempts < 2000:
        attempts += 1
        sig = sigs[attempts % len(sigs)]
        m1 = random_model(rng.randint(1, 5), ["R1", "R2", "R3"], ["P1"], 0.35, 0.6,
                          100_000 + attempts)
        m2 = random_model(rng.randint(1, 5), ["R1", "R2", "R3"], ["P1"], 0.35, 0.6,
                          200_000 + attempts)
        theta = theta_of(m1, m2)
        big = largest_asimulation(sig, theta, m1, m2)
        if not big.is_empty:
            assert is_asimulation(sig, theta, m1, m2, big) == []
        ap = atom_preserving(m1, m2, theta)
        sub = CrossRelation(
            frozenset(p for p in sorted(ap.fwd) if rng.random() < 0.7),
            frozenset(p for p in sorted(ap.bwd) if rng.random() < 0.7),
        )
        got = _prune_to_accepted(sig, theta, m1, m2, sub)
        if got is None or got.is_empty:
            continue
        accepted += 1
        assert is_asimulation(sig, theta, m1, m2, got) == []
        if not got.subset_of(big):
            escapes += 1
    elapsed = time.perf_counter() - start
    ok = accepted == 200 and escapes == 0 and elapsed < 60.0
    report(
        10, ok, elapsed,
        f"{accepted} accepted subrelations from {attempts} attempts, {escapes} escaped the fixpoint",
    )
    assert accepted == 200
    assert escapes == 0
    assert elapsed < 60.0

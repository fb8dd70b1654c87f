"""Command-line surface.

Subcommands: classify-bool, classify-connective, translate, eval, check,
largest, distinguish, experiment.  Machine-readable JSON lines go to stdout
under --json; a human-readable summary always goes to stderr.  Exit codes:
0 ok, 1 semantic negative (violations, not related, false, none found),
2 malformed input, 3 unsupported fragment.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import sys

from . import asim, boolfn, connective, formula, model
from .asim import NonStandardFragmentError
from .syntax import fo_text, fragment_depth, fragment_text, free_vars
from .boolfn import BoolExprError
from .connective import ConnectiveError
from .formula import BudgetExceeded, FormulaError
from .model import ModelError

OK = 0
NEGATIVE = 1
INPUT_ERROR = 2
UNSUPPORTED = 3


def _emit(args, record: dict, human: str) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
        print(human, file=sys.stderr)
    else:
        print(human)


def _load_sig(path: str) -> connective.FragmentSignature:
    return connective.FragmentSignature.from_file(path)


def _theta(*models: model.Model) -> list[str]:
    preds: set[str] = set()
    for m in models:
        preds |= set(m.predicates)
    return sorted(preds)


def _require(value, message: str) -> None:
    """A missing flag is malformed input."""
    if value is None:
        raise ValueError(message)


def _require_standard(sig: connective.FragmentSignature) -> None:
    problems = connective.validate_standard_fragment(sig)
    if problems:
        raise NonStandardFragmentError("; ".join(problems))


def cmd_classify_bool(args) -> int:
    table = boolfn.from_expr(args.expr)
    cls = boolfn.classify(table)
    record = {
        "arity": table.arity,
        "outputs": [int(b) for b in table.outputs],
        **{k: getattr(cls, k) for k in (
            "is_constant", "is_monotone", "is_antimonotone", "is_rest",
            "is_tft", "is_ftf", "forall_special", "exists_special",
            "weakly_forall_special", "weakly_exists_special",
        )},
    }
    forms = {}
    if not cls.is_constant and not cls.is_rest:
        forms["lattice_dnf"] = boolfn.monotone_lattice_expr(table).dnf_text()
    forms["diagonal"] = boolfn.diagonal(table).value
    if cls.is_tft:
        forms["to_implication"] = [s.text() for s in boolfn.tft_substitution(table).entries]
    if cls.is_ftf:
        forms["to_and_not"] = [s.text() for s in boolfn.ftf_substitution(table).entries]
    if cls.is_rest:
        to_p1, to_not_p1 = boolfn.rest_projections(table)
        forms["to_p1"] = [s.text() for s in to_p1.entries]
        forms["to_not_p1"] = [s.text() for s in to_not_p1.entries]
    if not cls.is_constant and not cls.is_ftf:
        forms["two_sided_dnf"] = boolfn.non_ftf_dnf(table).dnf_text()
    if not cls.is_constant and not cls.is_tft:
        forms["two_sided_cnf"] = boolfn.non_tft_cnf(table).cnf_text()
    record["forms"] = forms

    kinds = []
    if cls.is_constant:
        kinds.append("constant")
    if cls.is_monotone and not cls.is_constant:
        kinds.append("monotone")
    if cls.is_antimonotone and not cls.is_constant:
        kinds.append("anti-monotone")
    if cls.is_rest:
        kinds.append("rest")
    if cls.is_tft:
        kinds.append("TFT")
    if cls.is_ftf:
        kinds.append("FTF")
    if cls.forall_special:
        kinds.append("forall-special")
    if cls.exists_special:
        kinds.append("exists-special")
    human = f"arity {table.arity}: {', '.join(kinds)}"
    for key, val in forms.items():
        human += f"\n  {key}: {val}"
    _emit(args, record, human)
    return OK


def cmd_classify_connective(args) -> int:
    if args.spec:
        mu = connective.parse_connective(args.spec, name=args.name or "mu")
    else:
        _require(args.fragment, "classify-connective needs --spec or --fragment")
        sig = _load_sig(args.fragment)
        mu = sig.get(args.name)
    cls = connective.classify_connective(mu)
    record = {
        "name": mu.name,
        "arity": mu.arity,
        "degree": cls.degree,
        "prefix": cls.nu_prefix,
        "is_flat": cls.is_flat,
        "is_modality": cls.is_modality,
        "is_special": cls.is_special,
        "is_weakly_special": cls.is_weakly_special,
        "is_regular": cls.is_regular,
        "is_standard": cls.is_standard,
        "normalized": connective.connective_text(connective.normalize(mu)),
    }
    flags = [k for k in ("is_flat", "is_modality", "is_special", "is_regular", "is_standard") if record[k]]
    human = f"{mu.name}: arity {mu.arity}, degree {cls.degree}, {' '.join(flags) or 'non-standard'}"
    _emit(args, record, human)
    return OK


def cmd_translate(args) -> int:
    sig = _load_sig(args.fragment)
    frag = formula.parse_fragment(args.formula, sig)
    fo = formula.std_translate(frag, args.var, sig)
    text = fo_text(fo)
    _emit(args, {"formula": args.formula, "translation": text}, text)
    return OK


def cmd_eval(args) -> int:
    m = model.load_file(args.model)
    if args.formula:
        _require(args.fragment, "eval --formula needs --fragment")
        sig = _load_sig(args.fragment)
        frag = formula.parse_fragment(args.formula, sig)
        value = formula.eval_fragment(m, args.world, frag, sig)
    else:
        _require(args.fo_formula, "eval needs --formula or --fo-formula")
        phi = formula.parse_fo(args.fo_formula)
        fv = sorted(free_vars(phi))
        if len(fv) > 1:
            raise FormulaError(f"formula has several free variables: {fv}")
        assignment = {fv[0]: args.world} if fv else {}
        value = formula.eval_fo(m, assignment, phi)
    _emit(args, {"world": args.world, "value": value}, "true" if value else "false")
    return OK if value else NEGATIVE


def cmd_check(args) -> int:
    sig = _load_sig(args.fragment)
    _require_standard(sig)
    m1 = model.load_file(args.m1)
    m2 = model.load_file(args.m2)
    with open(args.relation, "r", encoding="utf-8") as fh:
        rel = asim.relation_from_doc(json.load(fh), m1, m2)
    theta = _theta(m1, m2)
    reports = asim.is_asimulation(sig, theta, m1, m2, rel)
    for rep in reports:
        print(json.dumps(rep.to_doc(), sort_keys=True))
    summary = "ok: the relation is an asimulation" if not reports else (
        f"{len(reports)} violation(s)"
    )
    print(summary, file=sys.stderr)
    return OK if not reports else NEGATIVE


def cmd_largest(args) -> int:
    sig = _load_sig(args.fragment)
    _require_standard(sig)
    m1 = model.load_file(args.m1)
    m2 = model.load_file(args.m2)
    theta = _theta(m1, m2)
    rel = asim.largest_asimulation(sig, theta, m1, m2)
    record = rel.to_doc()
    verdict = None
    if args.point1 is not None and args.point2 is not None:
        if args.point1 not in m1 or args.point2 not in m2:
            raise ModelError("verdict points must lie in the respective domains")
        related = (args.point1, args.point2) in rel.fwd
        verdict = "related" if related else "not related"
        record["verdict"] = verdict
    if rel.is_empty:
        record["status"] = "no asimulation exists between these models for this fragment"
    print(json.dumps(record, sort_keys=True))
    human = f"fwd {len(rel.fwd)} pair(s), bwd {len(rel.bwd)} pair(s)"
    if record.get("status"):
        human += f"; {record['status']}"
    if verdict:
        human += f"; verdict: {verdict}"
    print(human, file=sys.stderr)
    if verdict is not None:
        return OK if verdict == "related" else NEGATIVE
    return OK if not rel.is_empty else NEGATIVE


def cmd_distinguish(args) -> int:
    sig = _load_sig(args.fragment)
    _require_standard(sig)
    m1 = model.load_file(args.m1)
    m2 = model.load_file(args.m2)
    pm1 = model.PointedModel(m1, args.point1)
    pm2 = model.PointedModel(m2, args.point2)
    try:
        found = formula.distinguishing_formula(sig, pm1, pm2, args.depth, budget=args.budget)
    except BudgetExceeded as e:
        raise ValueError(f"--budget {args.budget} exhausted after {e.checked} candidates") from None
    if found is None:
        _emit(args, {"formula": None}, f"none within depth {args.depth}")
        return NEGATIVE
    text = fragment_text(found)
    _emit(args, {"formula": text}, text)
    return OK


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_INT = ("an integer", _is_int)
_NUMBER = ("a number", lambda v: _is_int(v) or isinstance(v, float))
_NAMES = ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))
_BUDGET = ("an integer or null", lambda v: v is None or _is_int(v))
_PATH = ("a signature file path", lambda v: isinstance(v, str))


def _setting(conf: dict, key: str, default, kind) -> object:
    """A config value, or the flag's default, checked against its type."""
    value = conf.get(key, default)
    what, ok = kind
    if not ok(value):
        raise ValueError(f"experiment setting {key!r} must be {what}, got {json.dumps(value)}")
    return value


def cmd_experiment(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            conf = json.load(fh)
        if not isinstance(conf, dict):
            raise ValueError("experiment config: expected an object")
    else:
        conf = {}
    seed = _setting(conf, "seed", args.seed, _INT)
    trials = _setting(conf, "trials", args.trials, _INT)
    size_min = _setting(conf, "size_min", args.size_min, _INT)
    size_max = _setting(conf, "size_max", args.size_max, _INT)
    edge_prob = _setting(conf, "edge_prob", args.edge_prob, _NUMBER)
    pred_prob = _setting(conf, "pred_prob", args.pred_prob, _NUMBER)
    depth = _setting(conf, "depth", args.depth, _INT)
    budget = _setting(conf, "budget", args.budget, _BUDGET)
    fragment_path = _setting(conf, "fragment", args.fragment, _PATH)
    rel_symbols = _setting(conf, "relations", ["R1"], _NAMES)
    pred_symbols = _setting(conf, "predicates", ["P1", "P2"], _NAMES)
    if trials < 1 or size_min < 1 or size_max < size_min:
        raise ValueError("need trials >= 1 and 1 <= size_min <= size_max")

    sig = _load_sig(fragment_path)
    if not args.allow_nonstandard:
        _require_standard(sig)

    import random as _random

    overall_ok = True
    for t in range(trials):
        trial_seed = seed + t
        rng = _random.Random(trial_seed)
        n1 = rng.randint(size_min, size_max)
        n2 = rng.randint(size_min, size_max)
        m1 = model.random_model(n1, rel_symbols, pred_symbols, edge_prob, pred_prob, rng.randrange(1 << 30))
        m2 = model.random_model(n2, rel_symbols, pred_symbols, edge_prob, pred_prob, rng.randrange(1 << 30))
        theta = _theta(m1, m2)
        # The enumeration is over this finite atom list, a deliberate
        # restriction of the full predicate vocabulary.
        record = {"trial": t, "seed": trial_seed, "n1": n1, "n2": n2, "atoms": theta}
        try:
            rel = asim.largest_asimulation(sig, theta, m1, m2, strict=not args.allow_nonstandard)
            record["asim_fwd"] = len(rel.fwd)
            record["asim_bwd"] = len(rel.bwd)
            classes = formula.semantic_classes(sig, theta, depth, m1, m2, budget)
            record["classes"] = len(classes)
            violations = 0
            for cls in classes:
                for (x, y) in rel.fwd:
                    if (cls.vec1 >> m1.index_of(x)) & 1 and not (cls.vec2 >> m2.index_of(y)) & 1:
                        violations += 1
                for (y, x) in rel.bwd:
                    if (cls.vec2 >> m2.index_of(y)) & 1 and not (cls.vec1 >> m1.index_of(x)) & 1:
                        violations += 1
            record["invariance_violations"] = violations
            sandwich_depth = None
            for d in range(depth + 1):
                # The classes come out ordered by depth, and those of depth
                # <= d are the depth-d enumeration, so one enumeration serves
                # every d.
                end = bisect.bisect_right(classes, d, key=lambda c: fragment_depth(c.formula))
                pres = asim.class_preorder(classes[:end], m1, m2)
                if not rel.subset_of(pres):
                    record["containment_failure"] = d
                    break
                if pres == rel:
                    sandwich_depth = d
                    break
            record["sandwich_depth"] = sandwich_depth
            ok = violations == 0 and "containment_failure" not in record
            if args.allow_nonstandard:
                if sandwich_depth is None:
                    record["divergence"] = "preservation preorder differs from the fixpoint up to this depth"
            else:
                ok = ok and sandwich_depth is not None
            record["pass"] = ok
            overall_ok = overall_ok and ok
        except BudgetExceeded as e:
            record["budget_exhausted"] = e.checked
            record["pass"] = False
            overall_ok = False
        print(json.dumps(record, sort_keys=True))
    print(f"{'all trials passed' if overall_ok else 'some trials failed'}", file=sys.stderr)
    return OK if overall_ok else NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="guardasim", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-bool", help="classify a Boolean expression")
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_classify_bool)

    p = sub.add_parser("classify-connective", help="classify a guarded connective")
    p.add_argument("--spec", help="inline connective syntax, e.g. 'forall[R1]{ ~p1 | p2 }'")
    p.add_argument("--fragment", help="signature file to look the connective up in")
    p.add_argument("--name", help="connective name")
    p.set_defaults(func=cmd_classify_connective)

    p = sub.add_parser("translate", help="standard translation of a fragment formula")
    p.add_argument("--fragment", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--var", default="x")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("eval", help="evaluate a formula at a world")
    p.add_argument("--model", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--formula", help="fragment formula (needs --fragment)")
    p.add_argument("--fo-formula", dest="fo_formula", help="first-order formula")
    p.add_argument("--fragment")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="verify a relation is an asimulation")
    p.add_argument("--fragment", required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--relation", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("largest", help="compute the largest asimulation")
    p.add_argument("--fragment", required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--point1")
    p.add_argument("--point2")
    p.set_defaults(func=cmd_largest)

    p = sub.add_parser("distinguish", help="search for a distinguishing formula")
    p.add_argument("--fragment", required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--point1", required=True)
    p.add_argument("--point2", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("experiment", help="seeded random-model experiment harness")
    p.add_argument("--config", help="JSON config file; flags fill the gaps")
    p.add_argument("--fragment")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--size-min", dest="size_min", type=int, default=1)
    p.add_argument("--size-max", dest="size_max", type=int, default=4)
    p.add_argument("--edge-prob", dest="edge_prob", type=float, default=0.3)
    p.add_argument("--pred-prob", dest="pred_prob", type=float, default=0.5)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--allow-nonstandard", action="store_true",
                   help="run the harness on non-standard degree<=2 connectives and report divergences")
    p.set_defaults(func=cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and reused: parsing
    leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NonStandardFragmentError as e:
        print(f"unsupported fragment: {e}", file=sys.stderr)
        return UNSUPPORTED
    except (BoolExprError, ConnectiveError, FormulaError, ModelError,
            asim.RelationError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

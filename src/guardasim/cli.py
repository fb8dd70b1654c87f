"""Command-line surface.

Subcommands: classify-bool, classify-connective, translate, eval, check,
largest, distinguish, experiment.  Machine-readable JSON lines go to stdout
under --json; a human-readable summary always goes to stderr.  Exit codes:
0 ok, 1 semantic negative (violations, not related, false, none found),
2 malformed input, 3 unsupported fragment.

The model-pair commands check, largest and distinguish have one front door:
one parent parser declares --fragment, --m1 and --m2, and ``_pair_inputs``
reads the signature, refuses a non-standard one, then loads the two models.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import asim, boolfn, connective, formula, model
from .asim import NonStandardFragmentError
from .syntax import fo_text, fragment_text, free_vars
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


def _pair_inputs(args) -> tuple[connective.FragmentSignature, model.Model, model.Model, list[str]]:
    """The signature, the models and θ (the predicates to preserve) of a model-pair
    command, read in the order that picks the fault reported.  Both flags naming
    one file, however spelled or linked, give one model, so a model checked
    against itself is read once and its guard chains are built once."""
    sig = connective.FragmentSignature.from_file(args.fragment)
    asim._require_standard(sig)
    m1 = model.load_file(args.m1)
    m2 = m1 if os.path.samefile(args.m1, args.m2) else model.load_file(args.m2)
    return sig, m1, m2, formula._model_preds(m1, m2)


def _require(value, message: str) -> None:
    """A missing flag is malformed input."""
    if value is None:
        raise ValueError(message)


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
        _require(args.name, "classify-connective --fragment needs --name")
        sig = connective.FragmentSignature.from_file(args.fragment)
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
    # The translation is printed for the first-order parser to read back, so
    # the variable must be one token of its variable kind.
    token = formula._FO_TOKEN.fullmatch(args.var)
    if token is None or token.lastgroup != "name" or token.group("name") != args.var:
        raise ValueError(f"--var {args.var!r} is not a first-order variable name")
    sig = connective.FragmentSignature.from_file(args.fragment)
    frag = formula.parse_fragment(args.formula, sig)
    fo = formula.std_translate(frag, args.var, sig)
    text = fo_text(fo)
    _emit(args, {"formula": args.formula, "translation": text}, text)
    return OK


def cmd_eval(args) -> int:
    m = model.load_file(args.model)
    if args.world not in m:
        raise ModelError(f"--world: unknown element {args.world!r}")
    if args.formula:
        _require(args.fragment, "eval --formula needs --fragment")
        sig = connective.FragmentSignature.from_file(args.fragment)
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
    sig, m1, m2, theta = _pair_inputs(args)
    with open(args.relation, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    reports = asim.is_asimulation(sig, theta, m1, m2, doc)
    for rep in reports:
        print(json.dumps(rep.to_doc(), sort_keys=True))
    summary = "ok: the relation is an asimulation" if not reports else (
        f"{len(reports)} violation(s)"
    )
    print(summary, file=sys.stderr)
    return OK if not reports else NEGATIVE


def cmd_largest(args) -> int:
    if args.point1 is not None:
        _require(args.point2, "largest --point1 needs --point2")
    if args.point2 is not None:
        _require(args.point1, "largest --point2 needs --point1")
    sig, m1, m2, theta = _pair_inputs(args)
    if args.point1 is not None and (args.point1 not in m1 or args.point2 not in m2):
        raise ModelError("verdict points must lie in the respective domains")
    rel = asim.largest_asimulation(sig, theta, m1, m2)
    extra = {}
    verdict = None
    if args.point1 is not None:
        related = rel.relates(args.point1, args.point2)
        verdict = "related" if related else "not related"
        extra["verdict"] = verdict
    if rel.is_empty:
        extra["status"] = "no asimulation exists between these models for this fragment"
    print(rel.to_json(extra))
    human = f"fwd {rel.count(asim.FWD)} pair(s), bwd {rel.count(asim.BWD)} pair(s)"
    if extra.get("status"):
        human += f"; {extra['status']}"
    if verdict:
        human += f"; verdict: {verdict}"
    print(human, file=sys.stderr)
    if verdict is not None:
        return OK if verdict == "related" else NEGATIVE
    return OK if not rel.is_empty else NEGATIVE


def cmd_distinguish(args) -> int:
    sig, m1, m2, theta = _pair_inputs(args)
    pm1 = model.PointedModel(m1, args.point1)
    pm2 = model.PointedModel(m2, args.point2)
    # a pair of the largest asimulation is separated at no depth (sandwich
    # theorem); a negative --depth is left for the enumeration to refuse
    related = args.depth >= 0 and asim.largest_asimulation(sig, theta, m1, m2).relates(
        args.point1, args.point2)
    try:
        found = None if related else formula.distinguishing_formula(
            sig, pm1, pm2, args.depth, budget=args.budget)
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
# experiment's settings in the order they are checked; each flag is a default
_SETTINGS = {
    "seed": _INT, "trials": _INT, "size_min": _INT, "size_max": _INT, "edge_prob": _NUMBER,
    "pred_prob": _NUMBER, "depth": _INT, "budget": _BUDGET, "fragment": _PATH,
    "relations": _NAMES, "predicates": _NAMES,
}


def cmd_experiment(args) -> int:
    conf = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            conf = json.load(fh)
        if not isinstance(conf, dict):
            raise ValueError("experiment config: expected an object")
    # a config value overrides the flag of its name
    for key, (what, ok) in _SETTINGS.items():
        value = conf.pop(key, getattr(args, key))
        if not ok(value):
            raise ValueError(f"experiment setting {key!r} must be {what}, got {json.dumps(value)}")
        setattr(args, key, value)
    if conf:
        raise ValueError(f"experiment config: unknown keys {sorted(conf)}")
    if args.trials < 1 or args.size_min < 1 or args.size_max < args.size_min:
        raise ValueError("need trials >= 1 and 1 <= size_min <= size_max")

    sig = connective.FragmentSignature.from_file(args.fragment)
    if not args.allow_nonstandard:
        asim._require_standard(sig)

    import random as _random

    overall_ok = True
    for t in range(args.trials):
        trial_seed = args.seed + t
        rng = _random.Random(trial_seed)
        n1 = rng.randint(args.size_min, args.size_max)
        n2 = rng.randint(args.size_min, args.size_max)
        m1, m2 = (model.random_model(n, args.relations, args.predicates, args.edge_prob, args.pred_prob,
                                     rng.randrange(1 << 30)) for n in (n1, n2))
        theta = formula._model_preds(m1, m2)
        # The enumeration is over this finite atom list, a deliberate
        # restriction of the full predicate vocabulary.
        record = {"trial": t, "seed": trial_seed, "n1": n1, "n2": n2, "atoms": theta}
        try:
            rel = asim.largest_asimulation(sig, theta, m1, m2, strict=not args.allow_nonstandard)
            record["asim_fwd"] = rel.count(asim.FWD)
            record["asim_bwd"] = rel.count(asim.BWD)
            vecs, ends = formula.class_vectors(sig, theta, args.depth, m1, m2, args.budget)
            record["classes"] = len(vecs)
            # The classes come out ordered by depth, and those of depth <= d
            # are the depth-d enumeration, so one enumeration serves every d.
            preorders = asim._preorders(vecs, ends, m1, m2)
            # every class transfers along rel exactly when rel lies in the last preorder
            violations = 0 if rel.subset_of(preorders[-1]) else asim._violation_count(rel, vecs, m1, m2)
            record["invariance_violations"] = violations
            sandwich_depth = None
            for d, pres in enumerate(preorders):
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
    # --help shows the docstring up to its front-door paragraph
    parser = argparse.ArgumentParser(prog="guardasim", description=__doc__.partition("\n\nThe model-pair")[0])
    parser.add_argument("--json", action="store_true", help="machine-readable output on stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags every model-pair command takes
    pair = argparse.ArgumentParser(add_help=False)
    for flag in ("--fragment", "--m1", "--m2"):
        pair.add_argument(flag, required=True)

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

    p = sub.add_parser("check", parents=[pair], help="verify a relation is an asimulation")
    p.add_argument("--relation", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("largest", parents=[pair], help="compute the largest asimulation")
    p.add_argument("--point1")
    p.add_argument("--point2")
    p.set_defaults(func=cmd_largest)

    p = sub.add_parser("distinguish", parents=[pair], help="search for a distinguishing formula")
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
    p.set_defaults(func=cmd_experiment, relations=["R1"], predicates=["P1", "P2"])

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
    except (ValueError, OSError, RecursionError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

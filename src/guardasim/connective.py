"""Guarded connectives: alternating quantifier blocks over a Boolean core.

A connective of arity k is a chain of guard blocks (each a quantifier with
a non-empty relation path) wrapped around a k-ary truth table.  This module
classifies them (flat / modality / special / regular / standard), strips
the two constant-core collapses, translates applications into first-order
formulas, validates whole signatures, and provides the argument-unification
and junct-collapsing rewrites valid for degree-1 modalities.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .boolfn import (
    BoolClass,
    TABLE_AND,
    TABLE_BOT,
    TABLE_OR,
    TABLE_TOP,
    TruthTable,
    classify,
    from_expr,
    monotone_lattice_expr,
    non_ftf_dnf,
    non_tft_cnf,
)
from .syntax import (
    Apply,
    BOT,
    Exists,
    FoFormula,
    Forall,
    FragmentFormula,
    Implies,
    Not,
    RelAtom,
    TOP,
    all_vars,
    conjoin,
    disjoin,
    rename_free,
)

_REL_NAME = re.compile(r"^R[0-9]+$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_PRED_SHAPE = re.compile(r"^P[0-9]+$")


class ConnectiveError(ValueError):
    pass


@dataclass(frozen=True)
class GuardBlock:
    quantifier: str  # "forall" | "exists"
    guards: tuple[str, ...]

    def __post_init__(self):
        if self.quantifier not in ("forall", "exists"):
            raise ConnectiveError(f"unknown quantifier {self.quantifier!r}")
        if not self.guards:
            raise ConnectiveError("guard list must be non-empty")
        for g in self.guards:
            if not _REL_NAME.match(g):
                raise ConnectiveError(f"{g!r} is not a relation symbol (expected R<digits>)")


@dataclass(frozen=True)
class GuardedConnective:
    """Blocks are listed outermost first and must strictly alternate."""

    name: str = field(compare=False)
    arity: int
    blocks: tuple[GuardBlock, ...]
    core: TruthTable

    def __post_init__(self):
        if self.core.arity != self.arity:
            raise ConnectiveError(
                f"{self.name}: core arity {self.core.arity} != declared arity {self.arity}"
            )
        for outer, inner in zip(self.blocks, self.blocks[1:]):
            if outer.quantifier == inner.quantifier:
                raise ConnectiveError(f"{self.name}: adjacent blocks must alternate quantifiers")

    @property
    def degree(self) -> int:
        return len(self.blocks)


def ancestor(mu: GuardedConnective, i: int) -> GuardedConnective:
    """The connective obtained by keeping only the innermost i blocks;
    index 0 is the bare core."""
    if not 0 <= i < mu.degree:
        raise ConnectiveError(f"ancestor index {i} out of range for degree {mu.degree}")
    return GuardedConnective(
        name=f"{mu.name}^{i}",
        arity=mu.arity,
        blocks=mu.blocks[mu.degree - i:],
        core=mu.core,
    )


def normalize(mu: GuardedConnective) -> GuardedConnective:
    """Strip innermost forall-over-T and exists-over-F blocks; these wrappers
    never change the defined function."""
    blocks = mu.blocks
    full = (1 << mu.core.size) - 1
    is_top = mu.core.bits == full
    is_bot = mu.core.bits == 0
    while blocks:
        inner = blocks[-1]
        if (inner.quantifier == "forall" and is_top) or (
            inner.quantifier == "exists" and is_bot
        ):
            blocks = blocks[:-1]
        else:
            break
    if blocks == mu.blocks:
        return mu
    return GuardedConnective(name=mu.name, arity=mu.arity, blocks=blocks, core=mu.core)


@dataclass(frozen=True)
class ConnectiveClass:
    degree: int
    nu_prefix: str  # quantifier initials, outermost first: "A" / "E" per block
    core_class: BoolClass
    is_flat: bool
    is_modality: bool
    is_special: bool
    is_weakly_special: bool
    is_regular: bool
    is_standard: bool


def _q_special(cc: BoolClass, quantifier: str) -> bool:
    return cc.forall_special if quantifier == "forall" else cc.exists_special


def _weakly_q_special(cc: BoolClass, quantifier: str) -> bool:
    return cc.weakly_forall_special if quantifier == "forall" else cc.weakly_exists_special


# Classes by connective, each computed once per process (equality ignores names).
_CLASSES: dict[GuardedConnective, ConnectiveClass] = {}


def classify_connective(mu: GuardedConnective) -> ConnectiveClass:
    if mu in _CLASSES:
        return _CLASSES[mu]
    cc = classify(mu.core)
    d = mu.degree
    prefix = "".join("A" if b.quantifier == "forall" else "E" for b in mu.blocks)
    modality = not cc.is_constant and (cc.is_monotone or cc.is_antimonotone)
    special = d == 1 and _q_special(cc, mu.blocks[0].quantifier)
    weakly_special = d == 1 and _weakly_q_special(cc, mu.blocks[0].quantifier)
    # Regularity looks at the degree-1 ancestor, i.e. the innermost block.
    regular = (
        d >= 1
        and not cc.is_constant
        and _weakly_q_special(cc, mu.blocks[-1].quantifier)
    )
    flat = d <= 1
    got = _CLASSES[mu] = ConnectiveClass(
        degree=d,
        nu_prefix=prefix,
        core_class=cc,
        is_flat=flat,
        is_modality=modality,
        is_special=special,
        is_weakly_special=weakly_special,
        is_regular=regular,
        is_standard=flat or (d == 2 and regular),
    )
    return got


# -- parsing the connective syntax ------------------------------------------------

_BLOCK_RE = re.compile(r"\s*(forall|exists)\s*\[([^\[\]]*)\]")


def parse_connective(text: str, name: str = "mu") -> GuardedConnective:
    """Parse ``QBLOCK* "{" boolexpr "}"``, e.g. ``forall[R1] exists[R3]{ p1 }``."""
    if not isinstance(text, str):
        raise ConnectiveError(f"{name}: expected a connective string, got {type(text).__name__}")
    pos = 0
    blocks: list[GuardBlock] = []
    while True:
        m = _BLOCK_RE.match(text, pos)
        if not m:
            break
        guards = tuple(g.strip() for g in m.group(2).split(","))
        if guards == ("",):
            raise ConnectiveError(f"{name}: empty guard list in block")
        blocks.append(GuardBlock(m.group(1), guards))
        pos = m.end()
    rest = text[pos:].strip()
    if not (rest.startswith("{") and rest.endswith("}")):
        raise ConnectiveError(f"{name}: expected a {{...}} core, found {rest!r}")
    core = from_expr(rest[1:-1])
    return GuardedConnective(name=name, arity=core.arity, blocks=tuple(blocks), core=core)


def connective_text(mu: GuardedConnective) -> str:
    parts = [f"{b.quantifier}[{','.join(b.guards)}]" for b in mu.blocks]
    parts.append("{ " + core_table_text(mu.core) + " }")
    return " ".join(parts)


def core_table_text(f: TruthTable) -> str:
    """A readable expression for a core table, preferring clause forms."""
    cc = classify(f)
    if cc.is_constant:
        return "T" if f.bits else "F"
    if not cc.is_ftf:
        return non_ftf_dnf(f).dnf_text()
    if not cc.is_tft:
        return non_tft_cnf(f).cnf_text()
    terms = []
    for i in range(f.size):
        if f.value_at(i):
            coords = f.coordinates(i)
            lits = [f"p{k}" if v else f"~p{k}" for k, v in enumerate(coords, start=1)]
            terms.append("(" + " & ".join(lits) + ")")
    return " | ".join(terms)


# -- signatures -------------------------------------------------------------------

BUILTIN_SPECS = {
    "and": "{ p1 & p2 }",
    "or": "{ p1 | p2 }",
    "top": "{ T }",
    "bot": "{ F }",
}


class FragmentSignature:
    """A finite named set of guarded connectives.

    Connectives are normalized on construction.  The lattice built-ins
    ``and``, ``or``, ``top``, ``bot`` are injected unless the source
    defines those names itself.
    """

    def __init__(self, connectives: Mapping[str, GuardedConnective], include_builtins: bool = True):
        table: dict[str, GuardedConnective] = {}
        if include_builtins:
            for bname, spec in BUILTIN_SPECS.items():
                table[bname] = parse_connective(spec, name=bname)
        for cname, mu in connectives.items():
            if not _NAME.match(cname):
                raise ConnectiveError(f"{cname!r} is not a valid connective name")
            if _PRED_SHAPE.match(cname):
                raise ConnectiveError(f"{cname!r} clashes with predicate-atom syntax")
            table[cname] = normalize(
                mu if mu.name == cname
                else GuardedConnective(cname, mu.arity, mu.blocks, mu.core)
            )
        self._table = table

    @classmethod
    def from_dict(cls, doc: Mapping, include_builtins: bool = True) -> "FragmentSignature":
        specs = doc.get("connectives") if isinstance(doc, Mapping) else None
        if not isinstance(specs, Mapping):
            raise ConnectiveError('signature document needs a "connectives" object')
        conns = {name: parse_connective(spec, name=name) for name, spec in specs.items()}
        return cls(conns, include_builtins=include_builtins)

    @classmethod
    def from_file(cls, path: str, include_builtins: bool = True) -> "FragmentSignature":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls.from_dict(doc, include_builtins=include_builtins)

    def to_doc(self) -> dict:
        return {"connectives": {name: connective_text(self._table[name]) for name in self.names()}}

    def names(self) -> list[str]:
        return sorted(self._table)

    def get(self, name: str) -> GuardedConnective:
        try:
            return self._table[name]
        except KeyError:
            raise ConnectiveError(f"unknown connective {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __iter__(self) -> Iterator[GuardedConnective]:
        for name in self.names():
            yield self._table[name]

    def __len__(self) -> int:
        return len(self._table)


def validate_standard_fragment(sig: FragmentSignature) -> list[str]:
    """Empty list when the signature generates a standard fragment; otherwise
    one message per offending connective or missing lattice built-in."""
    violations = []
    for mu in sig:
        if normalize(mu) != mu:
            violations.append(f"{mu.name}: not normalized (constant-core wrapper block)")
            continue
        cls = classify_connective(mu)
        if cls.is_standard:
            continue
        if mu.degree > 2:
            violations.append(f"{mu.name}: degree {mu.degree} exceeds the standard forms")
        else:
            violations.append(
                f"{mu.name}: degree-2 connective is not regular "
                "(constant core or innermost block fails weak specialness)"
            )
    def has(core: TruthTable) -> bool:
        return any(mu.degree == 0 and mu.core == core for mu in sig)

    for core, what in (
        (TABLE_AND, "conjunction (p1 & p2)"),
        (TABLE_OR, "disjunction (p1 | p2)"),
        (TABLE_TOP, "verum (T)"),
        (TABLE_BOT, "falsum (F)"),
    ):
        if not has(core):
            violations.append(f"signature: missing degree-0 {what}")
    return violations


# -- standard translation -----------------------------------------------------------

def _max_numbered_var(names: Iterable[str]) -> int:
    best = 1
    for v in names:
        m = re.fullmatch(r"x([0-9]+)", v)
        if m:
            best = max(best, int(m.group(1)))
    return best


def core_expr(core: TruthTable, args: Sequence[FoFormula]) -> FoFormula:
    """A first-order combination of ``args`` computing ``core``, preferring
    the clause forms and falling back to the row expansion."""
    if len(args) != core.arity:
        raise ConnectiveError(f"core arity {core.arity} != {len(args)} arguments")
    cc = classify(core)
    if cc.is_constant:
        return TOP if core.bits else BOT

    def pos_clause(clause, combine):
        return combine([args[k - 1] for k in sorted(clause)])

    def neg_clause(clause, combine):
        return combine([Not(args[k - 1]) for k in sorted(clause)])

    if not cc.is_ftf:
        form = non_ftf_dnf(core)
        parts = [pos_clause(c, conjoin) for c in sorted(form.positive, key=sorted)]
        parts += [neg_clause(c, conjoin) for c in sorted(form.negative, key=sorted)]
        return disjoin(parts)
    if not cc.is_tft:
        form = non_tft_cnf(core)
        parts = [pos_clause(c, disjoin) for c in sorted(form.positive, key=sorted)]
        parts += [neg_clause(c, disjoin) for c in sorted(form.negative, key=sorted)]
        return conjoin(parts)
    rows = []
    for i in range(core.size):
        if core.value_at(i):
            coords = core.coordinates(i)
            rows.append(
                conjoin([args[k] if v else Not(args[k]) for k, v in enumerate(coords)])
            )
    return disjoin(rows)


def std_translation(mu: GuardedConnective, args: Sequence[FoFormula], var: str) -> FoFormula:
    """The first-order formula applying ``mu`` to ``args`` at ``var``.

    Bound variables are x<k> numbered left to right across the blocks,
    starting above any numbered variable already present in the arguments,
    so nested translations never capture.
    """
    if len(args) != mu.arity:
        raise ConnectiveError(f"{mu.name}: expected {mu.arity} arguments, got {len(args)}")
    used = {var}
    for a in args:
        used |= all_vars(a)
    counter = _max_numbered_var(used) + 1

    def build(blocks: tuple[GuardBlock, ...], at: str) -> FoFormula:
        nonlocal counter
        if not blocks:
            return core_expr(mu.core, [rename_free(a, var, at) for a in args])
        block = blocks[0]
        chain_vars = []
        prev = at
        guard_atoms = []
        for g in block.guards:
            v = f"x{counter}"
            counter += 1
            guard_atoms.append(RelAtom(g, prev, v))
            chain_vars.append(v)
            prev = v
        body = build(blocks[1:], prev)
        path = conjoin(guard_atoms)
        if block.quantifier == "forall":
            out: FoFormula = Implies(path, body)
            for v in reversed(chain_vars):
                out = Forall(v, out)
        else:
            out = conjoin([path, body])
            out = Exists(chain_vars[-1], out)
            for v in reversed(chain_vars[:-1]):
                out = Exists(v, out)
        return out

    # Degree-0 connectives translate to the bare core combination.
    if not mu.blocks:
        return core_expr(mu.core, [a for a in args])
    return build(mu.blocks, var)


# -- rewrites valid for degree-1 modalities ------------------------------------------

def _require_degree1_modality(mu: GuardedConnective) -> ConnectiveClass:
    cls = classify_connective(mu)
    if mu.degree != 1 or not cls.is_modality:
        raise ConnectiveError(f"{mu.name}: needs a degree-1 modality")
    return cls


def _fold(parts: Sequence[FragmentFormula], op_name: str) -> FragmentFormula:
    out = parts[0]
    for p in parts[1:]:
        out = Apply(op_name, (out, p))
    return out


def modality_collapse(
    mu: GuardedConnective,
    psis: Sequence[FragmentFormula],
    mode: str,
    and_name: str = "and",
    or_name: str = "or",
) -> FragmentFormula:
    """Collapse a conjunction/disjunction of one-argument-per-slot applications
    into a single application.

    For a universal block the conjunction of mu(psi_i,...,psi_i) equals mu
    applied to the conjunction (monotone core) or disjunction (anti-monotone
    core) of the psis; the existential block dualizes both choices.
    """
    cls = _require_degree1_modality(mu)
    if not psis:
        raise ConnectiveError("need at least one formula to collapse")
    quant = mu.blocks[0].quantifier
    expected_mode = "conjunction" if quant == "forall" else "disjunction"
    if mode != expected_mode:
        raise ConnectiveError(
            f"{mu.name}: a {quant} block collapses a {expected_mode}, not a {mode}"
        )
    if cls.core_class.is_monotone:
        op = and_name if quant == "forall" else or_name
    else:
        op = or_name if quant == "forall" else and_name
    folded = _fold(list(psis), op)
    return Apply(mu.name, (folded,) * mu.arity)


def unify_args(
    mu: GuardedConnective,
    psis: Sequence[FragmentFormula],
    and_name: str = "and",
    or_name: str = "or",
) -> FragmentFormula:
    """Rewrite mu(psi_1,...,psi_k) into mu(F,...,F) with a single argument F,
    the lattice combination of the psis taken from the core's clause form."""
    _require_degree1_modality(mu)
    if len(psis) != mu.arity:
        raise ConnectiveError(f"{mu.name}: expected {mu.arity} formulas, got {len(psis)}")
    form = monotone_lattice_expr(mu.core)
    clauses = sorted((tuple(sorted(c)) for c in form.positive))
    juncts = [_fold([psis[k - 1] for k in clause], and_name) for clause in clauses]
    combined = _fold(juncts, or_name)
    return Apply(mu.name, (combined,) * mu.arity)

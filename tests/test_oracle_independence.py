"""The oracles and the frozen references import from ``guardasim`` only what
is listed here: plain data types, exception types and the few helpers each
one names in its docstring.  A reference that imported the code it checks
would agree with it by construction, so any new import from the library
must be added here on purpose."""

import ast
import os

import pytest

TESTS = os.path.dirname(__file__)

ALLOWED = {
    "oracles.py": {
        "guardasim.asim": {"CrossRelation"},
        "guardasim.boolfn": {"Slot", "Substitution", "TruthTable", "apply_substitution"},
        "guardasim.model": {"Model"},
    },
    "reference_asim.py": {
        "guardasim.asim": {
            "BWD", "CoreCandidateKind", "CrossRelation", "FWD", "NonStandardFragmentError",
            "ViolationReport", "core_candidate_kind",
        },
        "guardasim.boolfn": {"BoolClass"},
        "guardasim.connective": {
            "ConnectiveError", "FragmentSignature", "GuardedConnective", "ancestor",
            "classify_connective", "validate_standard_fragment",
        },
        "guardasim.model": {"Model"},
    },
    "reference_boolfn.py": {
        "guardasim.boolfn": {"BoolClass", "MonotoneDnf", "Slot", "Substitution", "TruthTable"},
        "guardasim.syntax": {"And", "Bot", "FoFormula", "Not", "Or", "Top"},
    },
    "reference_formula.py": {
        "guardasim.bitrows": {"union"},
        "guardasim.connective": {"FragmentSignature", "GuardedConnective"},
        "guardasim.formula": {"BudgetExceeded", "SemanticClass"},
        "guardasim.model": {"Model"},
        "guardasim.syntax": {"Apply", "Atom", "FragmentFormula"},
    },
    "reference_parsers.py": {
        "guardasim.boolfn": {"BoolExprError", "MAX_ARITY", "TruthTable"},
        "guardasim.formula": {"FormulaError"},
        "guardasim.syntax": {
            "And", "Apply", "Atom", "Bot", "Exists", "FoFormula", "Forall", "FragmentFormula",
            "Implies", "Not", "Or", "PredAtom", "RelAtom", "Top",
        },
    },
    "reference_readers.py": {
        "guardasim.asim": {"BWD", "FWD", "RelationError"},
        "guardasim.model": {"ModelError"},
    },
}


def library_imports(path):
    """``{module: names}`` of every import from ``guardasim`` in the file, a
    whole-module import recorded as the name ``*``."""
    found = {}
    for node in ast.walk(ast.parse(open(path, encoding="utf-8").read(), path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "guardasim":
            found.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "guardasim":
                    found.setdefault(alias.name, set()).add("*")
    return found


def test_every_oracle_file_is_listed():
    names = {f for f in os.listdir(TESTS) if f.startswith("reference_") and f.endswith(".py")}
    assert names | {"oracles.py"} == set(ALLOWED)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_library_imports_are_the_allowed_ones(name):
    assert library_imports(os.path.join(TESTS, name)) == ALLOWED[name]

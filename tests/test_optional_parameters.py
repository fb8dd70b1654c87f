"""Every optional parameter of the library's public functions, and of the
public methods (``__init__`` included) of its public classes, with its
default.  A parameter that no caller sets is a second way in that nothing
exercises, so any new optional parameter, or a changed default, must be
added here on purpose."""

import importlib
import inspect
import pkgutil

import guardasim

LISTED = {
    "asim.ViolationReport.__init__": {"detail": ""},
    "asim.connective_condition": {"strict": True},
    "asim.is_asimulation": {"strict": True},
    "asim.largest_asimulation": {"strict": True},
    "asim.preservation_relation": {"budget": 1_000_000},
    "cli.main": {"argv": None},
    "connective.parse_connective": {"name": "mu"},
    "formula.class_vectors": {"budget": 1_000_000},
    "formula.distinguishing_formula": {"budget": 1_000_000},
    "formula.semantic_classes": {"budget": 1_000_000},
    "model.Model.__init__": {"relations": None, "predicates": None},
}


def optional_parameters(fn):
    """``{name: default}`` of the parameters of ``fn`` that have a default."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}


def public_callables():
    """``(dotted name, function)`` of each public function of each module
    and each public method or ``__init__`` a public class defines itself."""
    for info in pkgutil.iter_modules(guardasim.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"guardasim.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_optional_parameters_are_the_listed_ones():
    found = {}
    for name, fn in public_callables():
        optional = optional_parameters(fn)
        if optional:
            found[name] = optional
    assert found == LISTED


def test_inventory_reaches_methods_and_classmethods():
    # guard against a walk that silently misses a kind of member
    names = dict(public_callables())
    assert {"connective.FragmentSignature.__init__", "connective.FragmentSignature.from_file",
            "asim.CrossRelation.to_json", "model.Model.__init__"} <= set(names)

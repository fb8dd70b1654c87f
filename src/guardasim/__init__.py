"""guardasim: asimulation tools for guarded fragments of the correspondence
language over binary relations and unary predicates."""

from .boolfn import (
    BoolClass,
    BoolExprError,
    DiagonalValue,
    MonotoneDnf,
    Slot,
    Substitution,
    TruthTable,
    apply_substitution,
    classify,
    diagonal,
    from_expr,
    ftf_substitution,
    monotone_lattice_expr,
    non_ftf_dnf,
    non_tft_cnf,
    rest_projections,
    tft_substitution,
)
from .connective import (
    ConnectiveClass,
    ConnectiveError,
    FragmentSignature,
    GuardBlock,
    GuardedConnective,
    ancestor,
    classify_connective,
    connective_text,
    core_expr,
    modality_collapse,
    normalize,
    parse_connective,
    std_translation,
    unify_args,
    validate_standard_fragment,
)
from .model import Model, ModelError, PointedModel, load, load_file, loads, random_model, save
from .syntax import (
    Apply,
    Atom,
    FoFormula,
    FragmentFormula,
    fo_text,
    fragment_depth,
    fragment_text,
    free_vars,
)
from .formula import (
    BudgetExceeded,
    FormulaError,
    SemanticClass,
    class_vectors,
    distinguishing_formula,
    eval_fo,
    eval_fragment,
    fragment_truth_set,
    parse_fo,
    parse_fragment,
    semantic_classes,
    std_translate,
)
from .asim import (
    CoreCandidateKind,
    CrossRelation,
    NonStandardFragmentError,
    RelationError,
    ViolationReport,
    atom_preserving,
    connective_condition,
    core_candidate_kind,
    full_relation,
    invariance_check,
    is_asimulation,
    largest_asimulation,
    preservation_relation,
    relation_from_doc,
)

__version__ = "0.1.0"

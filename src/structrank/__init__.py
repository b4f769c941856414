"""Generic-rank analysis and robustness classification of structured systems.

A structured system of equations fixes which variables may appear in which
equations. Almost every system sharing a structure has the same Jacobian
rank, the same robust-or-fragile character, and solution sets of the same
dimension; this package computes those invariants exactly (bipartite
matching), certifies them numerically (randomized rank estimation), and
explores concrete solution sets (continuation and perturbation probes).

Public names resolve on first use (PEP 562), so importing the package loads
no submodule: numpy is imported only with ``polysys``, ``numrank`` or
``continuation``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "continuation": (
        "BranchEvent", "BranchPoint", "LocalDimension", "ManifoldProbeReport",
        "PerturbationProbe", "SolutionBranch", "local_dimension", "manifold_probe",
        "perturbation_probe", "trace_curve",
    ),
    "datasets": ("DATASETS", "Dataset", "dataset_names", "get_dataset"),
    "errors": (
        "ParseError", "StructrankError", "StructureError", "UnsupportedOperationError",
        "WrongDimensionError",
    ),
    "formats": ("parse_structure", "structure_from_json_dict", "structure_to_json_dict", "to_dot"),
    "numrank": (
        "CertificationReport", "RankTolerance", "certify_acr", "generic_rank_randomized",
        "matrix_space_rank", "numeric_rank", "rank_maximizer_sweep",
    ),
    "polysys": (
        "JacobianEvaluation", "PolyEquation", "StructuredPolySystem", "combine",
        "sample_system", "system_from_terms",
    ),
    "structural": (
        "KnockoutEntry", "RankReport", "classify", "knockout_sweep", "maximum_matching",
        "structural_rank",
    ),
    "structure": (
        "DerivedVariableSpec", "GeneralizedStructure", "StructurePattern", "SystemGraph",
        "effective_pattern", "graph_from_pattern", "knockout", "pattern_from_graph",
    ),
}
# Public name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    """Import the submodule defining ``name`` and cache the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value

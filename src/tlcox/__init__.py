"""Exact canonical bases, mu-coefficients and Jones-type traces for
Temperley-Lieb quotients of Hecke algebras over arbitrary Coxeter graphs."""

__version__ = "0.1.0"

# public name -> defining module; a module is imported on the first access to
# one of its names (PEP 562), so importing the package compiles nothing else
_EXPORTS = {
    "coxeter": ("CoxeterGraph", "GroupElement", "classify", "enumerate_elements",
                "parse_element", "preset"),
    "graphfile": ("parse_graph",),
    "hecke": ("HeckeAlgebra", "kl_tables"),
    "laurent": ("DeltaPoly", "LaurentPoly", "parse_poly"),
    "library": ("bruhat_leq", "coset_decompose", "dihedral_cbasis", "normal_form"),
    "stars": ("check_property_F", "check_property_S", "k_epsilon", "n_stat", "star",
              "star_reduction_paths"),
    "tl": ("TLAlgebra", "check_property_W", "coeff_tables"),
    "trace": ("PlanarDiagram", "TraceTable", "bipartite_coloring", "builtin_trace",
              "load_trace_table", "mu_from_trace", "mu_report", "verify_property_B"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value

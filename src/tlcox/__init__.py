"""Exact canonical bases, mu-coefficients and Jones-type traces for
Temperley-Lieb quotients of Hecke algebras over arbitrary Coxeter graphs."""

__version__ = "0.1.0"

# public name -> defining module; a module is imported on the first access to
# one of its names (PEP 562), so importing the package compiles nothing else
_EXPORTS = {
    "coxeter": ("CoxeterGraph", "GroupElement", "bruhat_leq", "classify",
                "coset_decompose", "enumerate_elements", "normal_form",
                "parse_element", "parse_graph", "preset"),
    "hecke": ("HeckeAlgebra", "kl_tables"),
    "laurent": ("DeltaPoly", "LaurentPoly", "parse_poly"),
    "stars": ("bipartite_coloring", "check_property_F", "check_property_S",
              "k_epsilon", "n_stat", "star", "star_reduction_paths"),
    "tl": ("TLAlgebra", "check_property_W", "coeff_tables", "dihedral_cbasis"),
    "trace": ("PlanarDiagram", "TraceTable", "builtin_trace", "load_trace_table",
              "mu_from_trace", "mu_report", "verify_property_B"),
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

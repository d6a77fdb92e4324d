"""Exact-arithmetic engine for the bounded-height diagram algebra towers.

Gram matrices and determinants of standard modules, one-cup Chebyshev
series, Rollet branching graphs with the marginal-vertex identity, real
root certification for the determinant families, and bootstrap elements
certifying submodule embeddings at special parameter values.

The names below are loaded on first use (PEP 562), so importing the
package, or `kadaryu.cli` for a cached answer, loads no engine module.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "exactmath": ("Polynomial", "PolyMatrix", "Q"),
    "cheby": ("ChebSeries", "cheb_u", "quantum_number", "u_expansion"),
    "diagrams": ("half_basis", "one_cup_basis"),
    "gram": ("ModuleLabel", "factor_one_cup", "gram_det", "gram_matrix",
             "gram_mixed_det", "one_cup_det"),
    "rollet": ("RolletGraph", "arm_verify", "chebyshev_c", "dimension",
               "marginal_v", "tl_recursive_det"),
    "morphisms": ("XiElement", "divisibility_check", "solve_xi", "submodule_verify",
                  "xi_report", "xi_step"),
    "roots": ("lemma_roots_check",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Exact prime-power coefficient tables for type-C Weyl group multiple
Dirichlet series, built from symplectic Gelfand-Tsetlin patterns and Gauss
sums, with machine checks of the stable-case product formula and the n = 1
character identities."""

from importlib import import_module

_EXPORTS = {
    "chars": "character_gt deformation_D euler_product_n1 h_tilde_table hk_rhs"
             " verify_deformation_identity verify_euler_bridge"
             " verify_euler_factor_identity verify_h_tilde",
    "coeffs": "HTable gamma_a gamma_b h_table pattern_G verify_k_sum",
    "gauss": "ArithContext GaussValue gauss_brute gauss_eval numeric_eval",
    "laurent": "LaurentPoly",
    "patterns": "EntryRecord GTPattern enumerate_patterns interleave_bounds"
                " is_strict pair_entries",
    "roots": "LambdaTwist RootSystemC WeylElement build_root_system d_lambda"
             " phi_w stability_bound weyl_dimension",
    "stable": "h_stable k_of_weyl verify_stable_match",
    "tableaux": "ShiftedTableau TableauStats pattern_from_tableau"
                " tableau_from_pattern tableau_stats verify_tableau_stats",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    """Import on first use (PEP 562), without caching in this namespace."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Exact prime-power coefficient tables for type-C Weyl group multiple
Dirichlet series, built from symplectic Gelfand-Tsetlin patterns and Gauss
sums, with machine checks of the stable-case product formula and the n = 1
character identities."""

from .chars import (character_gt, character_weyl_oracle, deformation_D,
                    euler_product_n1, h_tilde_table, hk_rhs, weyl_dimension,
                    verify_deformation_identity, verify_euler_bridge,
                    verify_euler_factor_identity, verify_h_tilde)
from .coeffs import (HTable, gamma_a, gamma_b, h_table, pattern_G,
                     verify_k_sum)
from .gauss import (ArithContext, GaussValue, gauss_brute, gauss_eval,
                    numeric_eval)
from .laurent import LaurentPoly
from .patterns import (GTPattern, PatternData, classify_entry,
                       enumerate_patterns, is_stable, is_strict,
                       pattern_data, stable_pattern_for, stable_patterns,
                       weyl_from_stable)
from .roots import (LambdaTwist, RootSystemC, WeylElement, build_root_system,
                    d_lambda, inv_pr_counts, phi_w, s_action, stability_bound,
                    stability_min_n)
from .stable import (h_stable, k_of_weyl, maximal_count,
                     maximal_count_formula, phi_w_typed, verify_stable_match)
from .tableaux import (ShiftedTableau, TableauStats, pattern_from_tableau,
                       tableau_from_pattern, tableau_stats,
                       verify_tableau_stats)

__all__ = [name for name in dir() if not name.startswith("_")]

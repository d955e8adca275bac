"""Norms on discrete measure spaces, grand norms over exponent grids,
convex-conjugate tail bounds, and mixed Lq->Lp operator-norm verification."""

from .measure import (INFINITY, GridFunction, MeasureSpace, as_exponent,
                      grid_function_from_spec, is_infinite, load_grid_function,
                      lp_norm, lp_norm_table, tail_function)
from .genfun import (ExponentInterval, GeneratingFunction, constant_function,
                     generating_function_from_spec, make_boundary,
                     make_classical_grand, make_degenerate, make_power,
                     natural_function, restrict)
from .gls import (P_MAX, PGrid, SupResult, classical_grand_norm, default_grid,
                  exponent_grid, fundamental_function, gls_norm,
                  grid_from_points, sup_over_grid)
from .fenchel import (FenchelData, TailBoundReport, TailBoundRow, h_of_p,
                      tail_bound_check, young_fenchel)
from .opnorm import (AscentResult, ExtrapolationReport, MatrixOperator,
                     MinimalConstantResult, OperatorBoundCertificate,
                     SigmaConditionReport, apply, check_sigma_condition,
                     inv_exponent, minimal_constant, op_norm_lower,
                     op_norm_oracle, operator_from_spec, verify_theorem1)
from .magic import (ConventionReport, ConventionRow, MagicReport, MagicSquare,
                    check_super_exact, magic_norm_formula, make_doubly_even,
                    make_siamese, make_uniform_magic, square_from_spec,
                    square_to_spec, to_operator, validate_magic)
from .mri import (MRINorm, integral_mri_norm, mri_fundamental, mri_norm,
                  mri_norm_from_spec, sup_mri_norm, supp_ordering,
                  verify_theorem2)

__version__ = "0.1.0"

"""carlesonlab: curves, oscillating weights, variable norms, maximal operators.

A desk-scale numerical laboratory for weighted maximal-operator boundedness
on Carleson curves: curve generators with graded discretizations, continuous
argument branches and the weights built from them, submultiplicative index
estimation, Luxemburg norms and Muckenhoupt products, the weighted maximal
operator, decision predicates, and a reproducible experiment harness.
"""

from .argbranch import (ArgBranch, Weight, equivalent, export_weight_csv,
                        gamma_weight, phi, power_weight, unit_weight,
                        unwrap_arg)
from .criteria import (ERSATZ_BOUNDED, INDETERMINATE, KPS_BOUNDED,
                       MAIN_THM_BOUNDED, NECESSARY_VIOLATED, Verdict,
                       check_ersatz, check_kps, check_main,
                       select_delta_and_eps)
from .curves import (Curve, carleson_constant, d_t, default_carleson_grids,
                     from_points, generate_circle, generate_corner,
                     generate_graded_circle, generate_log_spiral,
                     generate_mixed_spirality, omega_arc)
from .errors import (AllAnnuliEmpty, BranchJump, CarlesonLabError, EmptyArc,
                     GridTooNarrow, NoAdmissibleDelta, NotLocallyIntegrable,
                     NumericalError, PreconditionError)
from .harness import (ExperimentConfig, ProbeReport, classify_trend,
                      gamma_rectangle, run_probe, run_sweep)
from .maximal import (MaximalEvaluator, MaximalResult, export_maximal_csv,
                      weighted_maximal)
from .norms import (ExponentField, constant_exponent, luxemburg_norm, modular,
                    muckenhoupt_ap, profile_exponent, tabulated_exponent)
from .submult import (IndexPair, SubmultSamples, compute_W, default_x_grid,
                      default_radius_grid, estimate_indices,
                      export_submult_csv, phi_indices_closed_form,
                      power_sandwich, spirality_indices)

__version__ = "0.1.0"

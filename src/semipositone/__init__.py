"""Numerical laboratory for semipositone biharmonic problems on R^N, N >= 5:
radial mountain-pass solves through Riesz potentials, hypothesis checkers,
and a-sweeps against the positone limit."""

from .radial_core import (RadialField, RadialGrid, h2_inner, integrate, laplacian,
                          make_grid, sphere_area)
from .nonlinearity import (NonlinearitySpec, ShiftedNonlinearity, CheckReport,
                           check_f1, check_f2, check_f3, check_f4,
                           critical_exponent, eval_Fa, eval_f0, eval_fa,
                           example_nonlinearity, growth_envelope,
                           linear_nonlinearity, power_nonlinearity)
from .weight import (WeightSpec, check_g1, check_g2, example_weight,
                     g2_left_side, sample_on_grid, table_weight)
from .riesz_potential import (apply_potential, riesz_r4, riesz_solve, ring_kernel,
                              ring_kernel_pairs)
from .energy import (GeometryConstants, GeometryError, estimate_a1,
                     estimate_bg, gradient_map, i_a, ray_levels)
from .mountain_pass import (MPConfig, MPSolution, find_vtilde, make_bump,
                            mp_solve, solve_shifts, vtilde_ladder)
from .sweep_cli import (Config, SweepReport, SweepRow, build_problem, emit,
                        parse_config, run_sweep)

__version__ = "0.1.0"

"""Radial nonlocal-diffusion free boundary problem: simulation and analysis.

The package covers the full pipeline for the radially symmetric
Fisher-KPP model with nonlocal dispersal and a free boundary:

* kernels / tables: radial kernels, their sphere and hyperplane
  transforms, grid discretizations with caching;
* eigen: principal eigenvalue of the linearized operator on a ball and
  the critical radius L_star;
* semiwave: the 1-D semi-wave profile and the spreading speed c0;
* solver: explicit time stepping of the free boundary problem,
  spreading/vanishing classification, the critical coefficient mu_star;
* fitting / sweep: asymptotic-law fits and parameter sweeps;
* cli: the `nlfb` command.
"""

__version__ = "0.1.0"

from .errors import (KernelValidationError, NlfbError, NumericalError,
                     SolvabilityError)
from .kernels import (RadialKernel, cosine_bump_kernel, custom_kernel,
                      j_star, j_tilde, j_tilde_row,
                      moment_identity_check, moment_n, power_tail_kernel,
                      uniform_kernel, unit_sphere_area, validate_kernel)
from .tables import KernelTables
from .reactions import Reaction, logistic, tabulated
from .eigen import (EigenProblem, EigenResult, find_L_star, lambda1,
                    lambda1_sweep, steady_state)
from .semiwave import (Marginal1D, SemiWaveProblem, SemiWaveSolution,
                       marginal_from_kernel, solve_semiwave, speed_from_kernel)
from .solver import (RunConfig, SimState, Trajectory, classify, find_mu_star,
                     run, step, SPREADING, VANISHING, UNDECIDED)
from .fitting import (FitResult, estimate_log_shift, estimate_power,
                      estimate_speed, estimate_t_log_t)
from .sweep import sweep

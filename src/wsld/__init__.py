"""High-order difference operators for Riemann-Liouville space-fractional
derivatives, with stable Crank-Nicolson/ADI diffusion solvers, a spectral
stability certifier and a convergence-study harness.
"""

from .coefficients import (
    CoefficientTable,
    DEFAULT_TUPLE,
    DegenerateTupleError,
    ShiftTuple,
    branch_weights,
    grunwald_coeffs,
    lubich_coeffs,
    stencil_coeffs,
    validate_order,
    weights_order2,
    weights_order3,
    weights_order4,
)
from .operators import (
    Grid1D,
    UnsupportedPowerError,
    apply_stencil,
    assemble_left,
    rl_exact_poly,
    table_for_grid,
)
from .spectral import (
    CERTIFIED_TUPLES,
    ROUNDOFF_ZERO,
    SpectralReport,
    certify,
    generating_function,
    generating_function_series,
    max_real_part_bound,
    quadratic_symbol_phase,
    scan_nonpositivity,
)
from .solvers import (
    ADI_VARIANTS,
    Problem1D,
    Problem2D,
    build_adi_factors,
    build_cn_system,
    solve_1d,
    solve_2d,
    step_adi,
)
from .verification import (
    ConvergenceTable,
    DOMAIN,
    ManufacturedCase,
    PROFILE_COEFFS,
    PROFILE_POWERS,
    convergence_study,
    manufactured_1d,
    manufactured_2d,
    max_error,
    observed_rate,
    profile,
)

__version__ = "0.1.0"

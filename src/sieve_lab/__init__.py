"""sieve-lab: numerical laboratory for large sieve constants with power moduli."""

from .arith import ApproxPair, dirichlet_approx
from .bounds import (
    BoundParams,
    CrossoverReport,
    FitResult,
    SHAPE_NAMES,
    crossover_analysis,
    evaluate_bounds,
    fit_exponent,
    shape_value,
)
from .errors import CapacityError, EigensolverError
from .expsums import (
    MajorantResult,
    fourier_majorant,
    min_sum,
    min_sum_bound,
    weyl_min_sum_bound,
    weyl_sum,
)
from .farey import (
    MODULUS_CAP,
    PowerFareySystem,
    count_near,
    counting_rhs,
    enumerate_system,
)
from .sieve import (
    CoefficientVector,
    ToeplitzKernel,
    dense_lambda_max,
    measure_constant,
    power_iteration,
    sigma_exact,
    toeplitz_kernel,
)

__version__ = "0.1.0"

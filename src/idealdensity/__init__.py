"""Natural, logarithmic and multiplicative densities of sets of integral
ideals in number fields of degree 1 and 2."""

from .density import (
    DensityReport,
    MultDensityState,
    a_limit,
    check_density_inequality,
    density_profile,
    finite_ie_density,
    multiplicative_density,
    restrict_family,
    sieve_multiples_density,
)
from .families import (
    AFamily,
    ExplicitFamily,
    NormIntervalFamily,
    PrimePowerFamily,
    parse_family,
)
from .fields import (
    NumberField,
    PrimeIdeal,
    analytic_residue_imag_quadratic,
    class_number_imag_quadratic,
    make_quadratic_field,
    make_rational_field,
    parse_field,
    primes_up_to_norm,
    split_prime,
)
from .ideals import (
    Ideal,
    NormCounter,
    count_ideals,
    divides,
    enumerate_ideals,
    ideal_count,
    ideal_counts,
    integer_ideal,
    intersect,
    make_ideal,
)
from .zeta import (
    dedekind_zeta,
    euler_products_at,
    harmonic_ideal_sum,
    mertens_ratio,
    mertens_target,
    partial_euler_product,
)

__version__ = "0.1.0"

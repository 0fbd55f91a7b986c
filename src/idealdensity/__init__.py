"""Natural, logarithmic and multiplicative densities of sets of integral
ideals in number fields of degree 1 and 2.

Submodules load on first use: ``import idealdensity`` imports none of
them, and a public name such as ``idealdensity.a_limit`` or a submodule
such as ``idealdensity.density`` imports its module when first read."""

import importlib

#: The submodule that defines each public name of the package namespace.
_HOME = {name: module for module, names in {
    "density": ("DensityReport", "MultDensityState", "a_limit",
                "check_density_inequality", "density_profile",
                "finite_ie_density", "multiplicative_density",
                "restrict_family", "sieve_multiples_density"),
    "families": ("AFamily", "ExplicitFamily", "NormIntervalFamily",
                 "PrimePowerFamily", "parse_family"),
    "fields": ("NumberField", "PrimeIdeal", "analytic_residue_imag_quadratic",
               "class_number_imag_quadratic", "make_quadratic_field",
               "make_rational_field", "parse_field", "primes_up_to_norm",
               "split_prime"),
    "ideals": ("Ideal", "NormCounter", "count_ideals", "divides",
               "enumerate_ideals", "ideal_count", "ideal_counts",
               "integer_ideal", "intersect", "make_ideal"),
    "zeta": ("dedekind_zeta", "euler_products_at", "harmonic_ideal_sum",
             "mertens_ratio", "mertens_target", "partial_euler_product"),
}.items() for name in names}

_SUBMODULES = ("cli", "density", "errors", "experiments", "families",
               "fields", "ideals", "zeta")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})

import random
import tracemalloc

import pytest

import idealdensity as idd


@pytest.fixture(scope="session")
def Q():
    return idd.make_rational_field()


@pytest.fixture(scope="session")
def Qi():
    return idd.make_quadratic_field(-1)


@pytest.fixture(scope="session")
def Q3():
    return idd.make_quadratic_field(-3)


def int_family(K, *ns):
    """Explicit family over Q from positive integers."""
    return idd.ExplicitFamily(
        field=K, members=tuple(idd.integer_ideal(K, n) for n in ns))


def random_explicit_family(K, rng: random.Random, max_members=5, max_norm=50):
    """Seeded random family with distinct members of norm <= max_norm."""
    pool = [i for i in idd.enumerate_ideals(K, max_norm) if not i.is_unit]
    n = rng.randint(1, max_members)
    return idd.ExplicitFamily(field=K, members=tuple(rng.sample(pool, n)))


def peak_bytes(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc sees allocated while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

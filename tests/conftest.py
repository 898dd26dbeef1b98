import pytest
from hypothesis import settings

from hrfna import DEFAULT_CONFIG, DEFAULT_MODULI, DEFAULT_PIPELINE, make_modulus_set

# CI runs the reference-op and kernel pins (tests/test_reference_ops.py,
# tests/test_kernels.py) harder with --hypothesis-profile=ci; those pins read
# their example count from the active profile and run 400 and 300 examples
# under the default one.
settings.register_profile("ci", max_examples=4000)


@pytest.fixture(scope="session")
def default_ms():
    return make_modulus_set(DEFAULT_MODULI)


@pytest.fixture(scope="session")
def small_ms():
    return make_modulus_set([3, 5, 7])


@pytest.fixture(scope="session")
def hcfg():
    return DEFAULT_CONFIG


@pytest.fixture(scope="session")
def pcfg():
    return DEFAULT_PIPELINE


@pytest.fixture(scope="session")
def huge_ms():
    """The 160 largest primes below 20000: M has 2277 bits, so b can pass 1025.

    A window mantissa of b > 1025 bits is past binary64's range.
    """
    sieve = bytearray([1]) * 20000
    sieve[:2] = b"\0\0"
    for p in range(2, 142):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, 20000, p)))
    return make_modulus_set([p for p in range(20000) if sieve[p]][-160:])

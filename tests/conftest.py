import pytest
from hypothesis import settings

from hrfna import DEFAULT_CONFIG, DEFAULT_MODULI, DEFAULT_PIPELINE, ModulusSet

# CI runs the reference-op, isomorphism, relative-error and exact-oracle pins
# and the envelope's program walk (tests/test_reference_ops.py,
# tests/test_isomorphism.py, tests/test_relative_error.py,
# tests/test_workloads.py::TestExactOracle,
# tests/test_envelope.py::test_no_program_wraps_silently) harder with
# --hypothesis-profile=ci; those pins take their example count from
# support.examples: 400, 300, 500, 200 and 300 under the default profile.
settings.register_profile("ci", max_examples=4000)


@pytest.fixture(scope="session")
def default_ms():
    return ModulusSet(DEFAULT_MODULI)


@pytest.fixture(scope="session")
def small_ms():
    return ModulusSet([3, 5, 7])


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
    return ModulusSet([p for p in range(20000) if sieve[p]][-160:])

import pytest
from hypothesis import settings

from hrfna import DEFAULT_CONFIG, DEFAULT_MODULI, DEFAULT_PIPELINE, make_modulus_set

# CI runs the reference-op pins (tests/test_reference_ops.py) harder with
# --hypothesis-profile=ci; those pins read their example count from the
# active profile and run 400 examples under the default one.
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

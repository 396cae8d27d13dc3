import numpy as np
import pytest

from cryptogen.backend import BackendParams, Context, default_plain_modulus


@pytest.fixture(scope="session")
def p16():
    return default_plain_modulus(16, 20)


@pytest.fixture(scope="session")
def p64():
    return default_plain_modulus(64, 26)


@pytest.fixture
def ctx16(p16):
    return Context(BackendParams(n_slots=16, plain_modulus=p16), seed=1)


@pytest.fixture
def ctx64(p64):
    return Context(BackendParams(n_slots=64, plain_modulus=p64), seed=1)


@pytest.fixture
def rng():
    return np.random.default_rng(0)

import numpy as np

from growth_fits import loglog_exponent, quadratic_coefficient


def test_regression_helpers():
    ks = np.array([8, 16, 32, 64])
    assert abs(loglog_exponent(ks, 3 * ks**2) - 2.0) < 1e-9
    assert abs(loglog_exponent(ks, 5 * ks) - 1.0) < 1e-9
    assert abs(quadratic_coefficient(ks, 7 * ks + 3)) < 1e-9

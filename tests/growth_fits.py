"""Growth-order fits the acceptance suite checks op counts with."""

import numpy as np


def loglog_exponent(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    return float(np.polyfit(lx, ly, 1)[0])


def quadratic_coefficient(xs, ys) -> float:
    """Quadratic coefficient of a degree-2 fit, relative to the data scale."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    c2 = np.polyfit(xs, ys, 2)[0]
    scale = max(abs(ys).max() / max(xs.max() ** 2, 1.0), 1e-300)
    return float(c2 / scale)

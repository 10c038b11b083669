"""One-way ANOVA.

The F-distribution upper tail is computed from the regularized incomplete
beta function, evaluated with a Lentz-style continued fraction, so no
statistics library or table lookup is involved. Extremely small p-values
underflow toward 0.0 and are rendered as "< 2.2e-16".
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, isinf, lgamma, log, log1p
from typing import Sequence

import numpy as np

P_VALUE_FLOOR = 2.2e-16


@dataclass(frozen=True)
class AnovaResult:
    F: float
    df_between: int
    df_within: int
    p: float


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # one Lentz step for the even coefficient, one for the odd
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the CDF of the Beta(a, b) distribution at x."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x)
    )
    front = exp(ln_front)
    # the continued fraction converges fast only on its own side of the
    # mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the other
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def f_upper_tail(f: float, df1: int, df2: int) -> float:
    """P(F_{df1,df2} > f)."""
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be positive")
    if f < 0:
        raise ValueError("F statistic cannot be negative")
    if f == 0.0:
        return 1.0
    if isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


def one_way_anova(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """Classic one-way ANOVA over two or more groups.

    F = (SSB / (k-1)) / (SSW / (N-k)) with the upper-tail p from the
    F distribution. When every group is internally constant but group
    means differ, the within variance is exactly zero and the result
    reports F = inf, p = 0. All values identical is rejected.
    """
    if len(groups) < 2:
        raise ValueError("ANOVA needs at least 2 groups")
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if any(a.size == 0 for a in arrays):
        raise ValueError("every group needs at least one value")
    k = len(arrays)
    n_total = sum(a.size for a in arrays)
    if n_total <= k:
        raise ValueError("need more observations than groups")

    grand = sum(float(a.sum()) for a in arrays) / n_total
    ssb = sum(a.size * (float(a.mean()) - grand) ** 2 for a in arrays)
    ssw = sum(float(((a - a.mean()) ** 2).sum()) for a in arrays)

    df_between = k - 1
    df_within = n_total - k
    if all(a.min() == a.max() for a in arrays):
        if ssb == 0.0:
            raise ValueError("all values identical: F is undefined")
        return AnovaResult(inf, df_between, df_within, 0.0)
    f = (ssb / df_between) / (ssw / df_within)
    return AnovaResult(float(f), df_between, df_within, f_upper_tail(f, df_between, df_within))


def format_p_value(p: float) -> str:
    """Render a p-value, flooring underflow the way R prints it."""
    if p < P_VALUE_FLOOR:
        return "< 2.2e-16"
    return repr(float(p))

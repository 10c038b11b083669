import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy import stats as scipy_stats

from teamtrace.stats import (
    f_upper_tail,
    format_p_value,
    one_way_anova,
    regularized_incomplete_beta,
)


def quadrature_upper_tail(f, df1, df2):
    """Independent oracle: integrate the F density numerically."""
    mass, _ = integrate.quad(lambda x: scipy_stats.f.pdf(x, df1, df2), 0.0, f, limit=200)
    return 1.0 - mass


class TestOneWayAnova:
    def test_identical_group_means_give_zero_f(self):
        res = one_way_anova([[1, 2, 3], [3, 2, 1]])
        assert res.F == 0.0
        assert res.p == 1.0

    def test_hand_fixture(self):
        # SSB = 1.5, SSW = 4, df = (1, 4) -> F = 1.5
        res = one_way_anova([[1, 2, 3], [2, 3, 4]])
        assert res.F == pytest.approx(1.5, abs=1e-12)
        assert (res.df_between, res.df_within) == (1, 4)
        assert res.p == pytest.approx(0.2878641347266906, abs=1e-12)

    def test_p_against_quadrature(self):
        res = one_way_anova([[1, 2, 3], [2, 3, 4]])
        assert res.p == pytest.approx(quadrature_upper_tail(1.5, 1, 4), abs=1e-8)

    def test_constant_groups_report_infinite_f(self):
        res = one_way_anova([[2, 2, 2], [5, 5, 5]])
        assert math.isinf(res.F)
        assert res.p == 0.0

    def test_all_identical_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            one_way_anova([[3, 3], [3, 3, 3]])

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            one_way_anova([[1, 2, 3]])
        with pytest.raises(ValueError):
            one_way_anova([[1, 2], []])
        with pytest.raises(ValueError):
            one_way_anova([[1], [2]])

    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=0.01, max_value=40),
    )
    def test_shift_scale_invariance(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        groups = [rng.normal(size=rng.integers(3, 9)).tolist() for _ in range(3)]
        base = one_way_anova(groups)
        moved = one_way_anova([[scale * v + shift for v in g] for g in groups])
        assert moved.F == pytest.approx(base.F, abs=1e-9 * max(1.0, base.F))

    def test_agrees_with_scipy_on_random_groups(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            groups = [rng.normal(loc=g, size=rng.integers(3, 12)) for g in range(3)]
            res = one_way_anova(groups)
            want_f, want_p = scipy_stats.f_oneway(*groups)
            assert res.F == pytest.approx(float(want_f), rel=1e-10)
            assert res.p == pytest.approx(float(want_p), rel=1e-8, abs=1e-12)


class TestFUpperTail:
    def test_at_zero(self):
        assert f_upper_tail(0.0, 3, 10) == 1.0

    def test_infinite(self):
        assert f_upper_tail(math.inf, 3, 10) == 0.0

    def test_monotone_decreasing_in_f(self):
        ps = [f_upper_tail(f, 2, 20) for f in np.linspace(0.0, 30.0, 40)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("df1,df2", [(1, 4), (2, 10), (3, 87), (5, 2), (10, 100)])
    def test_against_quadrature_grid(self, df1, df2):
        for f in (0.1, 0.7, 1.5, 4.0):
            assert f_upper_tail(f, df1, df2) == pytest.approx(
                quadrature_upper_tail(f, df1, df2), abs=1e-8
            )

    def test_underflows_to_zero_region(self):
        assert f_upper_tail(67.084, 3, 380) < 2.2e-16

    @pytest.mark.parametrize("f, df1, df2, message", [
        (1.0, 0, 4, "degrees of freedom must be positive"),
        (1.0, 2, 0, "degrees of freedom must be positive"),
        (-0.5, 2, 4, "F statistic cannot be negative"),
    ], ids=["df1-zero", "df2-zero", "negative-f"])
    def test_invalid_arguments(self, f, df1, df2, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            f_upper_tail(f, df1, df2)


class TestIncompleteBeta:
    def test_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (10, 2, 0.9)]:
            left = regularized_incomplete_beta(a, b, x)
            right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert left == pytest.approx(right, abs=1e-13)

    def test_against_scipy(self):
        from scipy.special import betainc

        for a in (0.5, 1.0, 2.5, 17.0):
            for b in (0.5, 3.0, 44.0):
                for x in np.linspace(0.01, 0.99, 17):
                    assert regularized_incomplete_beta(a, b, float(x)) == pytest.approx(
                        float(betainc(a, b, x)), abs=1e-12
                    )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)


class TestRendering:
    def test_p_value_floor(self):
        assert format_p_value(1e-20) == "< 2.2e-16"
        assert format_p_value(0.0) == "< 2.2e-16"
        assert format_p_value(0.5) == "0.5"

import itertools
import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teamtrace.pdclust import (
    DissimilarityMatrix,
    cluster_report,
    distance_matrix,
    fanny,
    min_entropy_dimension,
    pam,
    perm_distribution,
    silhouette,
    write_matrix_csv,
)
from pdclust_oracle import pd_divergence, read_matrix_csv
from test_pdclust_oracle import planted_matrix, planted_series


# ── independent oracles ────────────────────────────────────────────────────

def pattern_of(window):
    """Sorting permutation with ties broken toward the earlier index."""
    return tuple(sorted(range(len(window)), key=lambda i: (window[i], i)))


def enumerate_distribution(series, m, delay=1):
    """Brute-force window enumeration; counts per pattern in lex order."""
    patterns = list(itertools.permutations(range(m)))
    counts = {p: 0 for p in patterns}
    n_windows = len(series) - (m - 1) * delay
    for start in range(n_windows):
        window = [series[start + j * delay] for j in range(m)]
        counts[pattern_of(window)] += 1
    return np.array([counts[p] / n_windows for p in patterns])


def entropy_of(freqs, m):
    f = freqs[freqs > 0]
    return float(-(f * np.log(f)).sum() / math.log(math.factorial(m)))


def fanny_objective_direct(d, u, r):
    n, k = u.shape
    total = 0.0
    for v in range(k):
        num = sum(
            u[i, v] ** r * u[j, v] ** r * d[i, j]
            for i in range(n)
            for j in range(n)
        )
        den = 2.0 * sum(u[j, v] ** r for j in range(n))
        total += num / den
    return total


def block_matrix(sizes, within, between, rng=None):
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    d = np.full((n, n), float(between))
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                d[i, j] = float(within)
    if rng is not None:
        noise = rng.uniform(0, 0.02, size=(n, n))
        d = d + np.triu(noise, 1) + np.triu(noise, 1).T
    np.fill_diagonal(d, 0.0)
    return d, labels


def as_partition(labels):
    groups = {}
    for i, c in enumerate(np.asarray(labels).tolist()):
        groups.setdefault(c, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


# ── permutation distribution ───────────────────────────────────────────────

class TestPermDistribution:
    def test_monotone_series_is_one_ascending_pattern(self):
        dist = perm_distribution([1, 2, 3, 4], m=2)
        assert dist.freqs.tolist() == [1.0, 0.0]

    def test_constant_series_gives_identity_pattern(self):
        for m in (2, 3, 4):
            dist = perm_distribution([5.0] * 10, m=m)
            assert dist.freqs[0] == 1.0  # identity is rank 0 in lex order
            assert dist.freqs[1:].sum() == 0.0

    def test_hand_enumerated_windows(self):
        # [1,3,2,4] at m=3: windows [1,3,2] -> (0,2,1), [3,2,4] -> (1,0,2)
        dist = perm_distribution([1, 3, 2, 4], m=3)
        perms = list(itertools.permutations(range(3)))
        assert dist.freqs[perms.index((0, 2, 1))] == 0.5
        assert dist.freqs[perms.index((1, 0, 2))] == 0.5
        assert dist.freqs.sum() == 1.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            perm_distribution([1, 2], m=3)
        perm_distribution([1, 2, 3], m=3)  # boundary is fine

    def test_m_out_of_range_rejected(self):
        for m in (1, 8):
            with pytest.raises(ValueError):
                perm_distribution(list(range(20)), m=m)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            perm_distribution([1.0, float("nan"), 2.0, 3.0], m=2)
        with pytest.raises(ValueError, match="finite"):
            perm_distribution([1.0, float("inf"), 2.0, 3.0], m=2)

    def test_delay_stretches_the_window(self):
        # delay 2 over [1,9,2,8,3]: windows [1,2,3] and [9,8] patterns
        dist = perm_distribution([1, 9, 2, 8, 3], m=2, delay=2)
        oracle = enumerate_distribution([1, 9, 2, 8, 3], 2, delay=2)
        assert np.array_equal(dist.freqs, oracle)

    @settings(max_examples=80)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(2, 4))
    def test_matches_enumeration_oracle(self, seed, m):
        rng = np.random.default_rng(seed)
        series = rng.integers(0, 5, size=rng.integers(m, 30)).tolist()
        assert np.array_equal(
            perm_distribution(series, m).freqs, enumerate_distribution(series, m)
        )

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_scale_and_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=40)
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-10, 10))
        base = perm_distribution(x, m=3)
        scaled = perm_distribution(a * x + b, m=3)
        assert np.array_equal(base.freqs, scaled.freqs)


class TestDivergence:
    def test_identical_distributions(self):
        p = perm_distribution([1, 2, 3, 2, 1], m=3)
        assert pd_divergence(p, p) == 0.0

    def test_disjoint_supports_hit_the_upper_bound(self):
        up = perm_distribution([1, 2, 3, 4], m=2)
        down = perm_distribution([4, 3, 2, 1], m=2)
        assert pd_divergence(up, down) == pytest.approx(2.0)

    def test_hand_value(self):
        up = perm_distribution([1, 2, 3], m=2)          # (1, 0)
        half = perm_distribution([1, 2, 1], m=2)        # (0.5, 0.5)
        assert pd_divergence(up, half) == pytest.approx(2 - math.sqrt(2))

    def test_mismatched_embedding_rejected(self):
        p2 = perm_distribution([1, 2, 3, 4], m=2)
        p3 = perm_distribution([1, 2, 3, 4], m=3)
        with pytest.raises(ValueError, match="not comparable"):
            pd_divergence(p2, p3)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_symmetric_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = perm_distribution(rng.normal(size=25), m=3)
        q = perm_distribution(rng.normal(size=25), m=3)
        assert pd_divergence(p, q) == pytest.approx(pd_divergence(q, p), abs=1e-15)
        assert pd_divergence(p, q) >= 0.0


class TestDistanceMatrix:
    def test_identical_series_all_zero(self):
        series = [[1, 5, 2, 4, 3, 6]] * 4
        m = distance_matrix(series, m=3)
        assert np.allclose(m.values, 0.0, atol=1e-12)
        assert not np.diagonal(m.values).any()

    def test_two_series_composition(self):
        s1, s2 = [1, 2, 3, 4, 5], [5, 3, 4, 1, 2]
        m = distance_matrix([s1, s2], m=3)
        want = pd_divergence(perm_distribution(s1, 3), perm_distribution(s2, 3))
        assert m.values[0, 1] == pytest.approx(want, abs=1e-12)
        assert m.values[1, 0] == m.values[0, 1]

    def test_three_series_against_pairwise_recomputation(self):
        series = [[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8], [1, 1, 2, 3, 5, 8, 13, 21]]
        m = distance_matrix(series, m=3)
        for i in range(3):
            for j in range(3):
                want = pd_divergence(
                    perm_distribution(series[i], 3), perm_distribution(series[j], 3)
                )
                assert m.values[i, j] == pytest.approx(want, abs=1e-12)

    def test_ids_roundtrip_through_csv(self, tmp_path):
        m = distance_matrix([[1, 2, 3, 4], [4, 3, 2, 1], [1, 3, 2, 4]], m=2, ids=["a", "b", "c"])
        path = tmp_path / "mat.csv"
        with open(path, "w") as f:
            write_matrix_csv(f, m)
        with open(path) as f:
            back = read_matrix_csv(f)
        assert back.ids == ("a", "b", "c")
        assert np.array_equal(back.values, m.values)

    def test_entries_bounded(self):
        rng = np.random.default_rng(1)
        m = distance_matrix([rng.normal(size=30) for _ in range(6)], m=3)
        assert (m.values >= 0).all() and (m.values <= 2).all()

    def test_peak_memory_is_the_roots_plus_one_matrix(self):
        # the lib_many shape: 600 series of 301 values at m = 7, where the
        # (600, 5040) root-frequency matrix is 24 MB and the result 2.9 MB
        series = planted_series(600, 301, seed=600)
        n = len(series)
        roots_nbytes = n * math.factorial(7) * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            distance_matrix(series, m=7)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < roots_nbytes + n * n * 8 + 3_000_000


class TestMinEntropyDimension:
    def test_monotone_series_tie_break_to_smallest(self):
        series = [list(range(20)), list(range(5, 25))]
        assert min_entropy_dimension(series) == 2

    def test_single_series(self):
        assert min_entropy_dimension([list(range(10))], m_values=[3, 4]) == 3

    def test_planted_structure_matches_exhaustive_table(self):
        rng = np.random.default_rng(11)
        series = []
        for _ in range(5):
            base = np.tile([0.0, 1.0, 2.0], 40)
            series.append(base + rng.normal(0, 0.35, size=base.size))
        table = {}
        for m in range(2, 8):
            table[m] = float(
                np.mean([entropy_of(enumerate_distribution(s.tolist(), m), m) for s in series])
            )
        want = min(table, key=lambda m: (round(table[m], 15), m))
        assert min_entropy_dimension(series) == want

    def test_range_truncated_for_short_series(self):
        # length 4 supports only m in {2, 3, 4}
        assert min_entropy_dimension([[1, 2, 3, 4]], m_values=range(2, 8)) in (2, 3, 4)

    def test_unusable_range_rejected(self):
        with pytest.raises(ValueError):
            min_entropy_dimension([[1, 2]], m_values=[4, 5])
        with pytest.raises(ValueError):
            min_entropy_dimension([[1, 2, 3]], m_values=[])



class Untouchable(Sequence):
    """A series set whose members fail the test when read."""

    def __len__(self):
        return 3

    def __getitem__(self, i):
        raise AssertionError("series read before the arguments were checked")


def first_error(series, m, delay=1):
    with pytest.raises(ValueError) as info:
        perm_distribution(series, m, delay)
    return str(info.value)


class TestBatchedErrorSurface:
    good = [np.arange(30.0), np.sin(np.arange(40.0))]

    @pytest.mark.parametrize("bad", [
        [1.0, float("nan")] + [2.0] * 20,
        [1.0, 2.0, 3.0],
        np.ones((10, 10)),
    ], ids=["nan", "short", "2d"])
    def test_distance_matrix_reports_first_bad_series(self, bad):
        other_bad = [float("inf")] * 30
        want = first_error(bad, 5)
        with pytest.raises(ValueError) as info:
            distance_matrix([*self.good, bad, self.good[0], other_bad], m=5)
        assert str(info.value) == want

    @pytest.mark.parametrize("bad", [
        [1.0, float("nan")] + [2.0] * 20,
        np.ones((10, 10)),
    ], ids=["nan", "2d"])
    def test_min_entropy_dimension_reports_first_bad_series(self, bad):
        with pytest.raises(ValueError) as info:
            min_entropy_dimension([*self.good, bad, [float("inf")] * 30])
        assert str(info.value) == first_error(bad, 2)

    def test_min_entropy_dimension_short_series_narrows_range(self):
        with pytest.raises(ValueError, match=r"shortest series \(length 1\)"):
            min_entropy_dimension([*self.good, [1.0]])

    @pytest.mark.parametrize("m, delay, message", [
        (1, 1, "embedding dimension"),
        (8, 1, "embedding dimension"),
        (5, 0, "delay must be at least 1"),
    ])
    def test_distance_matrix_checks_arguments_first(self, m, delay, message):
        with pytest.raises(ValueError, match=message):
            distance_matrix(Untouchable(), m=m, delay=delay)
        with pytest.raises(ValueError, match=message):
            perm_distribution(list(range(20)), m=m, delay=delay)

    def test_min_entropy_dimension_checks_arguments_first(self):
        with pytest.raises(ValueError, match="dimensions must lie"):
            min_entropy_dimension(Untouchable(), m_values=[1, 2])
        with pytest.raises(ValueError, match="delay must be at least 1"):
            min_entropy_dimension(Untouchable(), delay=0)
        with pytest.raises(ValueError, match="empty embedding dimension range"):
            min_entropy_dimension(Untouchable(), m_values=[])

    def test_empty_set_rejected(self):
        for fn in (distance_matrix, min_entropy_dimension):
            with pytest.raises(ValueError, match="need at least one series"):
                fn([])


# ── clustering ─────────────────────────────────────────────────────────────

class TestPam:
    def test_two_tight_pairs(self):
        d, labels = block_matrix([2, 2], within=0.05, between=1.0)
        res = pam(d, k=2)
        assert as_partition(res.labels) == as_partition(labels)

    def test_k_equals_n_is_free(self):
        d, _ = block_matrix([2, 2], within=0.1, between=1.0)
        res = pam(d, k=4)
        assert res.cost == 0.0
        assert res.medoids == (0, 1, 2, 3)

    def test_k_out_of_range(self):
        d, _ = block_matrix([2, 2], within=0.1, between=1.0)
        for k in (1, 5):
            with pytest.raises(ValueError):
                pam(d, k=k)

    def test_seed_only_breaks_ties(self):
        d, _ = block_matrix([4, 4], within=0.05, between=1.0, rng=np.random.default_rng(3))
        a, b = pam(d, k=2, seed=1), pam(d, k=2, seed=99)
        assert as_partition(a.labels) == as_partition(b.labels)
        assert a.cost == pytest.approx(b.cost)

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_eight_point_matrices_match_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        k = 2 + seed % 2
        sizes = ([5, 3], [4, 4], [3, 5])[seed % 3] if k == 2 else ([3, 3, 2], [4, 2, 2], [2, 3, 3])[seed % 3]
        d, _ = block_matrix(sizes, within=0.05, between=1.0, rng=rng)

        best_cost, best_partitions = math.inf, []
        for medoids in itertools.combinations(range(8), k):
            cols = d[:, list(medoids)]
            cost = float(cols.min(axis=1).sum())
            part = as_partition(np.argmin(cols, axis=1))
            if cost < best_cost - 1e-12:
                best_cost, best_partitions = cost, [part]
            elif abs(cost - best_cost) <= 1e-12:
                best_partitions.append(part)

        res = pam(d, k=k, seed=0)
        assert res.cost == pytest.approx(best_cost, abs=1e-12)
        assert as_partition(res.labels) in best_partitions


class TestFanny:
    def test_two_separated_groups(self):
        d, labels = block_matrix([3, 3], within=0.0, between=1.0)
        res = fanny(d, k=2)
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        hard = np.round(res.memberships)
        assert as_partition(np.argmax(hard, axis=1)) == as_partition(labels)
        assert res.converged

    def test_all_zero_matrix_returns_uniform(self):
        res = fanny(np.zeros((6, 6)), k=2)
        assert np.allclose(res.memberships, 0.5)
        assert res.objective == 0.0

    def test_six_point_planted(self):
        d, _ = block_matrix([2, 2, 2], within=0.02, between=1.0)
        res = fanny(d, k=3)
        crisp_pam = pam(d, k=3)
        assert as_partition(res.crisp) == as_partition(crisp_pam.labels)
        direct = fanny_objective_direct(d, res.memberships, res.r)
        assert res.objective == pytest.approx(direct, rel=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        d, _ = block_matrix([4, 4, 4], within=0.1, between=1.0, rng=rng)
        res = fanny(d, k=3)
        assert np.allclose(res.memberships.sum(axis=1), 1.0, atol=1e-9)
        assert (res.memberships >= 0).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_trace_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        raw = rng.uniform(0.1, 1.5, size=(n, n))
        d = np.triu(raw, 1) + np.triu(raw, 1).T
        res = fanny(d, k=3, seed=seed)
        trace = res.objective_trace
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
        # the PAM start is kept, so callers need not run PAM again
        start = pam(d, k=3, seed=seed)
        assert (res.start.medoids, res.start.cost) == (start.medoids, start.cost)
        assert np.array_equal(res.start.labels, start.labels)

    def test_non_convergence_flag(self):
        rng = np.random.default_rng(9)
        raw = rng.uniform(0.1, 1.5, size=(15, 15))
        d = np.triu(raw, 1) + np.triu(raw, 1).T
        res = fanny(d, k=3, max_iter=1, tol=0.0)
        assert not res.converged
        assert res.n_iter == 1

    def test_parameter_validation(self):
        d = np.zeros((4, 4))
        with pytest.raises(ValueError):
            fanny(d, k=1)
        with pytest.raises(ValueError):
            fanny(d, k=4)
        with pytest.raises(ValueError):
            fanny(d, k=2, r=1.0)
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError, match="membership exponent must be finite"):
                fanny(d, k=2, r=r)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [2500.0, 1e308])
    def test_exponent_that_starves_every_cluster_is_rejected(self, r):
        d = planted_matrix(40, seed=4)
        with pytest.raises(ValueError) as excinfo:
            fanny(d, k=3, r=r)
        assert str(excinfo.value) == (
            f"membership exponent r={r} too large: all cluster mass underflows"
        )

    def test_extreme_matrices_stay_finite(self):
        # bimodal zero-or-max dissimilarities with many clusters used to
        # starve cluster mass into the denormal range
        import warnings

        rng = np.random.default_rng(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(40):
                n = int(rng.integers(5, 10))
                k = int(rng.integers(2, n))
                raw = np.where(rng.random((n, n)) < 0.5, 0.0, 2.0)
                d = np.triu(raw, 1)
                d = d + d.T
                res = fanny(d, k=k, max_iter=60)
                assert np.isfinite(res.memberships).all()
                assert np.isfinite(res.objective)
                trace = res.objective_trace
                assert all(a >= b - 1e-10 for a, b in zip(trace, trace[1:]))

    def test_reaches_numerical_optimum(self):
        # cross-check against a derivative-free minimizer over the simplex
        from scipy import optimize

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        rng = np.random.default_rng(0)
        for _ in range(2):
            n, k, r = 6, 2, 1.15
            labels = np.repeat([0, 1], 3)
            raw = np.where(labels[:, None] == labels[None, :], 0.3, 1.0)
            raw = raw + np.triu(rng.uniform(0, 0.05, (n, n)), 1)
            d = np.triu(raw, 1) + np.triu(raw, 1).T

            res = fanny(d, k=k, r=r)
            best = np.inf
            for _ in range(5):
                z0 = rng.normal(scale=2.0, size=n * k)
                out = optimize.minimize(
                    lambda z: fanny_objective_direct(d, softmax(z.reshape(n, k)), r),
                    z0,
                    method="Nelder-Mead",
                    options={"maxiter": 12000, "xatol": 1e-10, "fatol": 1e-12},
                )
                best = min(best, out.fun)
            assert res.objective <= best + 1e-7
            assert abs(res.objective - best) <= 1e-6


class TestSilhouette:
    def test_perfect_separation(self):
        d, labels = block_matrix([3, 3], within=0.0, between=1.0)
        res = silhouette(d, labels)
        assert np.allclose(res.widths, 1.0)
        assert res.average == pytest.approx(1.0)

    def test_singleton_scores_zero(self):
        d, _ = block_matrix([3, 1], within=0.1, between=1.0)
        res = silhouette(d, np.array([0, 0, 0, 1]))
        assert res.widths[3] == 0.0

    def test_five_point_hand_matrix(self):
        d = np.array([
            [0.0, 0.2, 0.4, 1.0, 1.2],
            [0.2, 0.0, 0.3, 0.9, 1.1],
            [0.4, 0.3, 0.0, 0.8, 0.7],
            [1.0, 0.9, 0.8, 0.0, 0.25],
            [1.2, 1.1, 0.7, 0.25, 0.0],
        ])
        res = silhouette(d, np.array([0, 0, 0, 1, 1]))
        # worked out per point: a = own-cluster mean, b = best other mean
        assert res.widths[0] == pytest.approx((1.1 - 0.3) / 1.1)
        assert res.widths[1] == pytest.approx((1.0 - 0.25) / 1.0)
        assert res.widths[2] == pytest.approx((0.75 - 0.35) / 0.75)
        assert res.widths[3] == pytest.approx((0.9 - 0.25) / 0.9)
        assert res.widths[4] == pytest.approx((1.0 - 0.25) / 1.0)
        assert -1.0 <= res.widths.min() and res.widths.max() <= 1.0

    def test_single_cluster_rejected(self):
        d, _ = block_matrix([4], within=0.1, between=1.0)
        with pytest.raises(ValueError):
            silhouette(d, np.zeros(4, dtype=int))

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_widths_bounded(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0, 2, size=(10, 10))
        d = np.triu(raw, 1) + np.triu(raw, 1).T
        labels = rng.integers(0, 3, size=10)
        if np.unique(labels).size < 2:
            return
        res = silhouette(d, labels)
        assert (res.widths >= -1.0).all() and (res.widths <= 1.0).all()


class TestClusterReport:
    def test_single_cluster_echoes_global_statistics(self):
        series = [np.array([1.0, 3.0]), np.array([5.0, 7.0]), np.array([2.0, 2.0])]
        d = np.zeros((3, 3))
        report = cluster_report(series, np.zeros(3, dtype=int), d)
        assert report.total == 3
        c = report.clusters[0]
        means = [2.0, 6.0, 2.0]
        assert c.mean_of_series_means == pytest.approx(np.mean(means))
        assert c.variance_of_series_means == pytest.approx(np.var(means, ddof=1))
        assert c.mean_duration_s == 1.0

    def test_constant_series_clusters(self):
        series = [np.full(5, 10.0), np.full(5, 10.0), np.full(9, 20.0), np.full(9, 20.0)]
        d, labels = block_matrix([2, 2], within=0.0, between=1.0)
        report = cluster_report(series, labels, d)
        by_cluster = {c.cluster: c for c in report.clusters}
        assert by_cluster[0].mean_of_series_means == 10.0
        assert by_cluster[0].variance_of_series_means == 0.0
        assert by_cluster[1].mean_of_series_means == 20.0
        assert by_cluster[1].mean_duration_s == 8.0

    def test_fixture_against_tabulation(self):
        rng = np.random.default_rng(2)
        series = [rng.uniform(0, 50, size=rng.integers(20, 40)) for _ in range(9)]
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        d, _ = block_matrix([3, 3, 3], within=0.05, between=1.0)
        tiers = [("Normal", True), ("Normal", False), ("High", True)] * 3
        report = cluster_report(series, labels, d, labels=tiers)
        for c in report.clusters:
            members = [i for i in range(9) if labels[i] == c.cluster]
            means = [series[i].mean() for i in members]
            durations = [len(series[i]) - 1 for i in members]
            assert c.size == 3
            assert c.mean_of_series_means == pytest.approx(np.mean(means))
            assert c.variance_of_series_means == pytest.approx(np.var(means, ddof=1))
            assert c.mean_duration_s == pytest.approx(np.mean(durations))
            assert sum(c.facets.values()) == 3
        assert report.average_silhouette == pytest.approx(
            silhouette(d, labels).average
        )


class TestDissimilarityMatrixType:
    def test_asymmetry_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DissimilarityMatrix(("a", "b"), bad)

    def test_nonzero_diagonal_rejected(self):
        bad = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            DissimilarityMatrix(("a", "b"), bad)

    def test_out_of_range_rejected(self):
        bad = np.array([[0.0, 2.5], [2.5, 0.0]])
        with pytest.raises(ValueError, match="\\[0, 2\\]"):
            DissimilarityMatrix(("a", "b"), bad)

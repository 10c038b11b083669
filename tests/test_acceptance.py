"""Acceptance suite: one test per release criterion, each enforced at its
stated tolerance and time budget. A PASS/FAIL line per criterion is
printed via the hook in conftest.py."""
import itertools
import math
import time
from math import comb

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as scipy_stats

from genstreams import mutate_stream, random_stream
from teamtrace import measures, pdclust, stats, tickstream
from teamtrace.cli import RunConfig
from teamtrace.core import (
    GRID_SIZE,
    LATE_PHASE_START_S,
    MID_PHASE_START_S,
)
from teamtrace.synth import RegimeParams, generate_match
from teamtrace.zonemap import ZoneLabel


# ── criterion 1: Eq-(1) oracle equivalence ────────────────────────────────

def test_team_distance_matches_naive_oracle():
    """Optimized team distance == naive double loop, 1e-9, 1000 sets, <1 s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(1000):
        pts = rng.uniform(0.0, 127.0, size=(5, 2))
        got = measures.team_distance(pts)
        total = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                total += math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
        want = total / 10.0
        assert abs(got - want) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


# ── criterion 2: tick-stream round trip and mutation rejection ────────────

def test_tickstream_roundtrip_and_mutation_rejection():
    """500 random streams survive encode/decode bit-exactly; 100 mutations
    are all rejected with a diagnostic; < 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    streams = []
    for _ in range(500):
        header, frames, data, spans = random_stream(rng)
        got_header, got_frames = tickstream.decode(data)
        assert got_header == header
        assert got_frames == tuple(frames)
        assert tickstream.encode(got_header, got_frames) == data
        streams.append((data, spans))

    for i in range(100):
        data, spans = streams[i % len(streams)]
        kind, mutated = mutate_stream(rng, data, spans)
        with pytest.raises(tickstream.StreamFormatError) as exc:
            tickstream.decode(mutated)
        assert str(exc.value), kind
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


# ── criterion 3: dwell rule fixtures and monotonicity ─────────────────────

def test_dwell_rule_suite():
    """Hand-derived fixtures give 0 and 2 changes; raising the threshold
    never increases the change count over 200 random sequences."""
    a, b, c = ZoneLabel.TOP_LANE, ZoneLabel.JUNGLE, ZoneLabel.RIVER

    blip = [a] * 6 + [b] * 3 + [a] * 5
    assert measures.change_count(measures.dwell_filter(blip, 5)) == 0

    tour = [a] * 10 + [b] * 6 + [c] * 10
    assert measures.change_count(measures.dwell_filter(tour, 5)) == 2

    rng = np.random.default_rng(5)
    zones = list(ZoneLabel)
    for _ in range(200):
        seq = [zones[i] for i in rng.integers(0, len(zones), size=rng.integers(1, 90))]
        counts = [
            measures.change_count(measures.dwell_filter(seq, d)) for d in range(1, 10)
        ]
        assert all(x >= y for x, y in zip(counts, counts[1:]))


# ── criterion 4: permutation distribution vs exhaustive enumeration ───────

def _enumerated(series, m):
    patterns = list(itertools.permutations(range(m)))
    counts = dict.fromkeys(patterns, 0)
    n_windows = len(series) - m + 1
    for start in range(n_windows):
        window = series[start : start + m]
        counts[tuple(sorted(range(m), key=lambda i: (window[i], i)))] += 1
    return np.array([counts[p] / n_windows for p in patterns])


def test_perm_distribution_exhaustive_and_invariant():
    """Exact agreement with window enumeration for every series of length
    <= 10 over {1,2,3} at m in {2,3}; exact scale/shift invariance."""
    for length in range(2, 11):
        for series in itertools.product((1.0, 2.0, 3.0), repeat=length):
            for m in (2, 3):
                if length < m:
                    continue
                got = pdclust.perm_distribution(series, m).freqs
                assert np.array_equal(got, _enumerated(series, m)), (series, m)

    rng = np.random.default_rng(99)
    for _ in range(100):
        x = rng.normal(size=60)
        a = float(rng.uniform(0.25, 4.0))
        b = float(rng.uniform(-20.0, 20.0))
        m = int(rng.integers(2, 6))
        assert np.array_equal(
            pdclust.perm_distribution(x, m).freqs,
            pdclust.perm_distribution(a * x + b, m).freqs,
        )


# ── criterion 5: clustering oracles ───────────────────────────────────────

def _block_matrix(sizes, within, between, rng=None):
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    d = np.where(labels[:, None] == labels[None, :], float(within), float(between))
    if rng is not None:
        noise = np.triu(rng.uniform(0, 0.02, size=(n, n)), 1)
        d = d + noise + noise.T
    np.fill_diagonal(d, 0.0)
    return d, labels


def _partition(labels):
    groups = {}
    for i, v in enumerate(np.asarray(labels).tolist()):
        groups.setdefault(v, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def _adjusted_rand_index(a, b):
    a, b = np.asarray(a), np.asarray(b)
    n = a.size
    table = {}
    for x, y in zip(a.tolist(), b.tolist()):
        table[(x, y)] = table.get((x, y), 0) + 1
    sum_ij = sum(comb(v, 2) for v in table.values())
    sum_a = sum(comb(int((a == x).sum()), 2) for x in set(a.tolist()))
    sum_b = sum(comb(int((b == y).sum()), 2) for y in set(b.tolist()))
    expected = sum_a * sum_b / comb(n, 2)
    top = sum_ij - expected
    bottom = (sum_a + sum_b) / 2 - expected
    return 1.0 if bottom == 0 else top / bottom


def test_clustering_oracles():
    """PAM equals the exhaustive medoid optimum on every planted 8-point
    matrix; FANNY's objective never increases and recovers the planted
    3-block partition (ARI 1.0) whose silhouette is >= 0.9."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        k = 2 + seed % 2
        sizes = [[5, 3], [4, 4], [3, 5]][seed % 3] if k == 2 else [[3, 3, 2], [4, 2, 2], [2, 3, 3]][seed % 3]
        d, _ = _block_matrix(sizes, 0.05, 1.0, rng)
        best_cost, best_parts = math.inf, []
        for medoids in itertools.combinations(range(8), k):
            cols = d[:, list(medoids)]
            cost = float(cols.min(axis=1).sum())
            if cost < best_cost - 1e-12:
                best_cost, best_parts = cost, [_partition(np.argmin(cols, axis=1))]
            elif abs(cost - best_cost) <= 1e-12:
                best_parts.append(_partition(np.argmin(cols, axis=1)))
        res = pdclust.pam(d, k=k, seed=0)
        assert abs(res.cost - best_cost) <= 1e-12
        assert _partition(res.labels) in best_parts

    d, truth = _block_matrix([7, 7, 6], within=0.05, between=1.0)
    fuzzy = pdclust.fanny(d, k=3, r=1.15)
    trace = fuzzy.objective_trace
    assert all(x >= y - 1e-12 for x, y in zip(trace, trace[1:]))
    assert _adjusted_rand_index(fuzzy.crisp, truth) == 1.0
    assert pdclust.silhouette(d, fuzzy.crisp).average >= 0.9


# ── criterion 6: ANOVA fixture, quadrature oracle, invariances ────────────

def test_anova_oracles():
    """F = 1.5 on the hand fixture; p agrees with numerical integration of
    the F density within 1e-8 over a 20-point grid; F is shift/scale
    invariant within 1e-9."""
    res = stats.one_way_anova([[1, 2, 3], [2, 3, 4]])
    assert res.F == pytest.approx(1.5, abs=1e-12)
    assert (res.df_between, res.df_within) == (1, 4)

    grid = [
        (0.5, 1, 4), (1.5, 1, 4), (3.2, 1, 4), (0.2, 2, 10), (1.0, 2, 10),
        (2.8, 2, 10), (5.5, 2, 10), (0.7, 3, 30), (1.9, 3, 30), (4.4, 3, 30),
        (0.4, 4, 8), (2.2, 4, 8), (6.0, 4, 8), (1.1, 5, 60), (3.3, 5, 60),
        (0.9, 6, 20), (2.5, 6, 20), (7.7, 6, 20), (1.7, 8, 120), (4.9, 8, 120),
    ]
    assert len(grid) == 20
    for f, d1, d2 in grid:
        mass, _ = integrate.quad(lambda x: scipy_stats.f.pdf(x, d1, d2), 0.0, f, limit=200)
        assert stats.f_upper_tail(f, d1, d2) == pytest.approx(1.0 - mass, abs=1e-8)

    rng = np.random.default_rng(17)
    for _ in range(30):
        groups = [rng.normal(size=rng.integers(4, 10)).tolist() for _ in range(4)]
        base = stats.one_way_anova(groups).F
        shifted = stats.one_way_anova([[v + 123.0 for v in g] for g in groups]).F
        scaled = stats.one_way_anova([[v * 0.037 for v in g] for g in groups]).F
        assert abs(shifted - base) <= 1e-9 * max(1.0, base)
        assert abs(scaled - base) <= 1e-9 * max(1.0, base)


# ── criterion 7: end-to-end planted regime ordering ───────────────────────

_REGIMES = (  # (spread_sigma, switch_rate): professional, high, normal
    ("professional", 6.0, 6.0),
    ("high", 10.0, 4.0),
    ("normal", 14.0, 2.0),
)
_MATCHES_PER_REGIME = 30
_MATCH_LEN_S = 900


def _run_repetition(zmap, rep_seed):
    """Full pipeline once: synth -> DTL2 bytes -> ingest -> measures."""
    dist_groups, rate_groups = [], []
    for ri, (_, sigma, rate) in enumerate(_REGIMES):
        params = RegimeParams(sigma, rate, _MATCH_LEN_S)
        dists, rates = [], []
        for j in range(_MATCHES_PER_REGIME):
            stream, meta = generate_match(
                params, params, zmap, seed=rep_seed * 1009 + ri * 101 + j
            )
            _, cells = tickstream.tracks_from_stream(stream, meta.duration_s)
            codes = measures.zone_codes(cells, zmap)
            rates.extend(
                measures.stats_from_codes(i, codes[i]).rate_per_min for i in range(10)
            )
            dists.append(
                float(
                    np.mean(
                        (
                            measures.distance_values(cells[:5])
                            + measures.distance_values(cells[5:])
                        )
                        / 2.0
                    )
                )
            )
        dist_groups.append(dists)
        rate_groups.append(rates)
    return dist_groups, rate_groups


def test_end_to_end_planted_ordering(zmap):
    """Three planted regimes, 30 matches each, 900 s: distance must rise
    and zone-change rate must fall from professional to normal in >= 95 of
    100 seeded repetitions; regime ANOVA p < 0.001; full run < 2 min."""
    start = time.perf_counter()
    ordering_ok = 0
    anova_ok = 0
    for rep in range(100):
        dist_groups, rate_groups = _run_repetition(zmap, rep)
        dist_means = [float(np.mean(g)) for g in dist_groups]
        rate_means = [float(np.mean(g)) for g in rate_groups]
        if dist_means[0] < dist_means[1] < dist_means[2] and (
            rate_means[0] > rate_means[1] > rate_means[2]
        ):
            ordering_ok += 1
        p_dist = stats.one_way_anova(dist_groups).p
        p_rate = stats.one_way_anova(rate_groups).p
        if p_dist < 0.001 and p_rate < 0.001:
            anova_ok += 1
    elapsed = time.perf_counter() - start
    assert ordering_ok >= 95, f"ordering held in only {ordering_ok}/100 repetitions"
    assert anova_ok >= 95, f"ANOVA significant in only {anova_ok}/100 repetitions"
    assert elapsed < 120.0, f"took {elapsed:.1f} s"


# ── criterion 8: distance-matrix scaling ──────────────────────────────────

def test_distance_matrix_performance():
    """380 series of length 3000 at m=5 embed and pair in < 5 s on one
    worker, and doubling the length raises runtime by < 2.5x."""
    rng = np.random.default_rng(31)
    short = [rng.normal(size=3000) for _ in range(380)]
    long = [rng.normal(size=6000) for _ in range(380)]

    def timed(series_set):
        t0 = time.perf_counter()
        pdclust.distance_matrix(series_set, m=5)
        return time.perf_counter() - t0

    # interleaved, so a burst of CPU steal hits both sizes alike, and the
    # minimum of 10 runs each (about 1 s), so a burst must outlast the
    # whole loop to decide the ratio
    t_short = t_long = math.inf
    for _ in range(10):
        t_short = min(t_short, timed(short))
        t_long = min(t_long, timed(long))
    assert t_short < 5.0, f"380x3000 took {t_short:.2f} s"
    assert t_long < 2.5 * t_short, f"doubling scaled {t_long / t_short:.2f}x"


# ── criterion 9: default configuration snapshot ───────────────────────────

def test_default_config_echo():
    """The default run configuration reproduces the reference constants."""
    cfg = RunConfig()
    assert cfg.k == 3
    assert cfg.r == 1.15
    assert cfg.min_dwell_s == 5
    assert cfg.window_s == 1
    assert cfg.m == 5
    assert cfg.delay == 1
    assert measures.DEFAULT_MIN_DWELL_S == 5
    assert MID_PHASE_START_S == 900
    assert LATE_PHASE_START_S == 1800
    assert tickstream.DEFAULT_TICK_INTERVAL_MS == 33
    assert GRID_SIZE == 128
    assert len(ZoneLabel) == 11
    assert pdclust.DEFAULT_CLUSTER_COUNT == 3
    assert pdclust.DEFAULT_MEMBERSHIP_EXPONENT == 1.15
    assert pdclust.DEFAULT_EMBED_DIM == 5

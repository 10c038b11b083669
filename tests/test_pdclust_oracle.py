"""The batched pdclust paths must reproduce the loop-based reference in
``pdclust_oracle`` bit for bit: pattern frequencies, divergence matrices,
the minimum-entropy dimension, PAM medoids, labels and costs, FANNY
memberships, traces and starting partitions, and silhouette widths."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdclust_oracle as oracle
import teamtrace
from teamtrace.pdclust import (
    distance_matrix,
    fanny,
    min_entropy_dimension,
    min_series_length,
    pam,
    perm_distribution,
    silhouette,
)


def planted_series(n, length, seed):
    """Three regimes: smooth AR(1), rough AR(1) and a noisy 3-cycle."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        regime = i % 3
        if regime == 2:
            x = np.tile([0.0, 1.0, 2.0], length // 3 + 1)[:length]
            x = x + rng.normal(0, 0.4, size=length)
        else:
            phi = 0.9 if regime == 0 else -0.5
            x = np.empty(length)
            x[0] = rng.normal()
            for t in range(1, length):
                x[t] = phi * x[t - 1] + rng.normal()
        out.append(x)
    return out


def mixed_series(seed):
    """Mixed lengths (some exactly the minimum for m=7, delay=3), constant
    series and integer-valued series full of ties."""
    rng = np.random.default_rng(seed)
    shortest = min_series_length(7, 3)
    out = [rng.normal(size=shortest), np.full(40, 2.5), np.zeros(shortest)]
    for length in (shortest + 1, 25, 64, 301, 777):
        out.append(rng.normal(size=length))
        out.append(rng.integers(0, 3, size=length).astype(np.float64))
    out.append(np.repeat(rng.integers(0, 4, size=60), 3).astype(np.float64))
    return out


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ── ordinal patterns ───────────────────────────────────────────────────────

@pytest.mark.parametrize("delay", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_pattern_frequencies_match_oracle(m, delay):
    series = mixed_series(seed=10 * m + delay)
    for x in series:
        assert same_bytes(perm_distribution(x, m, delay).freqs, oracle.pattern_freqs(x, m, delay))
    got = distance_matrix(series, m=m, delay=delay).values
    assert same_bytes(got, oracle.distance_matrix(series, m, delay).values)


@pytest.mark.parametrize("m", [3, 7])
def test_set_larger_than_one_block_matches_oracle(m):
    # 40 x 777 values, several times the kernel's block of 2**13 values,
    # with a too-long-for-any-block series in the middle
    series = planted_series(40, 777, seed=5)
    series.insert(20, planted_series(1, 20000, seed=6)[0])
    got = distance_matrix(series, m=m).values
    assert same_bytes(got, oracle.distance_matrix(series, m).values)


def test_planted_set_matrix_and_dimension_match_oracle():
    series = planted_series(120, 301, seed=3)
    m = min_entropy_dimension(series)
    assert m == oracle.min_entropy_dimension(series)
    for dim in sorted({m, 5}):
        got = distance_matrix(series, m=dim).values
        assert same_bytes(got, oracle.distance_matrix(series, dim).values)


# distance_matrix sets only the diagonal: numpy computes roots @ roots.T as
# one symmetric product, so the lower triangle equals the upper one. Each
# child below checks that against the oracle's triangle form on another
# dispatch path, and prints the numpy SIMD targets it ran with.
_MATRIX_IN_CHILD = """
import json
import numpy as np
import pdclust_oracle as oracle
from teamtrace.pdclust import distance_matrix
from test_pdclust_oracle import _simd_targets
rng = np.random.default_rng(22)
for n, length, m in ((600, 301, 5), (7, 40, 3)):
    series = list(rng.normal(size=(n, length)))
    got = distance_matrix(series, m=m).values
    assert got.tobytes() == oracle.distance_matrix(series, m).values.tobytes(), (n, m)
print(json.dumps(_simd_targets()))
"""


def _simd_targets():
    """numpy's dispatch targets that this host runs, and the AVX-512 ones."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    active = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return active, [t for t in active if "512" in t or t == "X86_V4"]


@pytest.mark.parametrize("path", ["avx512-off", "openblas-Nehalem", "openblas-Prescott"])
def test_matrix_matches_triangle_form_on_other_dispatch_paths(path):
    # the tests directory and this checkout's package first on PYTHONPATH
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(Path(__file__).parent), str(Path(teamtrace.__file__).parents[1]),
        os.environ.get("PYTHONPATH"),
    )))}
    avx512 = _simd_targets()[1]
    if path == "avx512-off":
        if not avx512:
            pytest.skip("numpy dispatches to no AVX-512 target on this host")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(avx512)
    else:
        env["OPENBLAS_CORETYPE"] = path.split("-")[1]
    proc = subprocess.run([sys.executable, "-c", _MATRIX_IN_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    active, child_avx512 = json.loads(proc.stdout)
    assert child_avx512 == ([] if path == "avx512-off" else avx512), active


def test_dimension_choice_on_mixed_lengths_matches_oracle():
    for seed in range(3):
        series = mixed_series(seed)
        for delay in (1, 2, 3):
            assert min_entropy_dimension(series, delay=delay) == oracle.min_entropy_dimension(
                series, delay=delay
            )


# ── FANNY and silhouette ───────────────────────────────────────────────────

def planted_matrix(n, seed):
    return distance_matrix(planted_series(n, 301, seed), m=4).values


def assert_same_start(got, want):
    assert got.medoids == want.medoids
    assert np.array_equal(got.labels, want.labels)
    assert got.labels.dtype == want.labels.dtype
    assert got.cost == want.cost


def assert_same_pam(d, k, seed=0):
    got = pam(d, k, seed)
    assert_same_start(got, oracle.pam(d, k, seed))
    return got


def assert_same_fanny(d, **kw):
    got, want = fanny(d, **kw), oracle.fanny(d, **kw)
    assert same_bytes(got.memberships, want.memberships)
    assert same_bytes(got.objective_trace, want.objective_trace)
    assert same_bytes(got.crisp, want.crisp)
    assert (got.n_iter, got.converged, got.objective) == (
        want.n_iter, want.converged, want.objective,
    )
    assert_same_start(got.start, want.start)
    return got


def tie_heavy_matrix(rng, n):
    """Symmetric small-integer dissimilarities: many exact ties in every
    BUILD gain and SWAP cost."""
    d = np.triu(rng.integers(0, 4, size=(n, n)).astype(np.float64), 1)
    return d + d.T


def test_pam_and_fanny_on_600_planted_series_match_oracle():
    d = planted_matrix(600, seed=600)  # the series count of the lib_many benchmark
    for k in (2, 3, 4, 5):
        assert_same_pam(d, k)
    assert_same_fanny(d, k=3)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_pam_and_fanny_on_tie_heavy_matrices_match_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    for n in (3, 4, 5, 6, 9, 14, 25):
        d = tie_heavy_matrix(rng, n)
        for k in sorted({*range(2, min(5, n) + 1), n}):
            assert_same_pam(d, k, seed)
        for k in sorted({*range(2, min(5, n - 1) + 1), n - 1}):
            assert_same_fanny(d, k=k, seed=seed, max_iter=40)
    assert_same_pam(np.zeros((7, 7)), 3, seed)


@pytest.mark.parametrize("seed, n, k, r", [(4, 8, 4, 2.0), (5, 6, 3, 3.0), (7, 8, 3, 2.0)])
def test_fanny_rollback_matches_oracle(seed, n, k, r):
    # a sweep that would raise the objective is undone and ends the run, so
    # the trace has no entry for it: n_iter entries, where a stop on
    # tolerance leaves n_iter + 1
    rng = np.random.default_rng(seed)
    d = {size: tie_heavy_matrix(rng, size) for size in (6, 8)}[n]
    res = assert_same_fanny(d, k=k, r=r)
    assert res.converged
    assert len(res.objective_trace) == res.n_iter


def test_pam_and_fanny_on_raw_nearly_symmetric_array_match_oracle():
    # allclose-symmetric but not exactly: the library reads columns of
    # this array, as the oracle does, not rows
    d = planted_matrix(45, seed=9).copy()
    rng = np.random.default_rng(9)
    upper = np.triu_indices(45, 1)
    d[upper] += rng.uniform(0.0, 1e-10, size=upper[0].size)
    assert not np.array_equal(d, d.T)
    for k in (2, 3, 4, 5, 45):
        assert_same_pam(d, k, seed=1)
    for k in (2, 3, 44):
        assert_same_fanny(d, k=k, seed=1)


@pytest.mark.parametrize("n", [6, 60, 240])
def test_fanny_matches_oracle(n):
    d = planted_matrix(n, seed=n)
    for k in (2, 3, 4):
        for r in (1.15, 2.0):
            res = assert_same_fanny(d, k=k, r=r)
            for labels in (res.crisp, pam(d, k).labels):
                if np.unique(labels).size >= 2:
                    got, want = silhouette(d, labels), oracle.silhouette(d, labels)
                    assert same_bytes(got.widths, want.widths)
                    assert got.average == want.average


def test_fanny_degenerate_and_extreme_matrices_match_oracle():
    assert_same_fanny(np.zeros((8, 8)), k=3)
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(5, 10))
        k = int(rng.integers(2, n))
        d = np.triu(np.where(rng.random((n, n)) < 0.5, 0.0, 2.0), 1)
        assert_same_fanny(d + d.T, k=k, max_iter=60)
    assert_same_fanny(planted_matrix(60, seed=1), k=3, max_iter=1)


def test_silhouette_singletons_and_zero_denominators_match_oracle():
    d = planted_matrix(30, seed=2)
    labels = np.repeat([0, 1, 2], 10)
    labels[[0, 29]] = [7, 9]  # two singleton clusters
    for mat, lab in ((d, labels), (np.zeros((6, 6)), np.array([0, 0, 1, 1, 2, 2]))):
        got, want = silhouette(mat, lab), oracle.silhouette(mat, lab)
        assert same_bytes(got.widths, want.widths)
        assert got.average == want.average

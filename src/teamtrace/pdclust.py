"""Permutation-distribution representation of time series, pairwise
divergence matrices, k-medoids (PAM) and fuzzy (FANNY-style) clustering,
and silhouette diagnostics.

A series is embedded as the frequency vector of ordinal patterns over
sliding windows of ``m`` values spaced ``delay`` apart: each window is
reduced to the permutation that sorts it (ties broken toward the earlier
index), so the representation is invariant under any positive affine
transform of the values and under the sampling rate of the series. Two
series are compared by the squared Hellinger distance between their
pattern distributions, which is symmetric and bounded by 2. One kernel
embeds every series: it concatenates consecutive series into bounded
batches and codes all windows of a batch with slice comparisons and one
bincount, so embedding a set is one linear pass over its values for fixed
m, and an N x N matrix adds one Gram product; numpy computes it as one
symmetric product, so only the diagonal is set. The matrix peaks at the
(N, m!) root frequencies plus one N x N buffer: the roots are written in
place and dropped after the product, and the divergences are formed in
that product's buffer. The m! columns stay, including patterns no series
shows, because dropping them changes how BLAS groups the product's sums
and so the last bits of the result. PAM's BUILD and SWAP are
array passes too: each step scores every candidate at once by row sums
that add the same values in the same order as a per-candidate loop, so
medoids, labels and costs are unchanged.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_CLUSTER_COUNT, DEFAULT_EMBED_DIM, DEFAULT_MEMBERSHIP_EXPONENT, MAX_EMBED_DIM,
    MIN_EMBED_DIM, outcome,
)

_FACTORIAL = tuple(math.factorial(i) for i in range(MAX_EMBED_DIM + 1))
# FANNY's starved-cluster floor; it keeps s*s out of the underflow-to-zero range.
_MASS_FLOOR = 1e-100


@dataclass(frozen=True)
class PermDistribution:
    """Normalized ordinal-pattern frequencies of one series."""

    m: int
    delay: int
    freqs: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_embedding(self.m, self.delay)
        f = np.asarray(self.freqs, dtype=np.float64)
        if f.shape != (_FACTORIAL[self.m],):
            raise ValueError(f"expected {_FACTORIAL[self.m]} frequencies for m={self.m}")
        if (f < 0).any() or abs(f.sum() - 1.0) > 1e-12:
            raise ValueError("frequencies must be non-negative and sum to 1")
        f.setflags(write=False)
        object.__setattr__(self, "freqs", f)


def _entropy(freqs: np.ndarray, m: int) -> float:
    f = freqs[freqs > 0]
    return float(-(f * np.log(f)).sum() / math.log(_FACTORIAL[m]))


def min_series_length(m: int, delay: int = 1) -> int:
    return (m - 1) * delay + 1


# Values per batch of the ordinal-pattern kernel: large enough that numpy
# call overhead is amortized over many series, small enough that the dense
# (series, m!) count and frequency arrays of a batch stay near 1 MB at m = 7
# (for a whole set of 600 series they would take 24 MB each).
_BLOCK_VALUES = 1 << 13


def _check_embedding(m: int, delay: int) -> None:
    if not MIN_EMBED_DIM <= m <= MAX_EMBED_DIM:
        raise ValueError(f"embedding dimension m must be in [{MIN_EMBED_DIM},{MAX_EMBED_DIM}]")
    if delay < 1:
        raise ValueError("delay must be at least 1")


def _as_series(series, m: int, delay: int) -> np.ndarray:
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.isfinite(x).all():
        raise ValueError("series values must be finite")
    if x.size < min_series_length(m, delay):
        raise ValueError(
            f"series of length {x.size} too short for m={m}, delay={delay} "
            f"(needs >= {min_series_length(m, delay)})"
        )
    return x


def _pattern_freqs(
    xs: Sequence[np.ndarray], m: int, delay: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Ordinal-pattern frequencies of checked series, in batches.

    Yields ``(first, freqs)`` where row j of ``freqs`` holds the pattern
    frequencies of ``xs[first + j]`` in lexicographic pattern order.
    Consecutive series are concatenated into batches of about
    ``_BLOCK_VALUES`` values; windows that cross a series boundary are
    dropped. For a window with values x_0..x_{m-1}, ties broken toward the
    earlier index, let inv[a] count b < a with x_b > x_a and later[a] count
    b > a with x_b < x_a. Then a sorts to position a - inv[a] + later[a],
    and the lexicographic rank of the sorting permutation is
    sum_a inv[a] * (m - 1 - position(a))!.
    """
    n_patterns = _FACTORIAL[m]
    span = (m - 1) * delay
    weights = np.array(_FACTORIAL[:m], dtype=np.int16)
    first = 0
    while first < len(xs):
        stop, size = first + 1, xs[first].size
        while stop < len(xs) and size + xs[stop].size <= _BLOCK_VALUES:
            size += xs[stop].size
            stop += 1
        block = xs[first:stop]
        values = np.concatenate(block)
        n_windows = values.size - span
        cols = [values[j * delay : j * delay + n_windows] for j in range(m)]
        inv = np.zeros((m, n_windows), dtype=np.int8)
        later = np.zeros((m, n_windows), dtype=np.int8)
        for a in range(1, m):
            for b in range(a):
                greater = cols[b] > cols[a]
                inv[a] += greater
                later[b] += greater
        code = np.zeros(n_windows, dtype=np.int16)
        for a in range(1, m):
            # m - 1 - position(a), a factorial index in 0..m-1
            code += inv[a] * weights[(m - 1 - a) + inv[a] - later[a]]
        lengths = np.array([x.size for x in block])
        owner = np.repeat(np.arange(len(block)), lengths)
        inside = owner[:n_windows] == owner[span:]
        keys = owner[:n_windows][inside] * n_patterns + code[inside]
        counts = np.bincount(keys, minlength=len(block) * n_patterns)
        yield first, counts.reshape(len(block), n_patterns) / (lengths - span)[:, None]
        first = stop


def perm_distribution(series, m: int = DEFAULT_EMBED_DIM, delay: int = 1) -> PermDistribution:
    """Ordinal pattern distribution of a series.

    Each window of ``m`` values spaced ``delay`` apart contributes the
    permutation that sorts it ascending, ties broken by earlier index
    first (a constant window yields the identity pattern). Frequencies
    are pattern counts over the number of windows. This is a batch of
    one through the same kernel ``distance_matrix`` and
    ``min_entropy_dimension`` use.
    """
    _check_embedding(m, delay)
    _, freqs = next(_pattern_freqs([_as_series(series, m, delay)], m, delay))
    return PermDistribution(m, delay, freqs[0])


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric divergence matrix with zero diagonal, entries in [0, 2]."""

    ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        n = len(self.ids)
        if v.shape != (n, n):
            raise ValueError(f"matrix shape {v.shape} does not match {n} ids")
        if not np.array_equal(v, v.T):
            raise ValueError("matrix must be symmetric")
        if np.diagonal(v).any():
            raise ValueError("diagonal must be zero")
        if (v < 0).any() or (v > 2).any():
            raise ValueError("divergences must lie in [0, 2]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def distance_matrix(
    series_set: Sequence,
    m: int = DEFAULT_EMBED_DIM,
    delay: int = 1,
    ids: Sequence[str] | None = None,
) -> DissimilarityMatrix:
    """All-pairs squared Hellinger divergence between pattern distributions.

    Every series is checked first, as ``perm_distribution`` checks it. The
    set is then embedded in batches of consecutive series (one linear
    pass over all values), and the pair divergences come from a Gram
    product of the root-frequency matrix.
    """
    _check_embedding(m, delay)
    if len(series_set) == 0:
        raise ValueError("need at least one series")
    if ids is None:
        ids = tuple(f"s{i}" for i in range(len(series_set)))
    else:
        ids = tuple(ids)
        if len(ids) != len(series_set):
            raise ValueError("ids length does not match series count")

    xs = [_as_series(series, m, delay) for series in series_set]
    roots = np.empty((len(xs), _FACTORIAL[m]))
    for first, freqs in _pattern_freqs(xs, m, delay):
        np.sqrt(freqs, out=roots[first : first + len(freqs)])
    d = roots @ roots.T
    del roots
    # d = clip(2 - 2 * gram, 0, 2) with a zero diagonal, computed in place
    np.multiply(d, 2.0, out=d)
    np.subtract(2.0, d, out=d)
    np.fill_diagonal(d, 0.0)
    np.clip(d, 0.0, 2.0, out=d)
    return DissimilarityMatrix(ids, d)


def min_entropy_dimension(series_set: Sequence, delay: int = 1) -> int:
    """Pick the embedding dimension in [MIN_EMBED_DIM, MAX_EMBED_DIM]
    minimizing mean normalized pattern entropy across the series set (ties
    go to the smaller m).

    Dimensions too large for the shortest series are dropped; a set that
    supports none is an error. Each series is checked once, as
    ``perm_distribution`` checks it, before any pattern is counted.
    """
    _check_embedding(MIN_EMBED_DIM, delay)
    if len(series_set) == 0:
        raise ValueError("need at least one series")
    shortest = min(len(s) for s in series_set)
    usable = [m for m in range(MIN_EMBED_DIM, MAX_EMBED_DIM + 1)
              if min_series_length(m, delay) <= shortest]
    if not usable:
        raise ValueError(
            f"shortest series (length {shortest}) cannot support any m in "
            f"[{MIN_EMBED_DIM},{MAX_EMBED_DIM}]"
        )
    xs = [_as_series(s, usable[0], delay) for s in series_set]
    best_m, best_h = usable[0], math.inf
    for m in usable:
        batches = _pattern_freqs(xs, m, delay)
        h = np.mean([_entropy(row, m) for _, freqs in batches for row in freqs])
        if h < best_h - 1e-15:
            best_m, best_h = m, float(h)
    return best_m


def _as_dissimilarity(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The matrix, and the C-contiguous array whose row h is its column h,
    so row sums add as ``d[:, h].sum()`` does. A ``DissimilarityMatrix`` is
    exactly symmetric and C-ordered, so it serves as both."""
    if isinstance(matrix, DissimilarityMatrix):
        return matrix.values, matrix.values
    d = np.asarray(matrix, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("dissimilarity matrix must be square")
    if not np.allclose(d, d.T, atol=1e-9):
        raise ValueError("dissimilarity matrix must be symmetric")
    if (d < 0).any():
        raise ValueError("dissimilarities must be non-negative")
    return d, np.ascontiguousarray(d.T)


def _tie_argmin(values: np.ndarray, rng: np.random.Generator) -> int:
    ties = np.flatnonzero(values == values.min())
    return int(ties[0] if ties.size == 1 else rng.choice(ties))


@dataclass(frozen=True)
class PamResult:
    medoids: tuple[int, ...]
    labels: np.ndarray = field(repr=False)
    cost: float


def pam(matrix, k: int, seed: int = 0) -> PamResult:
    """Partitioning around medoids: greedy BUILD then best-improvement
    SWAP to a local optimum of total dissimilarity to the nearest medoid.

    Deterministic for a given matrix; the seed only breaks exact ties.
    BUILD steps and SWAP medoids each score all candidates in one array pass.
    """
    d, cols = _as_dissimilarity(matrix)
    n = d.shape[0]
    if n < 2:
        raise ValueError(f"pam needs at least 2 series to cluster, got {n}")
    if not 2 <= k <= n:
        raise ValueError(f"k must be in [2, {n}], got {k}")
    rng = np.random.default_rng(seed)

    if k == n:
        medoids = tuple(range(n))
        return PamResult(medoids, np.arange(n), 0.0)
    work = np.empty_like(cols)

    # BUILD: start from the most central point, then repeatedly add the
    # candidate with the largest total reduction in nearest-medoid cost.
    first = _tie_argmin(d.sum(axis=1), rng)
    selected = [first]
    nearest = cols[first].copy()
    while len(selected) < k:
        gains = np.maximum(np.subtract(nearest, cols, out=work), 0.0, out=work).sum(axis=1)
        gains[selected] = -np.inf
        pick = _tie_argmin(-gains, rng)  # negation is exact: same ties, same draw
        selected.append(pick)
        nearest = np.minimum(nearest, cols[pick])

    # SWAP: replace (medoid, non-medoid) while total cost strictly drops.
    medoid_set = set(selected)
    cost = float(np.min(d[:, selected], axis=1).sum())
    improved = True
    while improved:
        improved = False
        best = (0.0, None, None)
        for mi in list(medoid_set):
            others = cols[[m for m in medoid_set if m != mi]].min(axis=0)
            deltas = np.minimum(others, cols, out=work).sum(axis=1) - cost
            # only a candidate below the best so far can win the scan
            for h in np.flatnonzero(deltas < best[0] - 1e-12).tolist():
                if h not in medoid_set and deltas[h] < best[0] - 1e-12:
                    best = (float(deltas[h]), mi, h)
        if best[1] is not None:
            medoid_set.discard(best[1])
            medoid_set.add(best[2])
            cost += best[0]
            improved = True

    medoids = tuple(sorted(medoid_set))
    labels = np.argmin(d[:, medoids], axis=1)
    cost = float(d[np.arange(n), np.asarray(medoids)[labels]].sum())
    return PamResult(medoids, labels, cost)


@dataclass(frozen=True)
class FuzzyResult:
    """Fuzzy membership clustering of a dissimilarity matrix."""

    memberships: np.ndarray = field(repr=False)
    objective: float
    crisp: np.ndarray = field(repr=False)
    converged: bool
    n_iter: int
    objective_trace: tuple[float, ...] = field(repr=False)
    start: PamResult = field(repr=False)  # the PAM partition memberships started from


def _fanny_state(d: np.ndarray, u: np.ndarray, r: float):
    """Membership powers p = u**r, s_v = sum_j p_jv, t = d @ p,
    num_v = sum_ij p_iv p_jv d(i,j) and the objective they give."""
    powers = u**r
    s = powers.sum(axis=0)
    t = d @ powers
    num = np.einsum("iv,iv->v", powers, t)
    # a cluster with no membership mass contributes nothing (0/0 limit)
    alive = s > _MASS_FLOOR
    return powers, s, t, num, float((num[alive] / (2.0 * s[alive])).sum())


def fanny(
    matrix,
    k: int = DEFAULT_CLUSTER_COUNT,
    r: float = DEFAULT_MEMBERSHIP_EXPONENT,
    tol: float = 1e-9,
    max_iter: int = 500,
    seed: int = 0,
) -> FuzzyResult:
    """Medoid-free fuzzy clustering by minimizing

        sum_v [ sum_ij u_iv^r u_jv^r d(i,j) ] / [ 2 sum_j u_jv^r ]

    over row-stochastic memberships, one object at a time. Memberships
    start from the PAM partition softened to 0.9 / 0.1 over the rest, so
    runs are reproducible for a given seed. Iteration stops when the
    relative objective change falls below ``tol``; the recorded objective
    sequence never increases (a sweep that would increase it due to
    numerical noise is rolled back and treated as converged).
    """
    d, cols = _as_dissimilarity(matrix)
    n = d.shape[0]
    if n < 3:
        raise ValueError(f"fanny needs at least 3 series to cluster, got {n}")
    if not 2 <= k < n:
        raise ValueError(f"k must be in [2, {n - 1}], got {k}")
    if not (math.isfinite(r) and r > 1.0):
        raise ValueError(f"membership exponent must be finite and exceed 1, got {r}")

    start = pam(matrix, k, seed)  # a DissimilarityMatrix is not checked again
    u = np.full((n, k), 0.1 / (k - 1))
    u[np.arange(n), start.labels] = 0.9

    powers, s, t, num, objective = _fanny_state(d, u, r)
    trace = [objective]
    sharp = 1.0 / (r - 1.0)

    converged = False
    sweeps = 0
    clusters = range(k)
    for sweeps in range(1, max_iter + 1):
        u_before = u.copy()
        # The per-object updates of s and num run on Python floats, which
        # round exactly as numpy float64 does for + - * /. Powers stay numpy
        # array operations: numpy's vectorized pow and libm's pow can differ
        # in the last bit. Each object's power row is read before its first
        # update in a sweep, so the sweep-start powers serve for every delta.
        # t is updated transposed, (k, n), so the rank-1 update runs along n.
        s, num = s.tolist(), num.tolist()
        t_by_cluster = t.T.copy()
        for i in range(n):
            ti = t_by_cluster[:, i].tolist()
            # per-cluster attraction; a starved cluster is never preferred
            a = [
                ti[v] / s[v] - num[v] / (2.0 * s[v] * s[v]) if s[v] > _MASS_FLOOR else math.inf
                for v in clusters
            ]
            amin = min(a)
            if amin == math.inf:  # every cluster starved: u**r underflowed everywhere
                raise ValueError(f"membership exponent r={r} too large: all cluster mass underflows")
            if amin <= 0:
                row = np.zeros(k)
                if max(a) - amin <= 1e-15:  # no direction preferred, no cluster starved
                    row[:] = 1.0 / k
                else:
                    row[a.index(amin)] = 1.0
            else:
                w = (amin / np.array(a)) ** sharp  # a starved cluster's weight is 0.0
                row = w / w.sum()
            delta_col = (row**r - powers[i])[:, None]
            delta = delta_col[:, 0].tolist()
            for v in clusters:
                num[v] += 2.0 * delta[v] * ti[v]
                s[v] += delta[v]
            t_by_cluster += delta_col * cols[i]
            u[i] = row

        # refresh aggregates to kill incremental drift, then evaluate
        powers, s, t, num, new_objective = _fanny_state(d, u, r)

        if new_objective > objective + 1e-12 * max(1.0, abs(objective)):
            u = u_before  # numerical floor reached; keep the better state
            converged = True
            break
        trace.append(new_objective)
        change = objective - new_objective
        objective = new_objective
        if change <= tol * max(1.0, abs(objective)):
            converged = True
            break

    u = u / u.sum(axis=1, keepdims=True)
    u.setflags(write=False)
    crisp = np.argmax(u, axis=1)
    crisp.setflags(write=False)
    return FuzzyResult(u, trace[-1], crisp, converged, sweeps, tuple(trace), start)


@dataclass(frozen=True)
class SilhouetteResult:
    widths: np.ndarray = field(repr=False)
    average: float


def silhouette(matrix, assignment) -> SilhouetteResult:
    """Per-point silhouette widths s = (b - a) / max(a, b) and their mean.

    a is the mean dissimilarity to the point's own cluster (excluding the
    point), b the smallest mean dissimilarity to any other cluster.
    Members of singleton clusters score 0, and so does every point of a
    one-cluster assignment, which has no other cluster to give b.
    """
    d, _ = _as_dissimilarity(matrix)
    labels = np.asarray(assignment)
    if labels.shape != (d.shape[0],):
        raise ValueError("assignment length does not match matrix size")
    # a plain np.unique imports numpy.ma on numpy 2.4; return_inverse does not
    clusters, own = np.unique(labels, return_inverse=True)

    onehot = (labels[:, None] == clusters[None, :]).astype(np.float64)
    sizes = onehot.sum(axis=0)
    totals = d @ onehot  # totals[i, c] = sum of d(i, members of c)

    points = np.arange(d.shape[0])
    own_size = sizes[own]
    # a singleton's a is never used; divide by 1 to keep it finite
    a = totals[points, own] / np.maximum(own_size - 1, 1)
    means = totals / sizes
    means[points, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    widths = np.zeros(d.shape[0])
    # b is infinite only when there is no other cluster
    np.divide(b - a, denom, out=widths, where=(own_size > 1) & (denom != 0) & (b < np.inf))
    widths.setflags(write=False)
    return SilhouetteResult(widths, float(widths.mean()))


@dataclass(frozen=True)
class ClusterSummary:
    cluster: int
    size: int
    mean_of_series_means: float
    variance_of_series_means: float
    mean_duration_s: float
    facets: dict[str, int]


@dataclass(frozen=True)
class ClusterReport:
    clusters: tuple[ClusterSummary, ...]
    silhouette: SilhouetteResult


def cluster_report(
    series_set: Sequence,
    assignment,
    matrix,
    labels: Sequence[tuple],
) -> ClusterReport:
    """Describe each cluster: size, mean and variance of the member series
    means, mean series duration, and counts faceted by the (tier, won)
    labels; plus the silhouette of the crisp labels."""
    crisp = np.asarray(getattr(assignment, "crisp", assignment))
    values = [np.asarray(s, dtype=np.float64) for s in series_set]
    if len(values) != crisp.size:
        raise ValueError("assignment length does not match series count")
    if len(labels) != len(values):
        raise ValueError("labels length does not match series count")

    summaries = []
    for c in sorted(set(crisp.tolist())):
        members = np.flatnonzero(crisp == c)
        means = np.array([values[i].mean() for i in members])
        durations = np.array([values[i].size - 1 for i in members], dtype=np.float64)
        facets: Counter[str] = Counter()
        for i in members:
            tier, won = labels[i]
            facets[f"{tier}/{outcome(won)}"] += 1
        summaries.append(
            ClusterSummary(
                cluster=int(c),
                size=int(members.size),
                mean_of_series_means=float(means.mean()),
                variance_of_series_means=float(means.var(ddof=1)) if members.size > 1 else 0.0,
                mean_duration_s=float(durations.mean()),
                facets=dict(sorted(facets.items())),
            )
        )
    return ClusterReport(tuple(summaries), silhouette(matrix, crisp))

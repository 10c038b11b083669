"""Reference copies of the loop-based pdclust paths, kept as test oracles.

These are the per-series ordinal-pattern ranking (a fancy-index gather plus
a stable argsort per series), the FANNY sweep on numpy k-vectors and the
per-point silhouette loop. The library computes the same numbers with
batched array code; the tests in ``test_pdclust_oracle.py`` require equal
bytes, so every function here must stay exactly as written.
"""
from __future__ import annotations

import math

import numpy as np

from teamtrace.pdclust import (
    DissimilarityMatrix,
    FuzzyResult,
    SilhouetteResult,
    _as_dissimilarity,
    min_series_length,
    pam,
)

_FACTORIAL = (1, 1, 2, 6, 24, 120, 720, 5040)


def _pattern_ranks(x: np.ndarray, m: int, delay: int) -> np.ndarray:
    """Lexicographic rank of the sorting permutation of every window."""
    n_windows = x.size - (m - 1) * delay
    idx = np.arange(n_windows)[:, None] + np.arange(m)[None, :] * delay
    perms = np.argsort(x[idx], axis=1, kind="stable")
    ranks = np.zeros(n_windows, dtype=np.int64)
    for j in range(m - 1):
        smaller_after = np.zeros(n_windows, dtype=np.int64)
        for l in range(j + 1, m):
            smaller_after += perms[:, l] < perms[:, j]
        ranks += smaller_after * _FACTORIAL[m - 1 - j]
    return ranks


def pattern_freqs(series, m: int, delay: int = 1) -> np.ndarray:
    """Pattern frequencies of one series, lexicographic pattern order."""
    ranks = _pattern_ranks(np.asarray(series, dtype=np.float64), m, delay)
    return np.bincount(ranks, minlength=_FACTORIAL[m]) / ranks.size


def entropy(freqs: np.ndarray, m: int) -> float:
    f = freqs[freqs > 0]
    return float(-(f * np.log(f)).sum() / math.log(_FACTORIAL[m]))


def distance_matrix(series_set, m: int, delay: int = 1) -> DissimilarityMatrix:
    roots = np.empty((len(series_set), _FACTORIAL[m]))
    for i, series in enumerate(series_set):
        roots[i] = np.sqrt(pattern_freqs(series, m, delay))
    gram = roots @ roots.T
    d = 2.0 - 2.0 * gram
    d = np.triu(d, k=1)
    d = np.clip(d + d.T, 0.0, 2.0)
    return DissimilarityMatrix(tuple(f"s{i}" for i in range(len(series_set))), d)


def min_entropy_dimension(series_set, m_values=range(2, 8), delay: int = 1) -> int:
    ms = sorted(set(m_values))
    shortest = min(len(s) for s in series_set)
    usable = [m for m in ms if min_series_length(m, delay) <= shortest]
    best_m, best_h = usable[0], math.inf
    for m in usable:
        h = np.mean([entropy(pattern_freqs(s, m, delay), m) for s in series_set])
        if h < best_h - 1e-15:
            best_m, best_h = m, float(h)
    return best_m


def _fanny_objective(d: np.ndarray, powers: np.ndarray) -> float:
    s = powers.sum(axis=0)
    t = d @ powers
    num = np.einsum("iv,iv->v", powers, t)
    # a cluster with no membership mass contributes nothing (0/0 limit)
    alive = s > 1e-100
    return float((num[alive] / (2.0 * s[alive])).sum())


def fanny(
    matrix,
    k: int = 3,
    r: float = 1.15,
    tol: float = 1e-9,
    max_iter: int = 500,
    seed: int = 0,
) -> FuzzyResult:
    d = _as_dissimilarity(matrix)
    n = d.shape[0]
    if not 2 <= k < n:
        raise ValueError(f"k must be in [2, {n - 1}], got {k}")
    if r <= 1.0:
        raise ValueError("membership exponent must exceed 1")

    start = pam(d, k, seed)
    u = np.full((n, k), 0.1 / (k - 1))
    u[np.arange(n), start.labels] = 0.9

    powers = u**r
    s = powers.sum(axis=0)
    t = d @ powers
    num = np.einsum("iv,iv->v", powers, t)
    objective = _fanny_objective(d, powers)
    trace = [objective]
    sharp = 1.0 / (r - 1.0)

    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        u_before = u.copy()
        for i in range(n):
            # per-cluster attraction; a starved cluster is never preferred
            # (the floor keeps s*s out of the underflow-to-zero range)
            alive = s > 1e-100
            a = np.full(k, np.inf)
            a[alive] = t[i, alive] / s[alive] - num[alive] / (2.0 * s[alive] * s[alive])
            amin = a.min()
            if amin <= 0:
                row = np.zeros(k)
                finite = a[np.isfinite(a)]
                if finite.max() - amin <= 1e-15 and finite.size == k:
                    row[:] = 1.0 / k  # fully degenerate: no direction preferred
                else:
                    row[int(np.argmin(a))] = 1.0
            else:
                w = np.where(np.isfinite(a), (amin / a) ** sharp, 0.0)
                row = w / w.sum()
            delta = row**r - powers[i]
            num += 2.0 * delta * t[i]
            s += delta
            t += np.outer(d[:, i], delta)
            powers[i] = row**r
            u[i] = row

        # refresh aggregates to kill incremental drift, then evaluate
        powers = u**r
        s = powers.sum(axis=0)
        t = d @ powers
        num = np.einsum("iv,iv->v", powers, t)
        new_objective = _fanny_objective(d, powers)

        if new_objective > objective + 1e-12 * max(1.0, abs(objective)):
            u = u_before  # numerical floor reached; keep the better state
            powers = u**r
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
    return FuzzyResult(k, r, u, trace[-1], crisp, converged, sweeps, tuple(trace), start)


def silhouette(matrix, assignment) -> SilhouetteResult:
    d = _as_dissimilarity(matrix)
    labels = np.asarray(assignment)
    if labels.shape != (d.shape[0],):
        raise ValueError("assignment length does not match matrix size")
    clusters = np.unique(labels)
    if clusters.size < 2:
        raise ValueError("silhouette needs at least 2 clusters")

    onehot = (labels[:, None] == clusters[None, :]).astype(np.float64)
    sizes = onehot.sum(axis=0)
    totals = d @ onehot  # totals[i, c] = sum of d(i, members of c)
    own = np.searchsorted(clusters, labels)

    widths = np.zeros(d.shape[0])
    for i in range(d.shape[0]):
        c = own[i]
        if sizes[c] <= 1:
            continue
        a = totals[i, c] / (sizes[c] - 1)
        other = np.delete(totals[i] / sizes, c)
        b = float(other.min())
        denom = max(a, b)
        widths[i] = 0.0 if denom == 0 else (b - a) / denom
    widths.setflags(write=False)
    return SilhouetteResult(widths, float(widths.mean()))

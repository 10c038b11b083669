"""Reference copies of the loop-based pdclust paths, kept as test oracles.

These are the per-series ordinal-pattern ranking (a fancy-index gather plus
a stable argsort per series), PAM with one gather and one sum per BUILD
candidate and per SWAP trial, the FANNY sweep on numpy k-vectors (started
from that PAM) and the per-point silhouette loop. The library computes the
same numbers with batched array code; the tests in
``test_pdclust_oracle.py`` require equal bytes, so every function here must
stay exactly as written.

It also holds two helpers only the tests need: the pairwise divergence of
two distributions and a reader for the ``dissimilarity.csv`` that
``teamtrace cluster`` writes.
"""
from __future__ import annotations

import csv
import math
from typing import TextIO

import numpy as np

from teamtrace.pdclust import (
    DissimilarityMatrix,
    FuzzyResult,
    PamResult,
    PermDistribution,
    SilhouetteResult,
    _as_dissimilarity,
    min_series_length,
)

_FACTORIAL = (1, 1, 2, 6, 24, 120, 720, 5040)


def pd_divergence(p: PermDistribution, q: PermDistribution) -> float:
    """Squared Hellinger distance sum((sqrt(p)-sqrt(q))^2), in [0, 2]."""
    if p.m != q.m or p.delay != q.delay:
        raise ValueError(
            f"distributions not comparable: m={p.m},delay={p.delay} "
            f"vs m={q.m},delay={q.delay}"
        )
    d = np.sqrt(p.freqs) - np.sqrt(q.freqs)
    return float((d * d).sum())


def read_matrix_csv(inp: TextIO) -> DissimilarityMatrix:
    reader = csv.reader(inp)
    ids = tuple(next(reader))
    rows = [[float(v) for v in row] for row in reader]
    return DissimilarityMatrix(ids, np.asarray(rows, dtype=np.float64))


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


def _tie_argmin(values: np.ndarray, rng: np.random.Generator) -> int:
    ties = np.flatnonzero(values == values.min())
    return int(ties[0] if ties.size == 1 else rng.choice(ties))


def _tie_argmax(values: np.ndarray, rng: np.random.Generator) -> int:
    ties = np.flatnonzero(values == values.max())
    return int(ties[0] if ties.size == 1 else rng.choice(ties))


def pam(matrix, k: int, seed: int = 0) -> PamResult:
    d, _ = _as_dissimilarity(matrix)
    n = d.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k must be in [2, {n}], got {k}")
    rng = np.random.default_rng(seed)

    if k == n:
        medoids = tuple(range(n))
        return PamResult(medoids, np.arange(n), 0.0)

    # BUILD: start from the most central point, then repeatedly add the
    # candidate with the largest total reduction in nearest-medoid cost.
    first = _tie_argmin(d.sum(axis=1), rng)
    selected = [first]
    nearest = d[:, first].copy()
    while len(selected) < k:
        gains = np.full(n, -np.inf)
        for cand in range(n):
            if cand in selected:
                continue
            gains[cand] = np.maximum(nearest - d[:, cand], 0.0).sum()
        pick = _tie_argmax(gains, rng)
        selected.append(pick)
        nearest = np.minimum(nearest, d[:, pick])

    # SWAP: replace (medoid, non-medoid) while total cost strictly drops.
    medoid_set = set(selected)
    cost = float(np.min(d[:, selected], axis=1).sum())
    improved = True
    while improved:
        improved = False
        best = (0.0, None, None)
        for mi in list(medoid_set):
            others = [m for m in medoid_set if m != mi]
            for h in range(n):
                if h in medoid_set:
                    continue
                trial = others + [h]
                trial_cost = float(np.min(d[:, trial], axis=1).sum())
                delta = trial_cost - cost
                if delta < best[0] - 1e-12:
                    best = (delta, mi, h)
        if best[1] is not None:
            medoid_set.discard(best[1])
            medoid_set.add(best[2])
            cost += best[0]
            improved = True

    medoids = tuple(sorted(medoid_set))
    labels = np.argmin(d[:, medoids], axis=1)
    cost = float(d[np.arange(n), np.asarray(medoids)[labels]].sum())
    return PamResult(medoids, labels, cost)


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
    d, _ = _as_dissimilarity(matrix)
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
    return FuzzyResult(u, trace[-1], crisp, converged, sweeps, tuple(trace), start)


def silhouette(matrix, assignment) -> SilhouetteResult:
    d, _ = _as_dissimilarity(matrix)
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

"""Density fingerprints: exact piecewise-linear psi_k for 1D periodic sets
and a seeded Monte-Carlo estimator of psi_k in higher dimensions, whose one
KD-tree query, on the reduced cell's cloud, serves every k up to the largest.

psi_k(t) is the fraction of the unit cell covered by exactly k closed balls
of radius t centered at the points of the set.  In 1D every psi_k is one
sum of ramps v0 + sum_j c_j max(t - b_j, 0) with integer slope changes c_j,
with a corner only where they do not cancel: psi_0 = sum_i max(g_i - 2t, 0)
over the gaps g_i, and each psi_k (k >= 1) is a sum of m trapezoids whose
start s counts whole periods when k > m.  Exact mode builds every psi_k in
one pass: the ramp sums of psi_0..psi_K are the rows of one (K + 1, 4m)
array, sorted, summed and split into corner lists together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import (BLOCK_ENTRIES, PeriodicSet, check_limit, fold_fractions,
                   neighbor_cloud)

CORNER_TOL = 1e-12


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by its corner list.

    Linear between corners, constant before the first and after the last.
    """

    corners: np.ndarray  # (k, 2) with strictly increasing t

    def __post_init__(self):
        object.__setattr__(self, "corners", np.asarray(self.corners, dtype=float))

    @property
    def ts(self) -> np.ndarray:
        return self.corners[:, 0]

    @property
    def values(self) -> np.ndarray:
        return self.corners[:, 1]

    def __call__(self, t):
        return np.interp(t, self.ts, self.values)


def _ramp_rows(v0, breaks, slopes):
    """Row r of the (R, n) breaks and integer slopes is the ramp sum
    v0[r] + sum_j slopes[r, j] * max(t - breaks[r, j], 0) from its first
    break on, valued at its sorted breaks by one cumulative sum of slope x
    gap.  A run of breaks, each within CORNER_TOL times the row's span (or a
    few ulps of its largest t) of the one before, is one corner, so a shift
    by whole periods keeps every corner.  Besides each row's first and last,
    a corner stays only when its integer slope changes sum to nonzero.

    One stable sort, two cumulative sums and one np.add.reduceat serve every
    row.  Returns the corners of all rows stacked, (N, 2), and their
    cumulative counts per row, ends: row r's corners end at ends[r]."""
    rows = np.arange(len(breaks))[:, None]
    order = np.argsort(breaks, axis=1, kind="stable")
    b, c = breaks[rows, order], slopes[rows, order]
    gap = np.diff(b, axis=1)
    values = np.zeros_like(b)
    np.cumsum(np.cumsum(c, axis=1)[:, :-1] * gap, axis=1, out=values[:, 1:])
    values += np.asarray(v0, dtype=float)[:, None]
    tol = np.maximum(CORNER_TOL * np.maximum(1.0, b[:, -1] - b[:, 0]),
                     4 * np.spacing(np.abs(b[:, -1])))
    new = np.ones(b.shape, dtype=bool)
    np.greater(gap, tol[:, None], out=new[:, 1:])
    starts = np.flatnonzero(new)
    # every row's first and last corner stays
    first = starts % b.shape[1] == 0
    keep = np.add.reduceat(c.ravel(), starts) != 0
    keep |= first
    keep[:-1] |= first[1:]
    keep[-1] = True
    at = starts[keep]
    corners = np.column_stack([b.ravel()[at], values.ravel()[at]])
    # summation dust below the corner tolerance is an exact zero
    corners[np.abs(corners[:, 1]) <= CORNER_TOL, 1] = 0.0
    return corners, np.cumsum(np.bincount(at // b.shape[1], minlength=len(b)))


def _psi0_row(gaps, width: int):
    """Breaks and slope changes of psi_0 = sum_i max(g_i - 2t, 0): -2m at
    t = 0 and +2 at each g_i / 2, padded to width with zero-slope copies of
    the largest break."""
    m = len(gaps)
    breaks = np.full(width, 0.5 * gaps.max())
    breaks[0], breaks[1:m + 1] = 0.0, 0.5 * gaps
    slopes = np.zeros(width, dtype=np.int64)
    slopes[0], slopes[1:m + 1] = -2 * m, 2
    return breaks, slopes


def _trapezoid_row(d_prev, s, d_next):
    """Breaks and slope changes of the sum of the trapezoids
    eta(d_prev[j], s[j], d_next[j]), along the last axis: each adds +2, -2,
    -2, +2 at s/2, (s + lo)/2, (s + hi)/2 and (s + lo + hi)/2, lo and hi
    the smaller and larger of d_prev and d_next."""
    lo, hi = np.minimum(d_prev, d_next), np.maximum(d_prev, d_next)
    breaks = 0.5 * np.concatenate([s, s + lo, s + hi, s + d_prev + d_next], axis=-1)
    return breaks, np.repeat([2, -2, -2, 2], np.shape(s)[-1])


def _one_ramp(v0: float, breaks, slopes) -> PiecewiseLinear:
    return PiecewiseLinear(_ramp_rows([v0], breaks[None], slopes[None])[0])


def psi0_1d(gaps) -> PiecewiseLinear:
    """psi_0 of a 1D set with the given gap lengths (period scaled to 1):
    the ramp sum sum_i max(g_i - 2t, 0), 1 at t = 0."""
    gaps = np.asarray(gaps, dtype=float)
    if np.any(gaps <= 0):
        raise ValueError("gaps must be positive")
    if abs(gaps.sum() - 1.0) > 1e-9:
        raise ValueError("gaps must sum to the period 1")
    return _one_ramp(1.0, *_psi0_row(gaps, len(gaps) + 1))


def trapezoid(d_prev: float, s: float, d_next: float) -> PiecewiseLinear:
    """Trapezoid eta(d_prev, s, d_next): zero until s/2, plateau at
    min(d_prev, d_next), zero again at (d_prev + s + d_next)/2."""
    if d_prev < 0 or s < 0 or d_next < 0:
        raise ValueError("trapezoid arguments must be non-negative")
    triple = np.array([[d_prev], [s], [d_next]], dtype=float)
    return _one_ramp(0.0, *_trapezoid_row(*triple))


@dataclass(frozen=True)
class DensityFingerprint1D:
    """Gap representation of a 1D periodic set scaled to period 1."""

    points: np.ndarray  # sorted fractional positions in [0, 1)
    period: float       # original period, for reporting in input units

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=float) % 1.0)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_set(cls, S: PeriodicSet) -> "DensityFingerprint1D":
        if S.dim != 1:
            raise ValueError("density fingerprints are exact only in 1D")
        return cls(S.motif[:, 0], abs(float(S.cell.basis[0, 0])))

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def gaps(self) -> np.ndarray:
        ext = np.concatenate([self.points, [self.points[0] + 1.0]])
        return np.diff(ext)

    def trapezoid_triples(self, k: int) -> np.ndarray:
        """(d_{i-1}, s, d_{i+k-1}) for i = 1..m, indices mod m, k >= 1, as
        an (m, 3) array; s, the sum of the k - 1 gaps from i on, counts
        whole periods when k > m."""
        d_prev, s, d_next = _triple_rows(self.gaps, [k])
        return np.column_stack([d_prev, s[0], d_next[0]])

    def psi(self, k: int) -> PiecewiseLinear:
        return psi_k_1d(self, k)


def _triple_rows(g, ks):
    """trapezoid_triples' columns for gaps g and every k >= 1 of ks:
    d_prev (m,), and s and d_next (len(ks), m)."""
    m = len(g)
    i = np.arange(m)
    periods, r = np.divmod(np.asarray(ks)[:, None] - 1, m)
    cum = np.concatenate([[0.0], g, g]).cumsum()
    return g[i - 1], periods + (cum[i + r] - cum[i]), g[(i + r) % m]


def _psi_rows(F: DensityFingerprint1D, ks):
    """Exact psi_k of F for every k >= 0 of ks from one _ramp_rows pass
    over a (len(ks), 4m) array: row k >= 1 holds the breaks of the m
    trapezoids of trapezoid_triples(k), and row k = 0 psi_0's m + 1 breaks
    padded with zero-slope copies of its largest.  Returns _ramp_rows'
    stacked corners and ends."""
    ks, g = np.asarray(ks, dtype=np.int64), F.gaps
    breaks, slopes = _trapezoid_row(*_triple_rows(g, np.maximum(ks, 1)))
    slopes = np.tile(slopes, (len(ks), 1))
    zero = ks == 0
    if zero.any():
        breaks[zero], slopes[zero] = _psi0_row(g, breaks.shape[1])
    return _ramp_rows(zero.astype(float), breaks, slopes)


def psi_k_1d(F: DensityFingerprint1D, k: int) -> PiecewiseLinear:
    """Exact psi_k of a 1D set: _psi_rows' one row, psi_0 from the gaps
    and for k >= 1 the sum of the m trapezoids of trapezoid_triples(k)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return PiecewiseLinear(_psi_rows(F, [k])[0])


def _as_fingerprint(obj) -> DensityFingerprint1D:
    if isinstance(obj, DensityFingerprint1D):
        return obj
    return DensityFingerprint1D.from_set(obj)


def fingerprints_equal_1d(S, Q, tol: float = 1e-9) -> bool:
    """Whether two 1D sets (period scaled to 1) share every psi_k.

    By symmetry and periodicity it is enough to compare k = 0..max(m)/2 at
    the union of both corner grids; each set's psi_k come from one
    _psi_rows call.
    """
    FS, FQ = _as_fingerprint(S), _as_fingerprint(Q)
    ks = np.arange(max(FS.m, FQ.m) // 2 + 1)
    (cs, es), (cq, eq) = _psi_rows(FS, ks), _psi_rows(FQ, ks)
    for ps, pq in zip(np.split(cs, es[:-1]), np.split(cq, eq[:-1])):
        ts = np.unique(np.concatenate([[0.0], ps[:, 0], pq[:, 0]]))
        if not np.allclose(np.interp(ts, *ps.T), np.interp(ts, *pq.T),
                           rtol=0.0, atol=tol):
            return False
    return True


def psi_sampled(S: PeriodicSet, kmax: int, t_grid, samples: int, seed: int = 0):
    """Monte-Carlo psi_0..psi_kmax straight from the definition, any n <= 3.

    Stratified jittered (Latin hypercube) sample points in the cell; for
    each t the estimate of psi_k is the fraction of samples covered by
    exactly k balls, with its binomial standard error.  Deterministic under
    `seed`.  Returns one list of (t, estimate, stderr) rows per k.

    A sample is covered by exactly k balls when d_k <= t < d_{k+1}, d_j
    being its distance to the j-th nearest point, and as d_k <= d_{k+1}
    their count is #{d_k <= t} - #{d_{k+1} <= t}.  So one KD-tree query
    for d_1..d_{kmax+1}, in sample blocks of at most BLOCK_ENTRIES
    distances, and one searchsorted per sorted column serve every k and t.
    The query asks for at most the cloud's size: deeper d_j are infinite.
    Samples drawn in the given cell are folded into the reduced cell, and
    the cloud is S.reduced's.  Rows of (kmax + 1) x len(t_grid) x 3 numbers
    past MAX_ENUMERATION raise DataError before anything is drawn.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if kmax < 0:
        raise ValueError("k must be non-negative")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    size = 3 * len(t_grid) * (int(kmax) + 1)
    check_limit(size, f"k {kmax} on {len(t_grid)} radii gives {size} numbers")
    rng = np.random.default_rng(seed)
    n = S.dim
    frac = np.empty((samples, n))
    for axis in range(n):
        frac[:, axis] = (rng.permutation(samples) + rng.random(samples)) / samples
    xs = fold_fractions(frac @ S.cell._reduction[1]) @ S.reduced.cell.basis
    cloud, _ = neighbor_cloud(S.reduced, float(t_grid.max()) * (1 + 1e-9))
    depth = min(kmax + 1, len(cloud))
    # covered[j] = #{d_j <= t}; every sample is covered by at least 0 balls
    covered = np.zeros((kmax + 2, len(t_grid)), dtype=np.int64)
    covered[0] = samples
    if depth:
        tree = cKDTree(cloud)
        rows = max(1, BLOCK_ENTRIES // depth)
        for start in range(0, samples, rows):
            dist = tree.query(xs[start:start + rows], k=depth)[0].reshape(-1, depth)
            dist.sort(axis=0)
            for j in range(depth):
                covered[j + 1] += np.searchsorted(dist[:, j], t_grid, side="right")
    est = (covered[:-1] - covered[1:]) / samples
    stderr = np.sqrt(est * (1.0 - est) / samples)
    ts = t_grid.tolist()
    return [list(zip(ts, e, s)) for e, s in zip(est.tolist(), stderr.tolist())]


def psi_k_sampled(S: PeriodicSet, k: int, t_grid, samples: int, seed: int = 0):
    """psi_sampled's rows of psi_k alone."""
    return psi_sampled(S, k, t_grid, samples, seed)[k]

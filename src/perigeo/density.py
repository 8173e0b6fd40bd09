"""Density fingerprints: exact piecewise-linear psi_k for 1D periodic sets
and a seeded Monte-Carlo estimator of psi_k in higher dimensions, whose one
KD-tree query serves every k up to the largest asked for.

psi_k(t) is the fraction of the unit cell covered by exactly k closed balls
of radius t centered at the points of the set.  In 1D every psi_k is
piecewise linear: psi_0 comes from the sorted gap lengths and each psi_k
(1 <= k <= m) is a sum of m trapezoid functions; larger k reduce by
periodicity psi_{k+m}(t + 1/2) = psi_k(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import BLOCK_ENTRIES, PeriodicSet, neighbor_cloud

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

    def shift(self, dt: float) -> "PiecewiseLinear":
        out = self.corners.copy()
        out[:, 0] += dt
        return PiecewiseLinear(out)

    def scale_t(self, factor: float) -> "PiecewiseLinear":
        out = self.corners.copy()
        out[:, 0] *= factor
        return PiecewiseLinear(out)


def make_pwl(points) -> PiecewiseLinear:
    """Canonical PiecewiseLinear: sorted corners, duplicates collapsed,
    collinear interior corners pruned."""
    pts = sorted((float(t), float(v)) for t, v in points)
    scale = max(1.0, abs(pts[-1][0]))
    merged = []
    for t, v in pts:
        if merged and t - merged[-1][0] <= CORNER_TOL * scale:
            continue
        merged.append((t, v))
    pruned = [merged[0]]
    for j in range(1, len(merged) - 1):
        t0, v0 = pruned[-1]
        t1, v1 = merged[j]
        t2, v2 = merged[j + 1]
        interp = v0 + (v2 - v0) * (t1 - t0) / (t2 - t0)
        if abs(v1 - interp) > CORNER_TOL:
            pruned.append(merged[j])
    if len(merged) > 1:
        pruned.append(merged[-1])
    corners = np.array(pruned)
    # summation dust below the corner tolerance is an exact zero
    corners[np.abs(corners[:, 1]) <= CORNER_TOL, 1] = 0.0
    return PiecewiseLinear(corners)


def pwl_sum(parts) -> PiecewiseLinear:
    """Pointwise sum of piecewise-linear functions (shared corner grid)."""
    parts = list(parts)
    ts = np.unique(np.concatenate([p.ts for p in parts]))
    total = np.zeros_like(ts)
    for p in parts:
        total += p(ts)
    return make_pwl(np.column_stack([ts, total]))


def psi0_1d(gaps) -> PiecewiseLinear:
    """psi_0 of a 1D set with the given gap lengths (period scaled to 1)."""
    gaps = np.asarray(gaps, dtype=float)
    if np.any(gaps <= 0):
        raise ValueError("gaps must be positive")
    if abs(gaps.sum() - 1.0) > 1e-9:
        raise ValueError("gaps must sum to the period 1")
    d = np.sort(gaps)
    m = len(d)
    corners = [(0.0, 1.0)]
    prefix = 0.0
    for i in range(m):
        value = 1.0 - prefix - (m - i) * d[i]
        corners.append((0.5 * d[i], max(0.0, value)))
        prefix += d[i]
    return make_pwl(corners)


def trapezoid(d_prev: float, s: float, d_next: float) -> PiecewiseLinear:
    """Trapezoid eta(d_prev, s, d_next): zero until s/2, plateau at
    min(d_prev, d_next), zero again at (d_prev + s + d_next)/2."""
    if d_prev < 0 or s < 0 or d_next < 0:
        raise ValueError("trapezoid arguments must be non-negative")
    delta = min(d_prev, d_next)
    corners = [
        (0.5 * s, 0.0),
        (0.5 * (d_prev + s), delta),
        (0.5 * (s + d_next), delta),
        (0.5 * (d_prev + s + d_next), 0.0),
    ]
    return make_pwl(corners)


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

    def trapezoid_triples(self, k: int):
        """(d_{i-1}, s, d_{i+k-1}) for i = 1..m, indices mod m."""
        g = self.gaps
        m = self.m
        triples = []
        for i in range(m):
            d_prev = g[(i - 1) % m]
            s = sum(g[(i + j) % m] for j in range(k - 1))
            d_next = g[(i + k - 1) % m]
            triples.append((float(d_prev), float(s), float(d_next)))
        return triples

    def psi(self, k: int) -> PiecewiseLinear:
        return psi_k_1d(self, k)


def psi_k_1d(F: DensityFingerprint1D, k: int) -> PiecewiseLinear:
    """Exact psi_k of a 1D set: gap formula for k = 0, trapezoid sum for
    1 <= k <= m, half-period shift for k > m."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return psi0_1d(F.gaps)
    if k > F.m:
        return psi_k_1d(F, k - F.m).shift(0.5)
    parts = [trapezoid(*triple) for triple in F.trapezoid_triples(k)]
    return pwl_sum(parts)


def _as_fingerprint(obj) -> DensityFingerprint1D:
    if isinstance(obj, DensityFingerprint1D):
        return obj
    return DensityFingerprint1D.from_set(obj)


def fingerprints_equal_1d(S, Q, tol: float = 1e-9) -> bool:
    """Whether two 1D sets (period scaled to 1) share every psi_k.

    By symmetry and periodicity it is enough to compare k = 0..max(m)/2 at
    the union of both corner grids.
    """
    FS, FQ = _as_fingerprint(S), _as_fingerprint(Q)
    kmax = max(FS.m, FQ.m) // 2
    for k in range(kmax + 1):
        ps, pq = FS.psi(k), FQ.psi(k)
        ts = np.unique(np.concatenate([[0.0], ps.ts, pq.ts]))
        if not np.allclose(ps(ts), pq(ts), rtol=0.0, atol=tol):
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
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if kmax < 0:
        raise ValueError("k must be non-negative")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    rng = np.random.default_rng(seed)
    n = S.dim
    frac = np.empty((samples, n))
    for axis in range(n):
        frac[:, axis] = (rng.permutation(samples) + rng.random(samples)) / samples
    xs = frac @ S.cell.basis
    cloud, _ = neighbor_cloud(S, float(t_grid.max()) * (1 + 1e-9) + 1e-12)
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

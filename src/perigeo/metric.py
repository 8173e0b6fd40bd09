"""Distances between clusters, isometry classes, isosets and periodic sets.

Two d_R engines are provided.  The exact-small engine is exact in 1D.  In
2D it is an interval branch-and-bound over the rotation angle, for
rotations and reflections alike: nearest-point distances are evaluated
only at interval ends, and each point's least distance over an interval is
known exactly, because |R(t)p - q| is smallest at an end unless the angle
that aligns p with q lies inside, where it is ||p| - |q||.  The running max
of those per-point values bounds every prefix from below, so a 2D value
is certified to within 1e-9 max(1, |p|max), or, near zero, to within the
float floor of the inner-product distances (about 1e-8 |p|max).  In 3D it
is a search over a random rotation sample and the approximation engine's
maps with local refinement, which carries no certificate.  The
approximation engine implements the anchor construction whose value is
guaranteed within a factor 2(n-1) of the optimum (reported with a
(1+delta) cushion).

The boundary-tolerant cluster distance d_C is the max of two one-sided
max-min evaluations over length-sorted cluster prefixes, and EMD on
isosets is solved exactly as a transportation linear program (HiGHS) on
integer-scaled weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from .isoset import Cluster, IsometryClass, Isoset

EXACT_SMALL_MAX = 60   # cluster-size cutoff for the exact-small engine
DEFAULT_DELTA = 0.1
GRID_3D = 4096         # base rotation sample for the 3D exact engine
BNB_INTERVALS_2D = 64  # initial angle intervals of the 2D branch-and-bound
# narrowest 2D interval (about 2.6e-9 rad): |P|max times it lies below the
# float floor of the inner-product distances, about 1e-8 |P|max, so
# narrower intervals would resolve nothing
BNB_MIN_WIDTH_2D = 2 * math.pi / 512 / 3 ** 14


def _points(obj) -> np.ndarray:
    if isinstance(obj, IsometryClass):
        obj = obj.representative
    if isinstance(obj, Cluster):
        return obj.points
    pts = np.asarray(obj, dtype=float)
    return np.atleast_2d(pts)


def directed_hausdorff(C, D) -> float:
    """max over p in C of the distance from p to the nearest point of D."""
    P, Q = _points(C), _points(D)
    if P.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("directed Hausdorff distance needs non-empty sets")
    dist, _ = cKDTree(Q).query(P)
    return float(np.max(dist))


# ---------------------------------------------------------------------------
# rotation machinery (2D)


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _ref2(phi: float) -> np.ndarray:
    c, s = math.cos(2 * phi), math.sin(2 * phi)
    return np.array([[c, s], [s, -c]])


class _RotationProfile2D:
    """Nearest-point distances of one pair (P, Q) over the maps R(t) F,
    F the identity or the reflection diag(1, -1).

    Uses |R(t)Fp - q|^2 = |p|^2 + |q|^2 - 2(cos t (Fp.q) + sin t (Fp x q));
    both products are sums of the four tables x qx, y qy, x qy, y qx, so
    every batch of maps costs one matrix product.  Over an angle interval
    each pair distance is smallest at an endpoint, unless the pair's
    alignment angle (the t that points R(t)Fp along q) lies inside, where
    it is ||p| - |q||; those angles are kept sorted per point and map
    family for `aligned_gaps`.
    """

    def __init__(self, P: np.ndarray, Q: np.ndarray):
        self.k, self.m = len(P), len(Q)
        x, y = P[:, 0, None], P[:, 1, None]
        self.terms = np.stack([
            (P * P).sum(1)[:, None] + (Q * Q).sum(1)[None, :],
            x * Q[:, 0], y * Q[:, 1], x * Q[:, 1], y * Q[:, 0],
        ]).reshape(5, -1)
        self.chunk = max(1, int(2e6 / max(self.k * self.m, 1)))
        ap = np.arctan2(P[:, 1], P[:, 0])
        aq = np.arctan2(Q[:, 1], Q[:, 0])
        phi = np.mod(aq - np.stack([ap, -ap])[:, :, None], 2 * math.pi)
        phi = phi.reshape(2 * self.k, self.m)
        gap = np.abs(np.linalg.norm(P, axis=1)[:, None]
                     - np.linalg.norm(Q, axis=1)[None, :])
        order = np.argsort(phi, axis=1)
        # row r = (family, point) is shifted by 4 pi r, so one sorted array
        # serves every row and no query in [0, 2 pi] reaches the next row
        self.shift = 4 * math.pi * np.arange(2 * self.k).reshape(2, self.k)
        self.phi = (np.take_along_axis(phi, order, 1)
                    + self.shift.reshape(-1, 1)).ravel()
        gap = np.take_along_axis(np.tile(gap, (2, 1)), order, 1)
        self.gap = np.append(gap, np.inf)

    def profiles(self, thetas: np.ndarray, reflect: np.ndarray) -> np.ndarray:
        """(T, k): entry [t, j] = distance from R(theta_t) F_t P[j] to Q, F_t
        the reflection where reflect[t] is true."""
        T = len(thetas)
        out = np.empty((T, self.k))
        cos, sin = np.cos(thetas), np.sin(thetas)
        sign = np.where(reflect, 2.0, -2.0)
        coef = np.stack([np.ones(T), -2.0 * cos, sign * cos, -2.0 * sin,
                         -sign * sin], axis=1)
        for a in range(0, T, self.chunk):
            b = min(a + self.chunk, T)
            d2 = coef[a:b] @ self.terms
            out[a:b] = np.sqrt(np.maximum(
                d2.reshape(b - a, self.k, self.m).min(axis=2), 0.0))
        return out

    def aligned_gaps(self, lo: np.ndarray, hi: np.ndarray,
                     reflect: np.ndarray) -> np.ndarray:
        """(N, k): entry [s, j] = min of ||P[j]| - |q|| over the q whose
        alignment angle with F_s P[j] lies in [lo_s, hi_s] (inf when none)."""
        shift = self.shift[reflect.astype(int)]
        start = np.searchsorted(self.phi, lo[:, None] + shift)
        stop = np.searchsorted(self.phi, hi[:, None] + shift, side="right")
        out = np.full(start.shape, np.inf)
        hit = stop > start
        if hit.any():
            bounds = np.stack([start[hit], stop[hit]], -1).ravel()
            out[hit] = np.minimum.reduceat(self.gap, bounds)[::2]
        return out


def _dr_bnb_2d(P: np.ndarray, Q: np.ndarray,
               gains: Optional[np.ndarray] = None):
    """Per-prefix 2D d_R by interval branch-and-bound over the angle.

    Rotations R(t) and reflections R(t) diag(1, -1) start from a uniform
    grid of BNB_INTERVALS_2D angle intervals each.  Per-point distances are
    evaluated only at interval ends; the incumbent upper[i] of prefix
    P[:i+1] is its least d_H over the maps evaluated.  An interval's bound
    for a point is the point's exact least distance there (see
    _RotationProfile2D), a prefix's bound the running max over its points,
    and lower[i] the least bound of prefix i over all intervals, so d_R_i
    lies in [lower[i], upper[i]].

    With `gains`, the search resolves max_i min(gains[i], d_R_i) to within
    tol = 1e-9 max(1, |P|max) and drops an interval once no prefix that can
    still set that max gains more than tol in it; without, it resolves
    every prefix.  Intervals halve until that holds or they are
    BNB_MIN_WIDTH_2D wide.  Returns (upper, lower, evaluated), evaluated
    being (reflect, angle, full-set d_H) of every map evaluated.
    """
    k = len(P)
    tol = 1e-9 * max(1.0, float(np.linalg.norm(P, axis=1).max()))
    engine = _RotationProfile2D(P, Q)
    upper = np.full(k, np.inf)
    evaluated = []

    def evaluate(thetas, reflect):
        near = engine.profiles(thetas, reflect)
        prof = np.maximum.accumulate(near, axis=1)
        np.minimum(upper, prof.min(axis=0, initial=np.inf), out=upper)
        evaluated.append((reflect, thetas, prof[:, -1]))
        return near

    width = 2 * math.pi / BNB_INTERVALS_2D
    lo = np.tile(width * np.arange(BNB_INTERVALS_2D), 2)
    hi = lo + width
    reflect = np.repeat([False, True], BNB_INTERVALS_2D)
    near_lo = evaluate(lo, reflect)
    near_hi = np.roll(near_lo.reshape(2, BNB_INTERVALS_2D, k), -1, axis=1)
    near_hi = near_hi.reshape(-1, k)
    floor = np.full(k, np.inf)  # least prefix bounds of dropped intervals
    irrelevant = np.zeros(k, dtype=bool)
    while True:
        bound = np.minimum(np.minimum(near_lo, near_hi),
                           engine.aligned_gaps(lo, hi, reflect))
        bound = np.maximum.accumulate(bound, axis=1)
        lower = np.minimum(floor, bound.min(axis=0, initial=np.inf))
        if gains is not None:
            # prefix i cannot set the max-min when even its upper bound is
            # within tol of the certified d_lo, or when the next gain
            # exceeds d_up: then d_R_i <= d_R_{i+1} <= d_up < gains[i+1]
            d_lo = np.max(np.minimum(gains, lower))
            irrelevant = np.minimum(gains, upper) <= d_lo + tol
            irrelevant[:-1] |= gains[1:] > np.max(np.minimum(gains, upper))
        if (np.all(irrelevant | (upper - lower <= tol))
                or len(lo) == 0 or width <= BNB_MIN_WIDTH_2D):
            break
        drop = np.all((bound >= upper - tol) | irrelevant, axis=1)
        floor = np.minimum(floor, bound[drop].min(axis=0, initial=np.inf))
        reflect, lo, hi, near_lo, near_hi = (
            x[~drop] for x in (reflect, lo, hi, near_lo, near_hi))
        mid = 0.5 * (lo + hi)
        near_mid = evaluate(mid, reflect)
        reflect = np.concatenate([reflect, reflect])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        near_lo = np.concatenate([near_lo, near_mid])
        near_hi = np.concatenate([near_mid, near_hi])
        width /= 2
    return upper, lower, tuple(np.concatenate(x) for x in zip(*evaluated))


def d_R_prefixes(C, D) -> np.ndarray:
    """d_R of every length-sorted prefix of C against D (exact engine).

    Only 1D and 2D; the i-th entry is min over O(R^n) of
    d_H(f({p_1..p_{i+1}}), D), in 2D to within the branch-and-bound's
    tolerance above.
    """
    P, Q = _points(C), _points(D)
    n = P.shape[1]
    order = np.argsort(np.linalg.norm(P, axis=1), kind="stable")
    P = P[order]
    if n == 1:
        tree = cKDTree(Q)
        plus = np.maximum.accumulate(tree.query(P)[0])
        minus = np.maximum.accumulate(tree.query(-P)[0])
        return np.minimum(plus, minus)
    if n == 2:
        return _dr_bnb_2d(P, Q)[0]
    raise ValueError("prefix profiles implemented for n <= 2 only")


# ---------------------------------------------------------------------------
# rotation machinery (3D)


def _minimal_rotation(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotation taking unit vector u to unit vector v by the smaller angle."""
    c = float(np.clip(u @ v, -1.0, 1.0))
    axis = np.cross(u, v)
    s = float(np.linalg.norm(axis))
    if s < 1e-14:
        if c > 0:
            return np.eye(3)
        # opposite vectors: rotate by pi about any perpendicular axis
        perp = np.eye(3)[np.argmin(np.abs(u))]
        perp = perp - (perp @ u) * u
        perp /= np.linalg.norm(perp)
        return 2.0 * np.outer(perp, perp) - np.eye(3)
    axis = axis / s
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + s * K + (1 - c) * (K @ K)


def _axis_frame(a: np.ndarray) -> np.ndarray:
    """Columns (a, e2, e3): right-handed orthonormal frame with first axis a."""
    e2 = np.eye(3)[np.argmin(np.abs(a))]
    e2 = e2 - (e2 @ a) * a
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(a, e2)
    return np.column_stack([a, e2, e3])


def _axis_stabilizer_maps(a: np.ndarray, p_az: float, q_az: float):
    """The four orthogonal maps fixing axis a pointwise that move azimuth
    p_az into {q_az, q_az + pi}."""
    E = _axis_frame(a)
    out = []
    for m2 in (
        _rot2(q_az - p_az),
        _rot2(q_az + math.pi - p_az),
        _ref2(0.5 * (p_az + q_az)),
        _ref2(0.5 * (p_az + q_az + math.pi)),
    ):
        block = np.eye(3)
        block[1:, 1:] = m2
        out.append(E @ block @ E.T)
    return out


def _approx_anchor_indices(P: np.ndarray, n: int):
    """Farthest-point anchors of the approximation construction;
    lexicographic tie-break; up to n-1 indices (fewer when degenerate)."""
    lengths = np.linalg.norm(P, axis=1)
    if lengths.max() < 1e-14:
        return []
    ties = np.nonzero(lengths >= lengths.max() - 1e-12 * max(1.0, lengths.max()))[0]
    i1 = min(ties, key=lambda j: tuple(P[j]))
    anchors = [int(i1)]
    if n == 3:
        u = P[i1] / lengths[i1]
        perp = P - np.outer(P @ u, u)
        pl = np.linalg.norm(perp, axis=1)
        if pl.max() > 1e-12 * max(1.0, lengths.max()):
            ties = np.nonzero(pl >= pl.max() - 1e-12 * max(1.0, pl.max()))[0]
            anchors.append(int(min(ties, key=lambda j: tuple(P[j]))))
    return anchors


def _approx_maps(P: np.ndarray, Q: np.ndarray):
    """Candidate orthogonal maps of the factor-2(n-1) construction."""
    n = P.shape[1]
    if n == 1:
        return [np.array([[1.0]]), np.array([[-1.0]])]
    anchors = _approx_anchor_indices(P, n)
    if not anchors:
        return [np.eye(n)]
    qlen = np.linalg.norm(Q, axis=1)
    Qnz = Q[qlen > 1e-14]
    if Qnz.shape[0] == 0:
        return [np.eye(n)]
    p1 = P[anchors[0]]
    p1_ang = math.atan2(p1[1], p1[0]) if n == 2 else None
    maps = []
    if n == 2:
        for q in Qnz:
            q_ang = math.atan2(q[1], q[0])
            maps.append(_rot2(q_ang - p1_ang))
            maps.append(_rot2(q_ang + math.pi - p1_ang))
            maps.append(_ref2(0.5 * (p1_ang + q_ang)))
            maps.append(_ref2(0.5 * (p1_ang + q_ang + math.pi)))
        return maps
    # n == 3
    u1 = p1 / np.linalg.norm(p1)
    q_units = Qnz / np.linalg.norm(Qnz, axis=1)[:, None]
    level1 = []
    for qu in q_units:
        level1.append(_minimal_rotation(u1, qu))
        level1.append(_minimal_rotation(u1, -qu))
    if len(anchors) == 1:
        return level1
    p2 = P[anchors[1]]
    for M1 in level1:
        a = M1 @ u1
        E = _axis_frame(a)
        p2r = E.T @ (M1 @ p2)
        p_az = math.atan2(p2r[2], p2r[1])
        for q in Qnz:
            qr = E.T @ q
            if math.hypot(qr[1], qr[2]) < 1e-12:
                continue
            q_az = math.atan2(qr[2], qr[1])
            for M2 in _axis_stabilizer_maps(a, p_az, q_az):
                maps.append(M2 @ M1)
    return maps or level1


def _best_over_maps(P: np.ndarray, Q: np.ndarray, maps):
    tree = cKDTree(Q)
    best, best_map = math.inf, None
    for M in maps:
        val = float(tree.query(P @ M.T)[0].max())
        if val < best:
            best, best_map = val, M
    return best, best_map


def _random_rotations(count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    quat = rng.normal(size=(count, 4))
    quat /= np.linalg.norm(quat, axis=1)[:, None]
    w, x, y, z = quat.T
    R = np.empty((count, 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - z * w)
    R[:, 0, 2] = 2 * (x * z + y * w)
    R[:, 1, 0] = 2 * (x * y + z * w)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - x * w)
    R[:, 2, 0] = 2 * (x * z - y * w)
    R[:, 2, 1] = 2 * (y * z + x * w)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def _rotvec_matrix(w: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(w))
    if angle < 1e-14:
        return np.eye(3)
    axis = w / angle
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def _dr_exact_3d(P: np.ndarray, Q: np.ndarray):
    tree = cKDTree(Q)
    mirror = np.diag([1.0, 1.0, -1.0])
    cands = [np.eye(3)]
    cands.extend(_approx_maps(P, Q))
    rots = _random_rotations(GRID_3D)
    batch = np.einsum("tij,kj->tki", rots, P)
    d = tree.query(batch.reshape(-1, 3))[0].reshape(GRID_3D, -1).max(axis=1)
    cands.append(rots[int(d.argmin())])
    batch = np.einsum("tij,kj->tki", rots, P @ mirror.T)
    d = tree.query(batch.reshape(-1, 3))[0].reshape(GRID_3D, -1).max(axis=1)
    cands.append(rots[int(d.argmin())] @ mirror)
    best, best_map = _best_over_maps(P, Q, cands)
    # local pattern-search refinement in rotation-vector coordinates
    dirs = np.concatenate([
        np.eye(3),
        -np.eye(3),
        np.array(list(product((-1.0, 1.0), repeat=3))) / math.sqrt(3),
    ])
    radius = 0.2
    for _ in range(60):
        improved = False
        for w in dirs:
            M = _rotvec_matrix(radius * w) @ best_map
            val = float(tree.query(P @ M.T)[0].max())
            if val < best - 1e-15:
                best, best_map, improved = val, M, True
        if not improved:
            radius /= 2.0
            if radius < 1e-10:
                break
    return best, best_map


def d_R_exact_small(C, D):
    """(value, map): min over all orthogonal maps of d_H(f(C), D) (n <= 3):
    exact in 1D, the certified branch-and-bound in 2D, and a dense
    candidate search with local refinement in 3D."""
    P, Q = _points(C), _points(D)
    if P.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("empty point set")
    n = P.shape[1]
    if n == 1:
        tree = cKDTree(Q)
        plus = float(tree.query(P)[0].max())
        minus = float(tree.query(-P)[0].max())
        if plus <= minus:
            return plus, np.array([[1.0]])
        return minus, np.array([[-1.0]])
    if n == 2:
        gains = np.full(len(P), -np.inf)
        gains[-1] = np.inf
        upper, _, (reflect, theta, full) = _dr_bnb_2d(P, Q, gains)
        # re-evaluate directly every map within the inner-product form's
        # float floor of the best (the coordinate-difference form keeps its
        # precision near zero), and the approximation engine's maps, so
        # that the value never exceeds d_R_approx
        scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
        near = full <= upper[-1] + 1e-7 * scale
        maps = [_rot2(t) @ np.diag([1.0, -1.0 if r else 1.0])
                for r, t in zip(reflect[near], theta[near])]
        return _best_over_maps(P, Q, _approx_maps(P, Q) + maps)
    return _dr_exact_3d(P, Q)


def d_R_approx(C, D, delta: float = DEFAULT_DELTA, thorough: bool = False):
    """Upper bound on d_R within a factor 2(n-1)(1+delta) of the optimum,
    from the farthest-point anchor construction (n >= 2; exact in 1D)."""
    P, Q = _points(C), _points(D)
    if P.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("empty point set")
    maps = _approx_maps(P, Q)
    if thorough:
        # enumerate every tied anchor choice by small perturbations of order
        lengths = np.linalg.norm(P, axis=1)
        ties = np.nonzero(lengths >= lengths.max() - 1e-12)[0]
        for t in ties:
            Pt = np.concatenate([[P[t]], np.delete(P, t, axis=0)])
            maps.extend(_approx_maps(Pt, Q))
    val, _ = _best_over_maps(P, Q, maps)
    return val


def approx_factor_bound(n: int, delta: float = DEFAULT_DELTA) -> float:
    return 1.0 if n == 1 else 2.0 * (n - 1) * (1.0 + delta)


# ---------------------------------------------------------------------------
# boundary-tolerant distances


def _resolve_engine(engine: str, size_c: int, size_d: int) -> str:
    if engine == "auto":
        return "exact" if max(size_c, size_d) <= EXACT_SMALL_MAX else "approx"
    if engine not in ("exact", "approx"):
        raise ValueError(f"unknown d_R engine {engine!r}")
    return engine


def d_M(C, D, alpha: float, engine: str = "auto",
        delta: float = DEFAULT_DELTA) -> float:
    """One-sided boundary-tolerant distance: the max over length-sorted
    prefixes {p_1..p_i} of min(alpha - |p_i|, d_R(prefix, D))."""
    P, Q = _points(C), _points(D)
    lengths = np.linalg.norm(P, axis=1)
    order = np.argsort(lengths, kind="stable")
    P, lengths = P[order], lengths[order]
    if alpha < lengths[-1] - 1e-9 * max(1.0, alpha):
        raise ValueError("alpha is smaller than the cluster radius")
    gains = alpha - lengths
    n = P.shape[1]
    eng = _resolve_engine(engine, len(P), len(Q))
    if eng == "exact" and n <= 2:
        # trailing zero-gain points cannot raise the max-min
        keep = int(np.searchsorted(-gains, 0.0, side="left"))
        if keep == 0:
            return 0.0
        if n == 1:
            dr = d_R_prefixes(P[:keep], Q)
        else:
            dr = _dr_bnb_2d(P[:keep], Q, gains[:keep])[0]
        return float(np.max(np.minimum(gains[:keep], dr)))
    best = 0.0
    tree = cKDTree(Q)
    for i in range(len(P)):
        if gains[i] <= best:
            break
        prefix = P[: i + 1]
        if eng == "exact":
            dr_i, _ = d_R_exact_small(prefix, Q)
        else:
            dr_i = d_R_approx(prefix, Q, delta)
        best = max(best, min(float(gains[i]), float(dr_i)))
    return best


def d_C(sigma, xi, alpha: float, engine: str = "auto",
        delta: float = DEFAULT_DELTA) -> float:
    """Boundary-tolerant cluster distance: max of the two one-sided d_M."""
    return max(
        d_M(sigma, xi, alpha, engine, delta),
        d_M(xi, sigma, alpha, engine, delta),
    )


# ---------------------------------------------------------------------------
# Earth Mover's Distance on isosets


@dataclass(frozen=True)
class TransportPlan:
    flows: np.ndarray  # fractions, shape (m_A, m_B)
    cost: float
    row_marginals: np.ndarray
    col_marginals: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.flows, dtype=float)
        if np.any(f < -1e-12) or np.any(f > 1 + 1e-12):
            raise ValueError("flows must lie in [0, 1]")
        if abs(float(f.sum()) - 1.0) > 1e-9:
            raise ValueError("total flow must be 1")
        if np.any(f.sum(axis=1) > np.asarray(self.row_marginals) + 1e-12):
            raise ValueError("row marginal violated")
        if np.any(f.sum(axis=0) > np.asarray(self.col_marginals) + 1e-12):
            raise ValueError("column marginal violated")
        object.__setattr__(self, "flows", f)


def _min_cost_transport(costs: np.ndarray, supply, demand):
    """Exact transportation optimum for integer supplies and demands of
    equal total, as a linear program solved by HiGHS.  The optimum is a
    vertex of the transportation polytope, whose flows are integers."""
    # imported here: scipy.optimize adds about 0.1 s to every start-up,
    # and only EMD needs it
    from scipy.optimize import linprog

    costs = np.asarray(costs, dtype=float)
    na, nb = costs.shape
    supply = np.asarray(supply, dtype=np.int64)
    demand = np.asarray(demand, dtype=np.int64)
    cells = np.arange(na * nb)
    # row i sums the flows out of source i, row na + j those into sink j
    rows = np.concatenate([cells // nb, na + cells % nb])
    A_eq = coo_matrix((np.ones(2 * na * nb), (rows, np.tile(cells, 2))),
                      shape=(na + nb, na * nb))
    res = linprog(costs.ravel(), A_eq=A_eq,
                  b_eq=np.concatenate([supply, demand]), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation problem not solved: {res.message}")
    flow = np.rint(res.x).astype(np.int64).reshape(na, nb)
    if (np.any(flow < 0) or not np.array_equal(flow.sum(axis=1), supply)
            or not np.array_equal(flow.sum(axis=0), demand)):
        raise RuntimeError(
            "transportation flows do not round to the marginals")
    return flow


def emd(A: Isoset, B: Isoset, engine: str = "auto",
        delta: float = DEFAULT_DELTA):
    """(cost, TransportPlan): exact Earth Mover's Distance between two
    isosets at the same radius, ground cost d_C."""
    if abs(A.alpha - B.alpha) > 1e-9 * max(1.0, A.alpha):
        raise ValueError("isosets must share the radius alpha")
    wa = [c.weight for c in A.classes]
    wb = [c.weight for c in B.classes]
    if abs(float(sum(wa)) - 1.0) > 1e-9 or abs(float(sum(wb)) - 1.0) > 1e-9:
        raise ValueError("isoset weights must sum to 1")
    costs = np.array([
        [
            d_C(ca.representative, cb.representative, A.alpha, engine, delta)
            for cb in B.classes
        ]
        for ca in A.classes
    ])
    denom = math.lcm(*(w.denominator for w in wa + wb))
    supply = [int(w * denom) for w in wa]
    demand = [int(w * denom) for w in wb]
    flow = _min_cost_transport(costs, supply, demand)
    flows = flow.astype(float) / denom
    cost = float((flows * costs).sum())
    plan = TransportPlan(
        flows=flows,
        cost=cost,
        row_marginals=np.array([float(w) for w in wa]),
        col_marginals=np.array([float(w) for w in wb]),
    )
    return cost, plan


# ---------------------------------------------------------------------------
# bottleneck distance for sets sharing a cell (test utility)


def _periodic_distance_matrix(S, Q) -> np.ndarray:
    basis = S.cell.basis
    n = S.dim
    offsets = np.array(list(product((-1, 0, 1), repeat=n)), dtype=float)
    trans = offsets @ basis
    ps, pq = S.cartesian_motif, Q.cartesian_motif
    diff = ps[:, None, None, :] - (pq[None, :, None, :] + trans[None, None, :, :])
    return np.linalg.norm(diff, axis=-1).min(axis=2)


def _has_perfect_matching(adj: np.ndarray) -> bool:
    m = adj.shape[0]
    match = [-1] * m  # match[j] = row assigned to column j

    def try_assign(i, seen):
        for j in range(m):
            if adj[i, j] and not seen[j]:
                seen[j] = True
                if match[j] < 0 or try_assign(match[j], seen):
                    match[j] = i
                    return True
        return False

    for i in range(m):
        if not try_assign(i, [False] * m):
            return False
    return True


def bottleneck_distance_common_cell(S, Q) -> float:
    """Bottleneck matching distance between motifs of two sets sharing a
    unit cell (the small-perturbation regime), periodic wrap included."""
    if S.dim != Q.dim or not np.allclose(S.cell.basis, Q.cell.basis):
        raise ValueError("sets must share a unit cell")
    if S.m != Q.m:
        raise ValueError("sets must have motifs of equal size")
    dmat = _periodic_distance_matrix(S, Q)
    values = np.unique(dmat)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(dmat <= values[mid] + 1e-12):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])

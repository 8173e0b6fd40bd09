"""Distances between clusters, isometry classes, isosets and periodic sets.

Every distance here is one max-min over the length-sorted prefixes of a
cluster, max_i min(gain_i, d_R_i), computed by _max_min: d_M takes the
gains alpha - |p_i|, and d_R of a whole set the gains under which only
the last prefix counts.  Two d_R engines are provided.  The exact-small
engine is exact in 1D.  In 2D it is an interval branch-and-bound over the
rotation angle, for rotations and reflections alike: nearest-point
distances are evaluated only at interval ends, and each point's least
distance over an interval is known exactly, because |R(t)p - q| is
smallest at an end unless the angle that aligns p with q lies inside,
where it is ||p| - |q||.  The running max of those per-point values bounds
every prefix from below, so a 2D value is certified to within
1e-9 max(1, |p|max).  Those distances come from inner products, whose
float floor is about 1e-8 |p|max; near zero the best map is polished by
least squares and evaluated by coordinate differences, so isometric copies
read about 1e-15.  That polish is the only float-floor correction.  In 3D
the exact engine is a lazy max-min search: a seeded rotation sample,
evaluated once for every prefix, gives each prefix an upper bound, and
only a prefix that can still set the max is refined, by the approximation
engine's maps and a local pattern search; it carries no certificate.  The
approximation engine implements the anchor construction whose value is
guaranteed within a factor 2(n-1) of the optimum (reported with a
(1+delta) cushion), and runs through the same search without the sample
or the pattern search.

The boundary-tolerant cluster distance d_C is the max of two one-sided
max-min evaluations over length-sorted cluster prefixes, and EMD on
isosets is solved exactly as a transportation linear program (HiGHS) on
integer-scaled weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .core import neighbor_cloud
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
# orthogonal maps and their evaluation


def _maps_2d(theta, reflect) -> np.ndarray:
    """R(theta) F as a (..., 2, 2) stack, F = diag(1, -1) where reflect is
    true and the identity elsewhere."""
    c, s = np.cos(theta), np.sin(theta)
    f = np.where(reflect, -1.0, 1.0)
    return np.stack([np.stack([c, -s * f], -1), np.stack([s, c * f], -1)], -2)


def _nearest(P: np.ndarray, tree: cKDTree, maps: np.ndarray) -> np.ndarray:
    """(T, k): entry [t, j] = distance from maps[t] P[j] to the tree's points.

    The distances come from coordinate differences, so isometric copies
    read about 1e-15 instead of an inner-product float floor; one product
    and one query per chunk of about 2e6 points bound the memory."""
    T, k = len(maps), len(P)
    out = np.empty((T, k))
    chunk = max(1, int(2e6) // k)
    for a in range(0, T, chunk):
        b = min(a + chunk, T)
        moved = np.einsum("tij,kj->tki", maps[a:b], P)
        out[a:b] = tree.query(moved.reshape(-1, P.shape[1]))[0].reshape(b - a, k)
    return out


# ---------------------------------------------------------------------------
# rotation machinery (2D)


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


def _dr_bnb_2d(P: np.ndarray, Q: np.ndarray, gains: np.ndarray):
    """(upper, lower, maps) of the prefixes P[:i+1], enough to resolve
    max_i min(gains[i], d_R_i), by interval branch-and-bound over the angle.

    Rotations R(t) and reflections R(t) diag(1, -1) start from a uniform
    grid of BNB_INTERVALS_2D angle intervals each.  Per-point distances are
    evaluated only at interval ends; the incumbent upper[i] of prefix
    P[:i+1] is its least d_H over the maps evaluated, and maps[i] the first
    map that attains it.  An interval's bound for a point is the point's
    exact least distance there (see _RotationProfile2D), a prefix's bound
    the running max over its points, and lower[i] the least bound of prefix
    i over all intervals, so d_R_i lies in [lower[i], upper[i]].

    The search resolves the max-min to within tol = 1e-9 max(1, |P|max) and
    drops an interval once no prefix that can still set the max gains more
    than tol in it.  Intervals halve until that holds or they are
    BNB_MIN_WIDTH_2D wide.

    The float floor: the inner-product distances err by about 1e-15
    scale^2 / d on a distance d, below tol once d exceeds 1e-6 scale.  So
    when the prefix i that sets the max has upper[i] <= 1e-6 scale, its
    map is polished: the orthogonal map of the same family that best fits
    P, by least squares, to the points of Q nearest that map's image is
    evaluated by coordinate differences, and replaces the incumbent of
    every prefix whose d_H it lowers.  For an isometric copy it is the exact
    map, which reads about 1e-15.
    """
    k = len(P)
    tol = 1e-9 * max(1.0, float(np.linalg.norm(P, axis=1).max()))
    engine = _RotationProfile2D(P, Q)
    upper = np.full(k, np.inf)
    best_theta = np.zeros(k)
    best_reflect = np.zeros(k, dtype=bool)

    def evaluate(thetas, reflect):
        near = engine.profiles(thetas, reflect)
        if len(thetas):  # every interval may have been dropped
            prof = np.maximum.accumulate(near, axis=1)
            t = np.argmin(prof, axis=0)
            vals = prof[t, np.arange(k)]
            better = vals < upper
            upper[better] = vals[better]
            best_theta[better] = thetas[t[better]]
            best_reflect[better] = reflect[t[better]]
        return near

    width = 2 * math.pi / BNB_INTERVALS_2D
    lo = np.tile(width * np.arange(BNB_INTERVALS_2D), 2)
    hi = lo + width
    reflect = np.repeat([False, True], BNB_INTERVALS_2D)
    near_lo = evaluate(lo, reflect)
    near_hi = np.roll(near_lo.reshape(2, BNB_INTERVALS_2D, k), -1, axis=1)
    near_hi = near_hi.reshape(-1, k)
    floor = np.full(k, np.inf)  # least prefix bounds of dropped intervals
    while True:
        bound = np.minimum(np.minimum(near_lo, near_hi),
                           engine.aligned_gaps(lo, hi, reflect))
        bound = np.maximum.accumulate(bound, axis=1)
        lower = np.minimum(floor, bound.min(axis=0, initial=np.inf))
        # prefix i cannot set the max-min when even its upper bound is
        # within tol of the certified d_lo, or when the next gain exceeds
        # d_up: then d_R_i <= d_R_{i+1} <= d_up < gains[i+1]
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
    maps = _maps_2d(best_theta, best_reflect)
    i = int(np.argmax(np.minimum(gains, upper)))
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
    if upper[i] <= 1e-6 * scale:
        tree = cKDTree(Q)
        U, _, Vt = np.linalg.svd(Q[tree.query(P @ maps[i].T)[1]].T @ P)
        U[:, 1] *= np.linalg.det(maps[i]) * np.linalg.det(U @ Vt)
        polished = np.maximum.accumulate(_nearest(P, tree, (U @ Vt)[None])[0])
        better = polished < upper
        upper[better] = polished[better]
        maps[better] = U @ Vt
    return upper, lower, maps


# ---------------------------------------------------------------------------
# the approximation construction


def _axis_frames(A: np.ndarray) -> np.ndarray:
    """(L, 3, 3): for every unit row a of A, the columns (a, e2, e3) of a
    right-handed orthonormal frame with first axis a."""
    e2 = np.eye(3)[np.argmin(np.abs(A), axis=1)]
    e2 -= np.sum(e2 * A, axis=1)[:, None] * A
    e2 /= np.linalg.norm(e2, axis=1)[:, None]
    return np.stack([A, e2, np.cross(A, e2)], axis=-1)


def _anchor_maps_2d(p_ang, q_ang) -> np.ndarray:
    """(..., 4, 2, 2): the planar maps that turn the direction at angle
    p_ang onto the line at angle q_ang, namely the rotations by q - p and
    q + pi - p and the reflections about the two bisecting lines."""
    p_ang, q_ang = np.broadcast_arrays(p_ang, q_ang)
    theta = np.stack([q_ang - p_ang, q_ang + math.pi - p_ang,
                      p_ang + q_ang, p_ang + q_ang + math.pi], axis=-1)
    return _maps_2d(theta, np.array([False, False, True, True]))


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


def _approx_maps(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(T, n, n): the candidate orthogonal maps of the factor-2(n-1)
    construction.  Each sends the first anchor onto the line through a
    point of Q; in 3D each is then turned about that line so that the
    second anchor's azimuth meets that of a point of Q or its opposite."""
    n = P.shape[1]
    if n == 1:
        return np.array([[[1.0]], [[-1.0]]])
    anchors = _approx_anchor_indices(P, n)
    Qnz = Q[np.linalg.norm(Q, axis=1) > 1e-14]
    if not anchors or Qnz.shape[0] == 0:
        return np.eye(n)[None]
    p1 = P[anchors[0]]
    if n == 2:
        return _anchor_maps_2d(math.atan2(p1[1], p1[0]),
                               np.arctan2(Qnz[:, 1], Qnz[:, 0])).reshape(-1, 2, 2)
    u1 = p1 / np.linalg.norm(p1)
    units = Qnz / np.linalg.norm(Qnz, axis=1)[:, None]
    # the least rotations taking u1 to +q and -q: about u1 x q by the angle
    # between them, or by pi about a fixed perpendicular when q = -u1
    targets = np.stack([units, -units], axis=1).reshape(-1, 3)
    axes = np.cross(u1, targets)
    sines = np.linalg.norm(axes, axis=1)
    axes[sines < 1e-14] = _axis_frames(u1[None])[0, :, 1]
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    level1 = Rotation.from_rotvec(
        np.arctan2(sines, targets @ u1)[:, None] * axes).as_matrix()
    if len(anchors) == 1:
        return level1
    E = _axis_frames(level1 @ u1)
    p2 = np.einsum("lji,lj->li", E, level1 @ P[anchors[1]])
    q = np.einsum("lji,qj->lqi", E, Qnz)
    turns = _anchor_maps_2d(np.arctan2(p2[:, 2], p2[:, 1])[:, None],
                            np.arctan2(q[..., 2], q[..., 1]))
    block = np.zeros(turns.shape[:-2] + (3, 3))
    block[..., 0, 0] = 1.0
    block[..., 1:, 1:] = turns
    maps = (E[:, None, None] @ block @ np.swapaxes(E, 1, 2)[:, None, None]
            @ level1[:, None, None])
    # a point of Q on the axis has no azimuth
    maps = maps[np.hypot(q[..., 1], q[..., 2]) >= 1e-12].reshape(-1, 3, 3)
    return maps if len(maps) else level1


# ---------------------------------------------------------------------------
# the max-min search and the d_R entry points


_PATTERN_DIRS = np.concatenate([
    np.eye(3),
    -np.eye(3),
    np.array(list(product((-1.0, 1.0), repeat=3))) / math.sqrt(3),
])


@lru_cache(maxsize=1)
def _rotation_sample() -> np.ndarray:
    """(1 + 2 GRID_3D, 3, 3), read-only: the identity, GRID_3D seeded
    random rotations R, then every R diag(1, 1, -1)."""
    quat = np.random.default_rng(0).normal(size=(GRID_3D, 4))
    quat /= np.linalg.norm(quat, axis=1)[:, None]
    # drawn scalar-first; Rotation takes the scalar last
    rots = Rotation.from_quat(quat[:, [1, 2, 3, 0]]).as_matrix()
    sample = np.concatenate([np.eye(3)[None], rots, rots * [1.0, 1.0, -1.0]])
    sample.setflags(write=False)
    return sample


def _pattern_search(P: np.ndarray, tree: cKDTree, best: float,
                    best_map: np.ndarray):
    """Local refinement of (d_H, map) in rotation-vector coordinates.

    Each pass tries the steps of length `radius` along _PATTERN_DIRS in
    order, each from the current map, and keeps a step that lowers d_H; a
    pass without one halves the radius.  The steps still to try are
    evaluated as one batch from the current map, so the accepted sequence
    is that of trying them one at a time."""
    radius = 0.2
    for _ in range(60):
        steps = Rotation.from_rotvec(radius * _PATTERN_DIRS).as_matrix()
        improved, start = False, 0
        while start < len(steps):
            maps = steps[start:] @ best_map
            vals = _nearest(P, tree, maps).max(axis=1)
            better = np.flatnonzero(vals < best - 1e-15)
            if len(better) == 0:
                break
            t = int(better[0])
            best, best_map, improved = float(vals[t]), maps[t], True
            start += t + 1
        if not improved:
            radius /= 2.0
            if radius < 1e-10:
                break
    return best, best_map


def _max_min_search(P: np.ndarray, Q: np.ndarray, gains: np.ndarray,
                    exact: bool):
    """(value, map): max over prefixes P[:i+1] of min(gains[i], d_R_i),
    d_R_i being the approximation engine's value or, with `exact`, the 3D
    exact engine's; map attains d_R_i for the prefix that sets the max.
    In 1D the approximation engine's maps are +1 and -1, all of O(1), so
    its value is exact there.

    The exact engine first evaluates the identity and _rotation_sample once
    on all of P; the running max of the nearest distances gives every
    prefix an upper value (+inf for the approximation engine).  Prefixes
    are refined lazily, the largest min(gain, upper) first, until that is
    at most the refined max: a refined value never exceeds its upper value,
    so the rest cannot raise the max.  Refining evaluates the prefix's
    _approx_maps; the exact engine adds the identity and the sample's best
    plain and mirrored maps and runs _pattern_search from the best.  Each
    refined value uses only its own prefix's maps, so the approximation
    engine's max-min is its construction's and the exact one never exceeds
    it."""
    tree = cKDTree(Q)
    upper = np.full(len(P), np.inf)
    if exact:
        sample = _rotation_sample()
        dh = np.maximum.accumulate(_nearest(P, tree, sample), axis=1)
        upper = dh.min(axis=0)
        plain = 1 + np.argmin(dh[1:1 + GRID_3D], axis=0)
        mirrored = 1 + GRID_3D + np.argmin(dh[1 + GRID_3D:], axis=0)
    refined = np.zeros(len(P), dtype=bool)
    best, best_map = -np.inf, None
    while True:
        value = np.where(refined, -np.inf, np.minimum(gains, upper))
        i = int(np.argmax(value))
        if not value[i] > best:
            return float(best), best_map
        refined[i] = True
        prefix = P[:i + 1]
        maps = _approx_maps(prefix, Q)
        if exact:
            maps = np.concatenate([np.eye(3)[None], maps,
                                   sample[[plain[i], mirrored[i]]]])
        vals = _nearest(prefix, tree, maps).max(axis=1)
        t = int(np.argmin(vals))
        val, M = float(vals[t]), maps[t]
        if exact:
            val, M = _pattern_search(prefix, tree, val, M)
        if min(gains[i], val) > best:
            best, best_map = min(float(gains[i]), val), M


def _max_min(P: np.ndarray, Q: np.ndarray, gains: np.ndarray, exact: bool):
    """(value, map): max over prefixes P[:i+1] of min(gains[i], d_R_i) and a
    map attaining d_R_i for the prefix that sets it.  The exact engine is
    the branch-and-bound in 2D and the max-min search with its rotation
    sample in 3D; the approximation engine, and 1D, use the max-min search
    on the construction's maps alone."""
    if exact and P.shape[1] == 2:
        upper, _, maps = _dr_bnb_2d(P, Q, gains)
        value = np.minimum(gains, upper)
        i = int(np.argmax(value))
        return float(value[i]), maps[i]
    return _max_min_search(P, Q, gains, exact and P.shape[1] == 3)


def _whole_set(C, D):
    """(P, Q, gains): the point arrays, and the gains under which the
    max-min is d_R of the whole of P: only the last prefix counts."""
    P, Q = _points(C), _points(D)
    if P.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("empty point set")
    gains = np.full(len(P), -np.inf)
    gains[-1] = np.inf
    return P, Q, gains


def d_R_exact_small(C, D):
    """(value, map): min over all orthogonal maps of d_H(f(C), D) (n <= 3):
    exact in 1D, the certified branch-and-bound in 2D, and in 3D the
    approximation engine's maps, a seeded sample of GRID_3D rotations
    (plain and mirrored) and a local pattern search from the best of them,
    which carries no certificate.  The value is the returned map's own
    d_H, by coordinate differences, and never exceeds d_R_approx."""
    P, Q, gains = _whole_set(C, D)
    value, M = _max_min(P, Q, gains, exact=True)
    if P.shape[1] != 2:
        # the max-min search evaluates by coordinate differences, and its
        # maps include the construction's
        return value, M
    value = float(_nearest(P, cKDTree(Q), M[None]).max())
    approx, A = _max_min(P, Q, gains, exact=False)
    return (approx, A) if approx <= value else (value, M)


def d_R_approx(C, D):
    """Upper bound on d_R within a factor 2(n-1) of the optimum, from the
    farthest-point anchor construction (n >= 2; exact in 1D)."""
    P, Q, gains = _whole_set(C, D)
    return _max_min(P, Q, gains, exact=False)[0]


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


def d_M(C, D, alpha: float, engine: str = "auto") -> float:
    """One-sided boundary-tolerant distance: the max over length-sorted
    prefixes {p_1..p_i} of min(alpha - |p_i|, d_R(prefix, D)).

    One search serves all prefixes (see _max_min): it finds a prefix's d_R
    only while that prefix might still set the max."""
    P, Q = _points(C), _points(D)
    lengths = np.linalg.norm(P, axis=1)
    order = np.argsort(lengths, kind="stable")
    P, lengths = P[order], lengths[order]
    if alpha < lengths[-1] - 1e-9 * max(1.0, alpha):
        raise ValueError("alpha is smaller than the cluster radius")
    gains = alpha - lengths
    exact = _resolve_engine(engine, len(P), len(Q)) == "exact"
    # trailing zero-gain points cannot raise the max-min
    keep = int(np.searchsorted(-gains, 0.0, side="left"))
    if keep == 0:
        return 0.0
    return _max_min(P[:keep], Q, gains[:keep], exact)[0]


def d_C(sigma, xi, alpha: float, engine: str = "auto") -> float:
    """Boundary-tolerant cluster distance: max of the two one-sided d_M."""
    return max(d_M(sigma, xi, alpha, engine), d_M(xi, sigma, alpha, engine))


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


def emd(A: Isoset, B: Isoset, engine: str = "auto"):
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
            d_C(ca.representative, cb.representative, A.alpha, engine)
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
    """Entry [i, j]: distance from motif point i of S to the nearest copy
    of motif point j of Q.  Both lie in the unit cell, so that copy is
    within the cell diameter of it, inside Q's neighbor cloud."""
    pts, _ = neighbor_cloud(Q, S.cell.diameter)
    dist = np.linalg.norm(S.cartesian_motif[:, None, :] - pts[None, :, :], axis=-1)
    return dist.reshape(S.m, -1, Q.m).min(axis=1)


def bottleneck_distance_common_cell(S, Q) -> float:
    """Bottleneck matching distance between motifs of two sets sharing a
    unit cell (the small-perturbation regime), periodic wrap included."""
    if S.dim != Q.dim or not np.allclose(S.cell.basis, Q.cell.basis):
        raise ValueError("sets must share a unit cell")
    if S.m != Q.m:
        raise ValueError("sets must have motifs of equal size")
    # imported here: scipy.sparse.csgraph adds about 18 ms to a start-up
    from scipy.sparse.csgraph import maximum_bipartite_matching

    dmat = _periodic_distance_matrix(S, Q)
    values = np.unique(dmat)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        close = csr_matrix(dmat <= values[mid] + 1e-12)
        if np.all(maximum_bipartite_matching(close) >= 0):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])

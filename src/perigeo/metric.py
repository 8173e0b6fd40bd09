"""Distances between clusters, isometry classes, isosets and periodic sets.

Every distance here is one max-min over the length-sorted prefixes of a
cluster, max_i min(gain_i, d_R_i), computed by _max_min: d_M takes the
gains alpha - |p_i|, and d_R of a whole set the gains under which only
the last prefix counts.  Two d_R engines are provided.  The exact-small
engine is exact in 1D.  In 2D and 3D it is a branch-and-bound over the
orthogonal maps, rotations and reflections alike, whose nearest-point
distances come from one matrix product per batch of maps.  In 2D it
splits angle intervals: distances are evaluated only at interval ends,
and each point's least distance over an interval is known exactly,
because |R(t)p - q| is smallest at an end unless the angle that aligns p
with q lies inside, where it is ||p| - |q||.  In 3D it splits cubes of
rotation vectors, plain and mirrored: distances are evaluated at cube
centres, and a cube turns p by at most an angle theta (Hartley & Kahl),
so each point's least distance over a cube is at least that from the
cap of half-angle theta to the nearest point.  The running max of those
per-point values bounds every prefix from below, so a value is certified
to within 1e-9 max(1, |p|max) in 2D, and in 3D to within that or the
relative gap BNB_REL_TOL_3D, or else the search stopped at
BNB_MAX_CUBES_3D cubes and returns its certified lower bound with it.
Those distances come from inner products, whose float floor is about
1e-8 |p|max; near zero the best map is polished by least squares and
evaluated by coordinate differences, so isometric copies read about
1e-15.  That polish is the only float-floor correction.  The
approximation engine implements the anchor construction whose value is
guaranteed within a factor 2(n-1) of the optimum (reported with a
(1+delta) cushion), through a lazy max-min search over the prefixes.

The boundary-tolerant cluster distance d_C is the max of two one-sided
max-min evaluations over length-sorted cluster prefixes, and EMD on
isosets is solved exactly as a transportation linear program (HiGHS) on
integer-scaled weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .core import neighbor_cloud
from .isoset import Cluster, IsometryClass, Isoset

EXACT_SMALL_MAX = 60   # cluster-size cutoff for the exact-small engine
DEFAULT_DELTA = 0.1
BNB_INTERVALS_2D = 64  # initial angle intervals of the 2D branch-and-bound
# narrowest 2D interval (about 2.6e-9 rad): |P|max times it lies below the
# float floor of the inner-product distances, about 1e-8 |P|max, so
# narrower intervals would resolve nothing
BNB_MIN_WIDTH_2D = 2 * math.pi / 512 / 3 ** 14
BNB_CUBES_3D = 4       # initial cubes per axis of the 3D branch-and-bound
# smallest 3D cube half-side (about 5.9e-9 rad): its cap angle times
# |P|max lies below the float floor, as for BNB_MIN_WIDTH_2D
BNB_MIN_HALF_SIDE_3D = math.pi / BNB_CUBES_3D / 2 ** 27
BNB_REL_TOL_3D = 1e-3  # relative certificate gap of the 3D search
BNB_MAX_CUBES_3D = 2 ** 16  # cube evaluations after which 3D stops


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


def _bnb_rule(gains, upper, lower, bound, tol):
    """(irrelevant, done, drop) of one branch-and-bound step.  upper and
    lower bracket every prefix's d_R, bound[s] holds region s's prefix
    bounds, and tol is the certificate gap, one value or one per prefix.

    Prefix i cannot set the max-min when even its upper bound is within
    tol of the certified d_lo, or when the next gain exceeds d_up: then
    d_R_i <= d_R_{i+1} <= d_up < gains[i+1].  The search is done when
    every other prefix is resolved to tol, and a region is dropped once no
    prefix that can still set the max gains more than tol in it."""
    d_lo = np.max(np.minimum(gains, lower))
    irrelevant = np.minimum(gains, upper) <= d_lo + tol
    irrelevant[:-1] |= gains[1:] > np.max(np.minimum(gains, upper))
    done = bool(np.all(irrelevant | (upper - lower <= tol)))
    drop = np.all((bound >= upper - tol) | irrelevant, axis=1)
    return irrelevant, done, drop


def _keep_best(upper, maps, near, candidates):
    """Lower upper[i] to the least d_H of prefix i over the maps whose
    nearest distances are the rows of near, and keep the first map that
    attains it in maps[i]."""
    if len(near):
        prof = np.maximum.accumulate(near, axis=1)
        t = np.argmin(prof, axis=0)
        vals = prof[t, np.arange(prof.shape[1])]
        better = vals < upper
        upper[better] = vals[better]
        maps[better] = candidates[t[better]]


def _polish(P, Q, gains, upper, maps):
    """The float floor: inner-product distances err by about 1e-15
    scale^2 / d on a distance d, below the search tolerance once d exceeds
    1e-6 scale.  So when the prefix i that sets the max has upper[i] <=
    1e-6 scale, its map is polished: the orthogonal map of the same
    determinant that best fits P, by least squares, to the points of Q
    nearest that map's image is evaluated by coordinate differences, and
    replaces the incumbent of every prefix whose d_H it lowers.  For an
    isometric copy it is the exact map, which reads about 1e-15."""
    i = int(np.argmax(np.minimum(gains, upper)))
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
    if upper[i] <= 1e-6 * scale:
        tree = cKDTree(Q)
        U, _, Vt = np.linalg.svd(Q[tree.query(P @ maps[i].T)[1]].T @ P)
        U[:, -1] *= np.linalg.det(maps[i]) * np.linalg.det(U @ Vt)
        polished = np.maximum.accumulate(_nearest(P, tree, (U @ Vt)[None])[0])
        better = polished < upper
        upper[better] = polished[better]
        maps[better] = U @ Vt


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

    The search resolves the max-min to within tol = 1e-9 max(1, |P|max)
    (see _bnb_rule).  Intervals halve until it is resolved or they are
    BNB_MIN_WIDTH_2D wide.  Then _polish lifts the float floor.
    """
    k = len(P)
    tol = 1e-9 * max(1.0, float(np.linalg.norm(P, axis=1).max()))
    engine = _RotationProfile2D(P, Q)
    upper = np.full(k, np.inf)
    best = np.zeros((k, 2))  # angle and reflection flag of maps[i]

    def evaluate(thetas, reflect):
        near = engine.profiles(thetas, reflect)
        _keep_best(upper, best, near, np.stack([thetas, reflect], axis=1))
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
        _, done, drop = _bnb_rule(gains, upper, lower, bound, tol)
        if done or len(lo) == 0 or width <= BNB_MIN_WIDTH_2D:
            break
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
    maps = _maps_2d(best[:, 0], best[:, 1] > 0)
    _polish(P, Q, gains, upper, maps)
    return upper, lower, maps


# ---------------------------------------------------------------------------
# rotation machinery (3D)


class _RotationProfile3D:
    """Nearest-point distances of one pair (P, Q) over orthogonal maps M,
    and their least values over cubes of rotation vectors.

    Uses |Mp - q|^2 = |p|^2 + |q|^2 - 2 sum_ij M_ij p_j q_i: the nine
    tables p_j q_i make every batch of maps one (T, 9) x (9, k m) product.
    Every rotation vector of a cube of half-side sigma turns p by at most
    theta = min(sqrt(3) sigma, pi) away from its image under the centre's
    map (Hartley & Kahl), into the cap of half-angle theta around it.  The
    least distance from that cap to q is ||p| - |q|| when the angle phi
    between the centre image and q is at most theta, and otherwise
    sqrt(|p|^2 + |q|^2 - 2 |p||q| cos(phi - theta)); the same product
    gives |p||q| cos(phi), and |p||q| sin(phi) follows from it.
    """

    POINTS = 8  # points per evaluation step of `cubes`

    def __init__(self, P: np.ndarray, Q: np.ndarray):
        self.k, self.m = len(P), len(Q)
        # column a m + b belongs to the pair (P[a], Q[b]); row 3 i + j of
        # terms holds P[a, j] Q[b, i]
        self.terms = np.einsum("aj,bi->ijab", P, Q).reshape(9, -1)
        self.sq = ((P * P).sum(1)[:, None] + (Q * Q).sum(1)[None, :]).ravel()
        lp, lq = np.linalg.norm(P, axis=1), np.linalg.norm(Q, axis=1)
        self.pq = np.outer(lp, lq).ravel()
        self.pq2 = self.pq ** 2
        self.rows = max(1, int(1e6 / (self.POINTS * self.m)))

    def cubes(self, maps: np.ndarray, theta: float, thr: np.ndarray):
        """(near, bound) of cubes whose centres have the maps `maps`, each
        (T, k): near[t, j] is the distance from maps[t] P[j] to Q, and
        bound[t, j] the running max over P[:j+1] of each point's least
        distance to Q over cube t, whose maps turn P by at most theta.

        Points are taken in order, POINTS at a time, up to the last prefix
        i with a finite thr[i].  A cube stops once bound[t, i] >= thr[i]
        for every prefix i, the prefixes not yet evaluated included (their
        bounds are at least the running max so far).  Beyond the points it
        evaluated, near is inf and bound the running max."""
        T, m = len(maps), self.m
        near = np.full((T, self.k), np.inf)
        bound = np.empty((T, self.k))
        live = np.flatnonzero(thr > -np.inf)
        stop = int(live[-1]) + 1 if len(live) else 0
        # after[j]: the largest threshold of the prefixes after j
        after = np.append(np.maximum.accumulate(thr[::-1])[::-1][1:], -np.inf)
        coef = maps.reshape(T, 9)
        c, s = math.cos(theta), math.sin(theta)
        for a in range(0, T, self.rows):
            rows = np.arange(a, min(a + self.rows, T))
            run = np.zeros(len(rows))
            ok = np.ones(len(rows), dtype=bool)
            for j0 in range(0, stop, self.POINTS):
                j1 = min(j0 + self.POINTS, stop)
                cols = slice(j0 * m, j1 * m)
                dot = coef[rows] @ self.terms[:, cols]
                sq, pq = self.sq[cols], self.pq[cols]
                shape = (len(rows), j1 - j0, m)
                near[rows, j0:j1] = np.sqrt(np.maximum(
                    (sq - 2.0 * dot).reshape(shape).min(axis=2), 0.0))
                # h = |p||q| cos(phi - theta), or |p||q| where phi <= theta;
                # the cap's least squared distance is |p|^2 + |q|^2 - 2 h
                h = np.square(dot)
                np.subtract(self.pq2[cols], h, out=h)
                np.maximum(h, 0.0, out=h)
                np.sqrt(h, out=h)
                h *= s
                h += c * dot
                np.copyto(h, np.broadcast_to(pq, h.shape), where=dot >= c * pq)
                h *= -2.0
                h += sq
                b = np.sqrt(np.maximum(h.reshape(shape).min(axis=2), 0.0))
                b[:, 0] = np.maximum(b[:, 0], run)
                b = np.maximum.accumulate(b, axis=1)
                bound[rows, j0:j1] = b
                run = b[:, -1]
                ok &= np.all(b >= thr[j0:j1], axis=1)
                dead = ok & (run >= after[j1 - 1])
                bound[rows[dead], j1:] = run[dead, None]
                rows, run, ok = rows[~dead], run[~dead], ok[~dead]
                if len(rows) == 0:
                    break
            bound[rows, stop:] = run[:, None]
        return near, bound


_CORNERS = np.array(list(product((-1.0, 1.0), repeat=3)))


def _dr_bnb_3d(P: np.ndarray, Q: np.ndarray, gains: np.ndarray):
    """(upper, lower, maps) of the prefixes P[:i+1], enough to resolve
    max_i min(gains[i], d_R_i), by branch-and-bound over rotation vectors.

    Rotations R(r) and mirrored maps R(r) diag(1, 1, -1) start from
    BNB_CUBES_3D^3 cubes each over [-pi, pi]^3; a child cube wholly
    outside the pi-ball, which holds every rotation, is dropped.  The incumbent starts
    from the identity and the approximation construction's maps of all of
    P; then every cube is evaluated at its centre map (see
    _RotationProfile3D) and, unless dropped (see _bnb_rule), split into
    eight.  upper, lower and maps are as in _dr_bnb_2d; lower starts from
    the length gaps ||p| - |q||, which no map can close, and only grows:
    every step's least bound is a certified one.

    The search resolves the max-min to within tol_i = max(1e-9 max(1,
    |P|max), BNB_REL_TOL_3D min(gains[i], upper[i])), or stops when the
    cubes reach BNB_MIN_HALF_SIDE_3D.  Its cube evaluations never pass
    BNB_MAX_CUBES_3D: when a split would, only the cubes whose centre maps
    give the least max-min are split, into half the room left, and the
    bounds of the others join the floor.  So a capped search still
    improves its incumbent, and its lower bound stays certified; the gap
    is then wider than tol.  Then _polish lifts the float floor.
    """
    k = len(P)
    abs_tol = 1e-9 * max(1.0, float(np.linalg.norm(P, axis=1).max()))
    engine = _RotationProfile3D(P, Q)
    upper = np.full(k, np.inf)
    maps = np.zeros((k, 3, 3))
    seeds = np.concatenate([np.eye(3)[None], _approx_maps(P, Q)])
    _keep_best(upper, maps, _nearest(P, cKDTree(Q), seeds), seeds)

    sigma = math.pi / BNB_CUBES_3D
    axis = sigma * (2 * np.arange(BNB_CUBES_3D) + 1) - math.pi
    centres = np.array(list(product(axis, repeat=3)))
    centres = np.tile(centres, (2, 1))
    mirror = np.repeat([False, True], len(centres) // 2)
    floor = np.full(k, np.inf)  # least prefix bounds of dropped cubes
    # every map keeps lengths, so no point comes nearer a q than ||p| - |q||
    lower = np.maximum.accumulate(np.abs(np.subtract.outer(
        np.linalg.norm(P, axis=1), np.linalg.norm(Q, axis=1))).min(axis=1))
    evaluated = 0
    tol = np.maximum(abs_tol, BNB_REL_TOL_3D * np.minimum(gains, upper))
    irrelevant, done, _ = _bnb_rule(gains, upper, lower, np.empty((0, k)), tol)
    while not done and len(centres) and sigma >= BNB_MIN_HALF_SIDE_3D:
        batch = Rotation.from_rotvec(centres).as_matrix()
        batch[mirror] *= [1.0, 1.0, -1.0]
        thr = np.where(irrelevant, -np.inf, upper - tol)
        near, bound = engine.cubes(batch, min(math.sqrt(3) * sigma, math.pi),
                                   thr)
        evaluated += len(batch)
        _keep_best(upper, maps, near, batch)
        tol = np.maximum(abs_tol, BNB_REL_TOL_3D * np.minimum(gains, upper))
        lower = np.maximum(lower, np.minimum(floor, bound.min(axis=0)))
        irrelevant, done, drop = _bnb_rule(gains, upper, lower, bound, tol)
        room = BNB_MAX_CUBES_3D - evaluated
        if 8 * np.count_nonzero(~drop) > room:
            # the budget would run out: split only the best cubes, their
            # children taking half the room left
            prof = np.maximum.accumulate(near, axis=1)
            score = np.max(np.where(np.isfinite(prof),
                                    np.minimum(gains, prof), -np.inf), axis=1)
            score[drop] = np.inf
            drop[np.argsort(score, kind="stable")[room // 16:]] = True
        floor = np.minimum(floor, bound[drop].min(axis=0, initial=np.inf))
        sigma /= 2
        centres = (centres[~drop, None] + sigma * _CORNERS).reshape(-1, 3)
        mirror = np.repeat(mirror[~drop], 8)
        keep = np.linalg.norm(np.maximum(np.abs(centres) - sigma, 0.0),
                              axis=1) <= math.pi
        centres, mirror = centres[keep], mirror[keep]
    _polish(P, Q, gains, upper, maps)
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


def _max_min_search(P: np.ndarray, Q: np.ndarray, gains: np.ndarray):
    """(value, map): max over prefixes P[:i+1] of min(gains[i], d_R_i),
    d_R_i being the approximation engine's value; map attains d_R_i for
    the prefix that sets the max.  In 1D the engine's maps are +1 and -1,
    all of O(1), so its value is exact there.

    Prefixes are refined lazily, the largest gain first, until that is at
    most the refined max: the rest cannot raise it.  Refining evaluates
    the prefix's _approx_maps, so the max-min is the construction's."""
    tree = cKDTree(Q)
    refined = np.zeros(len(P), dtype=bool)
    best, best_map = -np.inf, None
    while True:
        value = np.where(refined, -np.inf, gains)
        i = int(np.argmax(value))
        if not value[i] > best:
            return float(best), best_map
        refined[i] = True
        prefix = P[:i + 1]
        maps = _approx_maps(prefix, Q)
        vals = _nearest(prefix, tree, maps).max(axis=1)
        t = int(np.argmin(vals))
        if min(gains[i], vals[t]) > best:
            best, best_map = min(float(gains[i]), float(vals[t])), maps[t]


def _max_min(P: np.ndarray, Q: np.ndarray, gains: np.ndarray, exact: bool):
    """(value, map, lower): max over prefixes P[:i+1] of min(gains[i],
    d_R_i), a map attaining d_R_i for the prefix that sets it, and a
    certified lower bound on the max-min.  The exact engine is the
    branch-and-bound in 2D and 3D; the approximation engine, and 1D, use
    the max-min search on the construction's maps alone, whose lower bound
    is the value over the construction's factor."""
    n = P.shape[1]
    if exact and n > 1:
        upper, lower, maps = (_dr_bnb_2d if n == 2 else _dr_bnb_3d)(P, Q, gains)
        value = np.minimum(gains, upper)
        i = int(np.argmax(value))
        # near zero the float floor can put the bound above the polished value
        lower = min(value[i], np.max(np.minimum(gains, lower)))
        return float(value[i]), maps[i], float(lower)
    value, M = _max_min_search(P, Q, gains)
    return value, M, value / approx_factor_bound(n)


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
    exact in 1D, and the certified branch-and-bound in 2D and 3D (in 3D to
    the relative gap BNB_REL_TOL_3D, or its certified gap when capped).
    The value is the returned map's own d_H, by coordinate differences,
    and never exceeds d_R_approx."""
    P, Q, gains = _whole_set(C, D)
    _, M, _ = _max_min(P, Q, gains, exact=True)
    value = float(_nearest(P, cKDTree(Q), M[None]).max())
    approx, A, _ = _max_min(P, Q, gains, exact=False)
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

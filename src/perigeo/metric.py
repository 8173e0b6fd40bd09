"""Distances between clusters, isometry classes, isosets and periodic sets.

Every distance here is one max-min over the length-sorted prefixes of a
cluster, max_i min(gain_i, d_R_i), computed by _max_min: d_M takes the
gains alpha - |p_i|, and d_R of a whole set the gains under which only
the last prefix counts.  Two d_R engines are provided.  The exact-small
engine is exact in 1D.  In 2D and 3D it is one branch-and-bound over the
orthogonal maps, rotations and reflections alike, whose regions are cubes
of rotation parameters, angle intervals in 2D and cubes of rotation
vectors in 3D.  Distances are evaluated at region centres, one matrix
product per batch of maps, and a region turns p by at most an angle theta
(Hartley & Kahl), so each point's least distance over it is at least
that from the cap of half-angle theta to the nearest point; in 2D the cap
is the arc the interval sweeps, and the bound is exact.  The running max
of those per-point values bounds every prefix from below, so a value is
certified to within 1e-9 max(1, |p|max) in 2D, and in 3D to within that
or the relative gap BNB_REL_TOL_3D, or else the search stopped at
BNB_MAX_REGIONS regions and returns its certified lower bound with it.
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
BNB_REGIONS = 64  # starting regions per map family of the branch-and-bound
# halvings after which the branch-and-bound stops.  The least half-side,
# pi/64/2^27 (about 3.7e-10 rad) in 2D, resolves a max-min to the 2D
# certificate 1e-9 |P|max; in 3D, pi/4/2^27 (about 5.9e-9 rad) gives caps
# that move P by about the inner-product float floor, 1e-8 |P|max
BNB_HALVINGS = 27
BNB_REL_TOL_3D = 1e-3  # relative certificate gap of the 3D search
BNB_MAX_REGIONS = 2 ** 16  # region evaluations after which the search stops


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
# the exact branch-and-bound (2D and 3D)


class _RotationProfile:
    """Nearest-point distances of one pair (P, Q), in 2D or 3D, over
    orthogonal maps M, and their least values over regions of maps.

    Uses |Mp - q|^2 = |p|^2 + |q|^2 - 2 sum_ij M_ij p_j q_i: the n^2 tables
    p_j q_i make every batch of maps one (T, n^2) x (n^2, k m) product.
    Every map of a region turns p by at most an angle theta away from its
    image under the centre's map, into the cap (in 2D the arc) of
    half-angle theta around it.  The least distance from that cap to q is
    ||p| - |q|| when the angle phi between the centre image and q is at
    most theta, and otherwise sqrt(|p|^2 + |q|^2 - 2 |p||q| cos(phi -
    theta)); the same product gives |p||q| cos(phi), and |p||q| sin(phi)
    follows from it.
    """

    POINTS = 8  # points per evaluation step of `regions`

    def __init__(self, P: np.ndarray, Q: np.ndarray):
        (self.k, n), self.m = P.shape, len(Q)
        # column a m + b belongs to the pair (P[a], Q[b]); row n i + j of
        # terms holds P[a, j] Q[b, i]
        self.terms = np.einsum("aj,bi->ijab", P, Q).reshape(n * n, -1)
        self.sq = ((P * P).sum(1)[:, None] + (Q * Q).sum(1)[None, :]).ravel()
        lp, lq = np.linalg.norm(P, axis=1), np.linalg.norm(Q, axis=1)
        self.pq = np.outer(lp, lq).ravel()
        self.pq2 = self.pq ** 2
        self.rows = max(1, int(1e6 / (self.POINTS * self.m)))

    def regions(self, maps: np.ndarray, theta: float, thr: np.ndarray):
        """(near, bound) of regions whose centres have the maps `maps`, each
        (T, k): near[t, j] is the distance from maps[t] P[j] to Q, and
        bound[t, j] the running max over P[:j+1] of each point's least
        distance to Q over region t, whose maps turn P by at most theta.

        Points are taken in order, POINTS at a time, up to the last prefix
        i with a finite thr[i].  A region stops once bound[t, i] >= thr[i]
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
        coef = maps.reshape(T, -1)
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


def _bnb_rule(gains, upper, lower, bound, tol):
    """(irrelevant, done, drop) of one branch-and-bound step.  upper and
    lower bracket every prefix's d_R, bound[s] holds region s's prefix
    bounds, and tol is the certificate gap of each prefix.

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


def _polish(P, Q, gains, upper, maps, limit) -> bool:
    """Whether the prefix i that sets the max has upper[i] <= limit; if so
    its map is polished: the orthogonal map of the same determinant that
    best fits P, by least squares, to the points of Q nearest that map's
    image is evaluated by coordinate differences, and replaces the
    incumbent of every prefix whose d_H it lowers.  For an isometric copy
    it is the exact map, which reads about 1e-15.

    This is also the float floor: inner-product distances err by about
    1e-15 scale^2 / d on a distance d, scale = max(1, |P|max, |Q|max), below
    the search tolerance once d exceeds 1e-6 scale, so a limit of 1e-6
    scale corrects every value below it."""
    i = int(np.argmax(np.minimum(gains, upper)))
    if upper[i] > limit:
        return False
    tree = cKDTree(Q)
    U, _, Vt = np.linalg.svd(Q[tree.query(P @ maps[i].T)[1]].T @ P)
    U[:, -1] *= np.linalg.det(maps[i]) * np.linalg.det(U @ Vt)
    polished = np.maximum.accumulate(_nearest(P, tree, (U @ Vt)[None])[0])
    better = polished < upper
    upper[better] = polished[better]
    maps[better] = U @ Vt
    return True


def _dr_bnb(P: np.ndarray, Q: np.ndarray, gains: np.ndarray):
    """(upper, lower, maps) of the prefixes P[:i+1], enough to resolve
    max_i min(gains[i], d_R_i), by branch-and-bound over the orthogonal
    maps of the plane or of space.

    A region is a cube of rotation parameters of dimension d = n(n-1)/2,
    an angle interval in 2D and a cube of rotation vectors in 3D, of one of
    two families: rotations R and mirrored maps R diag(1, .., 1, -1).  Each
    family starts from BNB_REGIONS cubes over [-pi, pi]^d; a child cube
    wholly outside the pi-ball, which holds every rotation, is dropped.
    Every map of a cube of half-side sigma turns each point by at most
    theta = min(sqrt(d) sigma, pi) from the centre's map (Hartley & Kahl),
    so each point's least distance over the cube is at least that from
    the cap of half-angle theta (see _RotationProfile).  In 2D the cap is
    the arc the interval's maps sweep, so that bound is exact.

    The incumbent upper[i] of prefix P[:i+1] is its least d_H over the
    maps evaluated, and maps[i] the first map that attains it: the
    identity, in 3D also the approximation construction's maps of all of
    P, and then every cube's centre map.  A cube's bound for a prefix is
    the running max over its points, and lower[i] starts from the length
    gaps ||p| - |q||, which no map can close, and only grows: every step's
    least bound is a certified one.  So d_R_i lies in [lower[i], upper[i]].
    Unless dropped (see _bnb_rule), a cube is split 2^d ways.

    The search resolves the max-min to within tol_i = 1e-9 max(1, |P|max)
    in 2D, and in 3D to within that or BNB_REL_TOL_3D min(gains[i],
    upper[i]), or stops after BNB_HALVINGS halvings.  Its cube evaluations
    never pass BNB_MAX_REGIONS: when a split would, only the cubes whose
    centre maps give the least max-min are split, into half the room left,
    and the bounds of the others join the floor.  So a capped search still
    improves its incumbent, and its lower bound stays certified; the gap is
    then wider than tol.  The first time the incumbent that sets the max is
    within 1e-2 scale, _polish fits its map, so an isometric copy stops at
    once; a last _polish lifts the float floor.
    """
    k, n = P.shape
    d = n * (n - 1) // 2
    abs_tol = 1e-9 * max(1.0, float(np.linalg.norm(P, axis=1).max()))
    rel_tol = BNB_REL_TOL_3D if n == 3 else 0.0
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
    engine = _RotationProfile(P, Q)
    upper = np.full(k, np.inf)
    maps = np.zeros((k, n, n))
    seeds = np.eye(n)[None]
    if n == 3:
        seeds = np.concatenate([seeds, _approx_maps(P, Q)])
    _keep_best(upper, maps, _nearest(P, cKDTree(Q), seeds), seeds)

    def certificate():
        # clamped at 0: a gain of -inf would make 0 * -inf
        return np.maximum(abs_tol, rel_tol * np.maximum(
            np.minimum(gains, upper), 0.0))

    per_axis = round(BNB_REGIONS ** (1 / d))
    sigma = math.pi / per_axis
    min_sigma = sigma / 2 ** BNB_HALVINGS
    axis = sigma * (2 * np.arange(per_axis) + 1) - math.pi
    centres = np.tile(np.array(list(product(axis, repeat=d))), (2, 1))
    mirror = np.repeat([False, True], len(centres) // 2)
    corners = np.array(list(product((-1.0, 1.0), repeat=d)))
    flip = np.append(np.ones(n - 1), -1.0)
    floor = np.full(k, np.inf)  # least prefix bounds of dropped cubes
    # every map keeps lengths, so no point comes nearer a q than ||p| - |q||
    lower = np.maximum.accumulate(np.abs(np.subtract.outer(
        np.linalg.norm(P, axis=1), np.linalg.norm(Q, axis=1))).min(axis=1))
    evaluated, polished = 0, False
    tol = certificate()
    irrelevant, done, _ = _bnb_rule(gains, upper, lower, np.empty((0, k)), tol)
    while not done and len(centres) and sigma >= min_sigma:
        batch = (Rotation.from_rotvec(centres).as_matrix() if n == 3
                 else _maps_2d(centres[:, 0], False))
        batch[mirror] *= flip
        thr = np.where(irrelevant, -np.inf, upper - tol)
        near, bound = engine.regions(batch, min(math.sqrt(d) * sigma, math.pi),
                                     thr)
        evaluated += len(batch)
        _keep_best(upper, maps, near, batch)
        polished = polished or _polish(P, Q, gains, upper, maps, 1e-2 * scale)
        tol = certificate()
        lower = np.maximum(lower, np.minimum(floor, bound.min(axis=0)))
        irrelevant, done, drop = _bnb_rule(gains, upper, lower, bound, tol)
        room = BNB_MAX_REGIONS - evaluated
        if len(corners) * np.count_nonzero(~drop) > room:
            # the budget would run out: split only the best cubes, their
            # children taking half the room left
            prof = np.maximum.accumulate(near, axis=1)
            score = np.max(np.where(np.isfinite(prof),
                                    np.minimum(gains, prof), -np.inf), axis=1)
            score[drop] = np.inf
            drop[np.argsort(score, kind="stable")[
                room // (2 * len(corners)):]] = True
        floor = np.minimum(floor, bound[drop].min(axis=0, initial=np.inf))
        sigma /= 2
        centres = (centres[~drop, None] + sigma * corners).reshape(-1, d)
        mirror = np.repeat(mirror[~drop], len(corners))
        keep = np.linalg.norm(np.maximum(np.abs(centres) - sigma, 0.0),
                              axis=1) <= math.pi
        centres, mirror = centres[keep], mirror[keep]
    _polish(P, Q, gains, upper, maps, 1e-6 * scale)
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
    certified lower bound on the max-min.  The exact engine is _dr_bnb
    in 2D and 3D; the approximation engine, and 1D, use
    the max-min search on the construction's maps alone, whose lower bound
    is the value over the construction's factor."""
    n = P.shape[1]
    if exact and n > 1:
        upper, lower, maps = _dr_bnb(P, Q, gains)
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
    exact in 1D, and in 2D and 3D the one branch-and-bound over regions of
    maps (_dr_bnb), certified to 1e-9 max(1, |C|max) in 2D and in 3D to
    that or the relative gap BNB_REL_TOL_3D, unless it met BNB_MAX_REGIONS.
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

"""Distances between clusters, isometry classes, isosets and periodic sets.

Every distance here is one max-min over the length-sorted prefixes of a
cluster, max_i min(gain_i, d_R_i), computed by _max_min: d_M takes the
gains alpha - |p_i|, and d_R of a whole set the gains under which only
the last prefix counts.  Two d_R engines are provided.  The exact
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
No map changes a length, so |Mp - q| >= ||p| - |q||, and a batch
evaluates only the pairs whose length gap is within the largest
incumbent it can lower: any other pair is farther than that under every
map, so it could neither lower an incumbent nor decide a bound, and the
answers are those of all pairs, up to the last bit of the product.
The search starts from BNB_START regions per map family, 16 arcs in 2D
and 64 cubes in 3D, and halves no region below BNB_LEAST_HALF_SIDE, a
least half-side fixed per dimension, so the start sets only how much
work the first batches do and never the certificate.
Its seeds are the identity and, where the length gaps allow a copy, the
cluster isometry search's first map, so an isometric copy, even a partial
boundary shell of one, ends before any region.  Its distances come from
inner products, whose float floor is about 1e-8 |p|max; near zero the
best map is polished by least squares and evaluated by coordinate
differences, so isometric copies read about 1e-15.  That polish is the
only float-floor correction of the exact engine.  The approximation
engine implements the anchor construction whose value is guaranteed
within a factor 2(n-1) of the optimum (reported with a (1+delta)
cushion).  Each of its maps is one frame product F_Q D F_P^T: it sends
the right-handed frame of a prefix's anchors onto that of a point of Q
or its opposite (in 3D with a second point of Q off that line), up to a
sign diagonal D, and in 3D a least rotation is the same product with
the turning axis as both frames' second axis.  The engine is a lazy
max-min search over the prefixes: a block of prefixes has its maps built
in one batch and evaluated by the same matrix product, and the maps
within the product's float floor of a prefix's least are evaluated again
by coordinate differences, so its value is the construction's to about
1e-15.

The boundary-tolerant cluster distance d_C is the max of two one-sided
max-min evaluations over length-sorted cluster prefixes; the second is
resolved only above the first one's value, which it must exceed to count,
so the certificate is unchanged.  EMD on isosets is solved exactly as a
transportation linear program (HiGHS) on integer-scaled weights; when
one isoset has a single class, the other's weights are the one feasible
flow, and no LP is solved.  d_M, d_C and emd run the d_R engine they
name, "exact" by default or "approx", at every cluster size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .core import BLOCK_ENTRIES, change_cell, check_limit, neighbor_cloud
from .isoset import (Cluster, IsometryClass, Isoset, _fit, _rank_and_frame,
                     _reduced_maps, match_tolerance)

DEFAULT_DELTA = 0.1
# starting regions per map family of the branch-and-bound, by dimension: 16
# arcs of the circle in 2D, where a jittered lattice cluster is decided by
# the first batch, and 64 cubes of rotation vectors in 3D
BNB_START = {2: 16, 3: 64}
# least half-side of a region, by dimension, whatever the start: the search
# halves no region below it.  In 2D, pi/64/2^27 (about 3.7e-10 rad) resolves
# a max-min to the 2D certificate 1e-9 |P|max; in 3D, pi/4/2^27 (about
# 5.9e-9 rad) gives caps that move P by about the inner-product float floor,
# 1e-8 |P|max
BNB_LEAST_HALF_SIDE = {2: math.pi / 64 / 2 ** 27, 3: math.pi / 4 / 2 ** 27}
BNB_REL_TOL_3D = 1e-3  # relative certificate gap of the 3D search
BNB_MAX_REGIONS = 2 ** 16  # region evaluations after which the search stops


def _points(obj) -> np.ndarray:
    if isinstance(obj, IsometryClass):
        obj = obj.representative
    if isinstance(obj, Cluster):
        return obj.points
    pts = np.asarray(obj, dtype=float)
    return np.atleast_2d(pts)


def _point_pair(C, D):
    """(P, Q), refused when one is empty or their dimensions differ."""
    P, Q = _points(C), _points(D)
    if P.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("empty point set")
    if P.shape[1] != Q.shape[1]:
        raise ValueError("clusters live in different dimensions: "
                         f"{P.shape[1]} and {Q.shape[1]}")
    return P, Q


def directed_hausdorff(C, D) -> float:
    """max over p in C of the distance from p to the nearest point of D."""
    P, Q = _point_pair(C, D)
    dist, _ = cKDTree(Q).query(P)
    return float(np.max(dist))


# ---------------------------------------------------------------------------
# orthogonal maps and their evaluation


def _nearest(P: np.ndarray, tree: cKDTree, maps: np.ndarray) -> np.ndarray:
    """(T, k): entry [t, j] = distance from maps[t] P[j] to the tree's points.

    The distances come from coordinate differences, so isometric copies
    read about 1e-15 instead of an inner-product float floor; one product
    and one query per chunk of about BLOCK_ENTRIES points bound the memory."""
    T, k = len(maps), len(P)
    out = np.empty((T, k))
    chunk = max(1, BLOCK_ENTRIES // k)
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
    p_j q_i make every batch of maps one (T, n^2) x (n^2, pairs) product
    (near_sq: over all k m pairs, transposed, with the table |q|^2 as one
    more row).
    Every map of a region turns p by at most an angle theta away from its
    image under the centre's map, into the cap (in 2D the arc) of
    half-angle theta around it.  The least distance from that cap to q is
    ||p| - |q|| when the angle phi between the centre image and q is at
    most theta, and otherwise sqrt(|p|^2 + |q|^2 - 2 |p||q| cos(phi -
    theta)); the same product gives |p||q| cos(phi), and |p||q| sin(phi)
    follows from it.  A batch of regions pairs each p only with the q
    whose gap ||p| - |q|| is within reach, the largest incumbent it can
    lower: no map closes a gap, so no other pair sets a value within reach.
    """

    POINTS = 8  # points per evaluation step of `regions`
    ENTRIES = 1_000_000  # most entries of a `regions` product or a search block
    BUFFER = 2 ** 17  # most entries of one product of `near_sq` (1 MB)...
    WIDE = 256  # ...unless it takes fewer maps than this

    def __init__(self, P: np.ndarray, Q: np.ndarray):
        (self.k, n), self.m = P.shape, len(Q)
        # the table below holds n^2 + 4 floats per pair (208 MB in 3D at
        # the limit)
        check_limit(self.k * self.m, f"clusters of {self.k} and {self.m} points "
                    f"make {self.k * self.m} d_R pairs")
        # column a m + b belongs to the pair (P[a], Q[b]); row n i + j of
        # the table holds P[a, j] Q[b, i], and the last four rows |Q[b]|^2,
        # |P[a]|^2 + |Q[b]|^2, |P[a]||Q[b]| and its square; terms is all
        # but the last three
        pp, qq = (P * P).sum(1), (Q * Q).sum(1)
        lp, lq = np.linalg.norm(P, axis=1), np.linalg.norm(Q, axis=1)
        self.table = np.empty((n * n + 4, self.k * self.m))
        self.table[:n * n] = np.einsum("aj,bi->ijab", P, Q).reshape(n * n, -1)
        self.table[n * n] = np.tile(qq, self.k)
        self.table[n * n + 1] = (pp[:, None] + qq[None, :]).ravel()
        self.table[n * n + 2] = np.outer(lp, lq).ravel()
        self.table[n * n + 3] = self.table[n * n + 2] ** 2
        self.terms = self.table[:n * n + 1]
        self.pp, self.gap = pp, np.abs(np.subtract.outer(lp, lq))
        self.kept = (None, None)  # the last windows, by (stop, reach)
        # a bound on the float error of near_sq's squared distances, whose
        # products sum n^2 + 1 terms of size at most 3 |p||q| or |q|^2
        self.floor = 1e-13 * (pp.max(initial=0.0) + qq.max(initial=0.0))

    def near_sq(self, maps: np.ndarray, end: int) -> np.ndarray:
        """(end, T): entry [j, t] = squared distance from maps[t] P[j] to Q,
        j < end, within self.floor.

        One product |q|^2 - 2 (M p).q per map, point and q, into one buffer
        of at most BUFFER entries (more only to take WIDE maps or one point
        at a time), with the maps on its contiguous axis and the min over Q
        on a leading one."""
        T, m = len(maps), self.m
        coef = np.empty((self.terms.shape[0], T))
        coef[:-1] = maps.reshape(T, -1).T
        coef[:-1] *= -2.0
        coef[-1] = 1.0
        step = min(T, max(self.WIDE, self.BUFFER // (end * m)))
        rows = min(end, max(1, self.BUFFER // (m * step)))
        buf = np.empty(rows * m * step)
        out = np.empty((end, T))
        for a in range(0, T, step):
            b = min(a + step, T)
            for j0 in range(0, end, rows):
                j1 = min(j0 + rows, end)
                prod = buf[:(j1 - j0) * m * (b - a)].reshape(-1, b - a)
                np.matmul(self.terms[:, j0 * m:j1 * m].T, coef[:, a:b], out=prod)
                np.min(prod.reshape(j1 - j0, m, b - a), axis=1, out=out[j0:j1, a:b])
        out += self.pp[:end, None]
        return out

    @cached_property
    def sorted_gaps(self):
        """(by_gap, gaps): each point's q by length gap, as table columns,
        and those gaps, inf after the last; sorted on the first _window."""
        order = np.argsort(self.gap, axis=1, kind="stable")
        return (order + self.m * np.arange(self.k)[:, None],
                np.append(np.take_along_axis(self.gap, order, axis=1),
                          np.full((self.k, 1), np.inf), axis=1))

    def _window(self, stop: int, reach: float):
        """(outside, off, pairs): the length windows of P[:stop] that
        regions evaluates, pairs[:, off[j]:off[j+1]] being the table columns
        of P[j]'s window and outside[j] the least gap it leaves out.  A
        search's batches mostly share their reach, so the last windows are
        kept."""
        if self.kept[0] != (stop, reach):
            by_gap, gaps = self.sorted_gaps
            inside = gaps[:stop, :-1] <= math.sqrt(reach * reach + self.floor)
            inside[:, 0] = True
            counts = inside.sum(axis=1)
            self.kept = ((stop, reach), (
                gaps[np.arange(stop), counts],
                np.concatenate(([0], np.cumsum(counts))),
                self.table[:, by_gap[:stop][inside]]))
        return self.kept[1]

    def regions(self, maps: np.ndarray, theta: float, thr: np.ndarray,
                reach: float):
        """(near, bound) of regions whose centres have the maps `maps`, each
        (T, k): near[t, j] is the distance from maps[t] P[j] to Q, and
        bound[t, j] a lower bound on the running max over P[:j+1] of each
        point's least distance to Q over region t, whose maps turn P by at
        most theta.  Both are the full-pair values wherever those are at
        most reach; elsewhere near is larger and bound still certified, and
        both exceed reach.

        Each point p is paired only with the q in its length window: those
        whose gap ||p| - |q|| is within reach (widened by the product's
        float error), and at least the q of least gap.  Its bound is capped
        at the least gap it leaves out, which no map can close, so a pair
        left out is farther than reach under every map and sets no value
        within it.  Points are taken in order, POINTS at a time, up to the
        last prefix i with a finite thr[i].  A region stops once bound[t, i]
        >= thr[i] for every prefix i, the prefixes not yet evaluated
        included (their bounds are at least the running max so far).
        Beyond the points it evaluated, near is inf and bound the running
        max."""
        T, m = len(maps), self.m
        near = np.full((T, self.k), np.inf)
        bound = np.empty((T, self.k))
        live = np.flatnonzero(thr > -np.inf)
        stop = int(live[-1]) + 1 if len(live) else 0
        # after[j]: the largest threshold of the prefixes after j
        after = np.append(np.maximum.accumulate(thr[::-1])[::-1][1:], -np.inf)
        outside, off, pairs = self._window(stop, reach)
        terms, (_, sq, pq, pq2) = pairs[:-4], pairs[-4:]
        steps = [(j0, min(j0 + self.POINTS, stop))
                 for j0 in range(0, stop, self.POINTS)]
        coef = maps.reshape(T, -1)
        c, s = math.cos(theta), math.sin(theta)
        most = max(1, self.ENTRIES // max(
            [off[j1] - off[j0] for j0, j1 in steps], default=1))
        for a in range(0, T, most):
            rows = np.arange(a, min(a + most, T))
            run = np.zeros(len(rows))
            ok = np.ones(len(rows), dtype=bool)
            for j0, j1 in steps:
                w = slice(off[j0], off[j1])
                starts = off[j0:j1] - off[j0]
                dot = coef[rows] @ terms[:, w]
                near[rows, j0:j1] = np.sqrt(np.maximum(np.minimum.reduceat(
                    sq[w] - 2.0 * dot, starts, axis=1), 0.0))
                # h = |p||q| cos(phi - theta), or |p||q| where phi <= theta;
                # the cap's least squared distance is |p|^2 + |q|^2 - 2 h
                h = np.square(dot)
                np.subtract(pq2[w], h, out=h)
                np.maximum(h, 0.0, out=h)
                np.sqrt(h, out=h)
                h *= s
                h += c * dot
                h = np.where(dot >= c * pq[w], pq[w], h)
                h *= -2.0
                h += sq[w]
                b = np.minimum(outside[j0:j1], np.sqrt(np.maximum(
                    np.minimum.reduceat(h, starts, axis=1), 0.0)))
                b[:, 0] = np.maximum(b[:, 0], run)
                b = np.maximum.accumulate(b, axis=1)
                bound[rows, j0:j1] = b
                run = b[:, -1]
                ok &= (b >= thr[j0:j1]).all(axis=1)
                dead = ok & (run >= after[j1 - 1])
                bound[rows[dead], j1:] = run[dead, None]
                rows, run, ok = rows[~dead], run[~dead], ok[~dead]
                if len(rows) == 0:
                    break
            bound[rows, stop:] = run[:, None]
        return near, bound


def _bnb_rule(gains, upper, lower, bound, tol, floor):
    """(irrelevant, done, drop) of one branch-and-bound step.  upper and
    lower bracket every prefix's d_R, bound[s] holds region s's prefix
    bounds, tol is the certificate gap of each prefix, and the caller needs
    only the max of floor and the max-min.

    Prefix i cannot set that max when even its upper bound is within tol of
    the certified d_lo or at most floor, or when the next gain exceeds
    d_up: then d_R_i <= d_R_{i+1} <= d_up < gains[i+1].  The search is done
    when every other prefix is resolved to tol, and a region is dropped
    once no prefix that can still set the max gains more than tol in it."""
    d_lo = np.max(np.minimum(gains, lower))
    irrelevant = np.minimum(gains, upper) <= np.maximum(d_lo + tol, floor)
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
    image (isoset._fit, the isometry search's fit) is evaluated by
    coordinate differences, and replaces the
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
    fit = _fit(P, Q[tree.query(P @ maps[i].T)[1]], np.linalg.det(maps[i]))
    polished = np.maximum.accumulate(_nearest(P, tree, fit[None])[0])
    better = polished < upper
    upper[better] = polished[better]
    maps[better] = fit
    return True


def _dr_bnb(P: np.ndarray, Q: np.ndarray, gains: np.ndarray,
            floor: float = -np.inf):
    """(upper, lower, maps) of the prefixes P[:i+1], enough to resolve
    max(floor, max_i min(gains[i], d_R_i)), by branch-and-bound over the
    orthogonal maps of the plane or of space.

    A region is a cube of rotation parameters of dimension d = n(n-1)/2,
    an angle interval in 2D and a cube of rotation vectors in 3D, of one of
    two families: rotations R and mirrored maps R diag(1, .., 1, -1).  Each
    family starts from BNB_START[n] cubes over [-pi, pi]^d, 16 arcs in 2D
    and 64 cubes in 3D; a child cube wholly outside the pi-ball, which
    holds every rotation, is dropped.
    Every map of a cube of half-side sigma turns each point by at most
    theta = min(sqrt(d) sigma, pi) from the centre's map (Hartley & Kahl),
    so each point's least distance over the cube is at least that from
    the cap of half-angle theta (see _RotationProfile).  In 2D the cap is
    the arc the interval's maps sweep, so that bound is exact.

    The incumbent upper[i] of prefix P[:i+1] is its least d_H over the
    maps evaluated, and maps[i] the first map that attains it: the seeds,
    and then every cube's centre map, all by the same matrix product (the
    seeds by one _RotationProfile.near_sq, the cubes over only the pairs
    whose length gap is within the largest incumbent of the prefixes they
    evaluate, the only pairs that can lower one).  The seeds are the
    identity and the first map by which the cluster isometry search sends P
    onto distinct points of Q, within the match tolerance of |P|max; it
    runs only when P spans the space and the length gaps of all of P are
    within twice that tolerance, so it costs nothing on pairs that are no
    copies, and it finds a copy that keeps only part of a boundary shell
    of Q.
    A cube's bound
    for a prefix is the running max over its points, and lower[i] starts
    from the length gaps ||p| - |q||, which no map can close, and only
    grows: every step's least bound is a certified one.  So d_R_i lies
    in [lower[i], upper[i]].  Unless dropped (see _bnb_rule), a cube is
    split 2^d ways.

    The search resolves the max-min to within tol_i = 1e-9 max(1, |P|max)
    in 2D, and in 3D to within that or BNB_REL_TOL_3D min(gains[i],
    upper[i]), or stops before halving a cube below the least half-side
    BNB_LEAST_HALF_SIDE[n] (pi/64/2^27 in 2D, which resolves the 2D
    certificate from any start, and pi/4/2^27 in 3D).  A prefix whose
    min(gains[i], upper[i]) is at most floor is resolved no further, so
    when the seeds already put every prefix there no cube is evaluated.
    Its cube evaluations never pass BNB_MAX_REGIONS: when a split would,
    only the cubes whose centre maps give the least max-min are split,
    into half the room left, and the bounds of the others join the lower
    bound.  So a capped search still improves its incumbent, and its lower
    bound stays certified; the gap is then wider than tol.  _polish fits
    the map of the incumbent that sets the max after the seeds, and later
    the first time it is within 1e-2 scale after a batch of cubes, so an
    isometric copy stops before any cube; a last _polish lifts the float
    floor.
    """
    k, n = P.shape
    d = n * (n - 1) // 2
    lengths, lq = np.linalg.norm(P, axis=1), np.linalg.norm(Q, axis=1)
    lp = float(lengths.max())
    abs_tol = 1e-9 * max(1.0, lp)
    rel_tol = BNB_REL_TOL_3D if n == 3 else 0.0
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
    engine = _RotationProfile(P, Q)
    upper = np.full(k, np.inf)
    maps = np.zeros((k, n, n))
    # every map keeps lengths, so no point comes nearer a q than ||p| - |q||
    lower = np.maximum.accumulate(engine.gap.min(axis=1))

    def certificate():
        # clamped at 0: a gain of -inf would make 0 * -inf
        return np.maximum(abs_tol, rel_tol * np.maximum(
            np.minimum(gains, upper), 0.0))

    # the seeds: the identity and, where the length gaps allow a copy, the
    # isometry search's first map
    match = match_tolerance(lp, None)
    seeds = np.eye(n)[None]
    if lower[-1] <= 2 * match and _rank_and_frame(P, lp)[0] == n:
        found = _reduced_maps(P, Q[lq <= lp + 2 * match], match,
                              first_only=True)
        seeds = np.concatenate([seeds, np.reshape(found, (-1, n, n))])
    near = np.sqrt(np.maximum(engine.near_sq(seeds, k), 0.0))
    _keep_best(upper, maps, near.T, seeds)
    polished = _polish(P, Q, gains, upper, maps, 1e-2 * scale)
    tol = certificate()
    irrelevant, done, _ = _bnb_rule(gains, upper, lower, np.empty((0, k)), tol,
                                    floor)

    per_axis = round(BNB_START[n] ** (1 / d))
    sigma = math.pi / per_axis
    axis = sigma * (2 * np.arange(per_axis) + 1) - math.pi
    centres = np.tile(np.array(list(product(axis, repeat=d))), (2, 1))
    mirror = np.repeat([False, True], len(centres) // 2)
    corners = np.array(list(product((-1.0, 1.0), repeat=d)))
    flip = np.append(np.ones(n - 1), -1.0)
    dropped = np.full(k, np.inf)  # least prefix bounds of dropped cubes
    evaluated = 0
    while not done and len(centres) and sigma >= BNB_LEAST_HALF_SIDE[n]:
        # a 2D angle is a turn about the third axis
        rotvec = np.zeros((len(centres), 3))
        rotvec[:, 3 - d:] = centres
        batch = Rotation.from_rotvec(rotvec).as_matrix()[:, :n, :n]
        batch[mirror] *= flip
        thr = np.where(irrelevant, -np.inf, upper - tol)
        near, bound = engine.regions(batch, min(math.sqrt(d) * sigma, math.pi),
                                     thr, np.max(upper, where=~irrelevant,
                                                 initial=0.0))
        evaluated += len(batch)
        _keep_best(upper, maps, near, batch)
        polished = polished or _polish(P, Q, gains, upper, maps, 1e-2 * scale)
        tol = certificate()
        lower = np.maximum(lower, np.minimum(dropped, bound.min(axis=0)))
        irrelevant, done, drop = _bnb_rule(gains, upper, lower, bound, tol,
                                           floor)
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
        dropped = np.minimum(dropped, bound[drop].min(axis=0, initial=np.inf))
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


# the sign diagonals that send one direction onto a line: the rotations onto
# +q and -q, then the reflections onto +q and -q
TURNS = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])


def _frames(a: np.ndarray, b: np.ndarray = None) -> np.ndarray:
    """(..., n, n): the right-handed orthonormal frames, as columns, whose
    first axis is the unit row a: in 2D (a, a turned by a right angle), in
    3D (a, the unit part of b off a's line, their cross product)."""
    if a.shape[-1] == 2:
        return np.stack([a, np.stack([-a[..., 1], a[..., 0]], -1)], -1)
    b = b - np.sum(a * b, axis=-1, keepdims=True) * a
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    return np.stack(np.broadcast_arrays(a, b, np.cross(a, b)), -1)


def _approx_anchors(P: np.ndarray, ends) -> np.ndarray:
    """(E, 2): the farthest-point anchors of the construction for every
    prefix P[:e], e in ends: the point of greatest length, and in 3D the
    point farthest from its line; ties go to the lexicographically least
    point, and -1 marks an anchor a prefix lacks (every point at the
    origin, or on the first anchor's line; in 1D, where none is used)."""
    k, n = P.shape
    anchors = np.full((len(ends), 2), -1)
    if n == 1:
        return anchors
    rank = np.empty(k, dtype=int)
    rank[np.lexsort(P.T[::-1])] = np.arange(k)
    inside = np.arange(k) < np.asarray(ends)[:, None]

    def farthest(values, inside):
        top = np.max(np.where(inside, values, -np.inf), axis=1)
        ties = inside & (values >= (top - 1e-12 * np.maximum(1.0, top))[:, None])
        return top, np.argmin(np.where(ties, rank, k), axis=1)

    lengths = np.linalg.norm(P, axis=1)
    top, first = farthest(lengths, inside)
    live = top >= 1e-14
    anchors[live, 0] = first[live]
    if n == 3 and live.any():
        lines, row = np.unique(first[live], return_inverse=True)
        u = P[lines] / lengths[lines, None]
        perp = np.linalg.norm(P[None] - (P @ u.T).T[..., None] * u[:, None],
                              axis=2)
        far, second = farthest(perp[row], inside[live])
        two = far > 1e-12 * np.maximum(1.0, top[live])
        anchors[np.flatnonzero(live)[two], 1] = second[two]
    return anchors


def _anchor_maps(P: np.ndarray, Q: np.ndarray, anchors: np.ndarray) -> list:
    """(T, n, n) per row of anchors (see _approx_anchors): the candidate
    orthogonal maps of the factor-2(n-1) construction, each one frame
    product F_Q D F_P^T.  F_P is the frame of the first anchor u1 (in 3D
    with the second anchor as second axis), F_Q that of +q or -q for a
    point q of Q (in 3D with a point of Q off q's line as second axis), and
    D a row of TURNS (in 3D diag(1, TURNS)): the first anchor goes onto the
    line through q, and in 3D the second anchor's azimuth about it onto
    that point's or its opposite.  A 3D prefix with one anchor, or a Q on
    one line, takes the least rotations of u1 onto +q and -q: the same
    product with D = I and the turning axis u1 x q, or a fixed perpendicular
    of u1 where it vanishes, as both frames' second axis."""
    n = P.shape[1]
    if n == 1:
        return [np.array([[[1.0]], [[-1.0]]])] * len(anchors)
    out = [np.eye(n)[None]] * len(anchors)
    Qnz = Q[np.linalg.norm(Q, axis=1) > 1e-14]
    live = np.flatnonzero(anchors[:, 0] >= 0) if len(Qnz) else []
    if not len(live):
        return out
    p1 = P[anchors[live, 0]]
    u1 = p1 / np.linalg.norm(p1, axis=1)[:, None]
    units = Qnz / np.linalg.norm(Qnz, axis=1)[:, None]
    if n == 2:
        rows, F_P, F_Q, D = live, _frames(u1), _frames(units), TURNS
    else:
        targets = np.stack([units, -units], axis=1).reshape(-1, 3)
        # the pairs (target, point of Q off its line)
        target, other = np.nonzero(np.linalg.norm(
            np.cross(targets[:, None], Qnz[None]), axis=2) >= 1e-12)
        two = (anchors[live, 1] >= 0) & (len(target) > 0)
        u = u1[~two, None]
        axes = np.cross(u, targets)
        axes = np.where(np.linalg.norm(axes, axis=2, keepdims=True) < 1e-14,
                        np.eye(3)[np.argmin(np.abs(u), axis=2)], axes)
        least = _frames(targets, axes) @ np.swapaxes(_frames(u, axes), 2, 3)
        for j, v in enumerate(live[~two]):
            out[v] = least[j]
        rows = live[two]
        F_P = _frames(u1[two], P[anchors[rows, 1]])
        F_Q = _frames(targets[target], Qnz[other])
        D = np.insert(TURNS, 0, 1.0, axis=1)
    maps = np.einsum("lia,ta,vja->vltij", F_Q, D, F_P, optimize=True)
    for j, v in enumerate(rows):
        out[v] = maps[j].reshape(-1, n, n)
    return out


# ---------------------------------------------------------------------------
# the max-min search and the d_R entry points


def _max_min_search(P: np.ndarray, Q: np.ndarray, gains: np.ndarray,
                    floor: float):
    """(value, map): max of floor and, over prefixes P[:i+1], of
    min(gains[i], d_R_i), d_R_i being the approximation engine's value;
    map attains d_R_i for the prefix that sets the max, and is None when
    no prefix exceeds floor.  In 1D the engine's maps are +1 and -1, all
    of O(1), so its value is exact there.

    Prefixes are refined lazily, the largest gain first, in blocks of as
    many as one product of _RotationProfile.ENTRIES entries evaluates,
    until the next gain is at most the max so far, which starts at floor:
    the rest cannot raise it.  A block builds its prefixes' _anchor_maps in
    one batch and evaluates them up to its last point by the product, each
    read at its own prefix's end; the distinct maps within the product's
    float floor of a prefix's least are evaluated again by coordinate
    differences, and the least of those is the construction's value."""
    k, n = P.shape
    engine = _RotationProfile(P, Q)
    tree = cKDTree(Q)
    lines = int(np.count_nonzero(np.linalg.norm(Q, axis=1) > 1e-14))
    most = max(1, 2 ** n * lines ** (n - 1))  # maps of a prefix
    order = np.argsort(-gains, kind="stable")
    best, best_map = floor, None
    pos = 0
    while pos < k and gains[order[pos]] > best:
        # the next prefixes whose gains can raise the max, as many as fit
        stop, end = pos + 1, order[pos] + 1
        while stop < k and gains[order[stop]] > best:
            wider = max(end, order[stop] + 1)
            if (stop + 1 - pos) * most * wider * engine.m > engine.ENTRIES:
                break
            stop, end = stop + 1, wider
        ends, pos = order[pos:stop] + 1, stop
        built = _anchor_maps(P, Q, _approx_anchors(P, ends))
        maps = np.concatenate(built)
        sizes = np.array([len(b) for b in built])
        starts = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(len(ends)), sizes)
        run = engine.near_sq(maps, end)
        np.maximum.accumulate(run, axis=0, out=run)
        # every map read at its own prefix's end; those within the float
        # floor of their prefix's least, by coordinate differences again,
        # each distinct map once (symmetric clusters tie many times over)
        vals = run[ends[owner] - 1, np.arange(len(maps))]
        close = np.flatnonzero(
            vals <= np.minimum.reduceat(vals, starts)[owner] + engine.floor)
        distinct, inverse = np.unique(maps[close].reshape(len(close), -1),
                                      axis=0, return_inverse=True)
        exact = np.maximum.accumulate(
            _nearest(P[:end], tree, distinct.reshape(-1, n, n)), axis=1)
        vals[:] = np.inf
        vals[close] = exact[inverse.ravel(), ends[owner[close]] - 1]
        value = np.minimum(gains[ends - 1], np.minimum.reduceat(vals, starts))
        j = int(np.argmax(value))
        if value[j] > best:
            t = starts[j] + int(np.argmin(vals[starts[j]:starts[j] + sizes[j]]))
            best, best_map = float(value[j]), maps[t]
    return float(best), best_map


def _max_min(P: np.ndarray, Q: np.ndarray, gains: np.ndarray, exact: bool,
             floor: float = -np.inf):
    """(value, map, lower): max over prefixes P[:i+1] of min(gains[i],
    d_R_i), a map attaining d_R_i for the prefix that sets it, and a
    certified lower bound on the max-min.  The exact engine is _dr_bnb
    in 2D and 3D; the approximation engine, and 1D, use
    the max-min search on the construction's maps alone, whose lower bound
    is the value over the construction's factor.

    A caller that needs only max(floor, max-min) passes floor: no prefix is
    resolved once its value is at most floor, so max(floor, value) carries
    the certificate, and is floor itself when no prefix is found above it
    (the search then returns floor and no map)."""
    n = P.shape[1]
    if exact and n > 1:
        upper, lower, maps = _dr_bnb(P, Q, gains, floor)
        value = np.minimum(gains, upper)
        i = int(np.argmax(value))
        # near zero the float floor can put the bound above the polished value
        lower = min(value[i], np.max(np.minimum(gains, lower)))
        return float(value[i]), maps[i], float(lower)
    value, M = _max_min_search(P, Q, gains, floor)
    return value, M, value / approx_factor_bound(n)


def _whole_set(C, D):
    """(P, Q, gains): the point arrays, and the gains under which the
    max-min is d_R of the whole of P: only the last prefix counts."""
    P, Q = _point_pair(C, D)
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


def _one_sided(C, D, alpha: float, engine: str, floor: float) -> float:
    """d_M(C, D, alpha) resolved only above floor: max(floor, result) is
    max(floor, d_M) within the engine's certificate (see _max_min)."""
    if engine not in ("exact", "approx"):
        raise ValueError(f"unknown d_R engine {engine!r}")
    P, Q = _point_pair(C, D)
    lengths = np.linalg.norm(P, axis=1)
    order = np.argsort(lengths, kind="stable")
    P, lengths = P[order], lengths[order]
    if alpha < lengths[-1] - 1e-9 * max(1.0, alpha):
        raise ValueError("alpha is smaller than the cluster radius")
    gains = alpha - lengths
    # trailing zero-gain points cannot raise the max-min
    keep = int(np.searchsorted(-gains, 0.0, side="left"))
    if keep == 0:
        return 0.0
    return _max_min(P[:keep], Q, gains[:keep], engine == "exact", floor)[0]


def d_M(C, D, alpha: float, engine: str = "exact") -> float:
    """One-sided boundary-tolerant distance: the max over length-sorted
    prefixes {p_1..p_i} of min(alpha - |p_i|, d_R(prefix, D)), d_R from
    the engine named, "exact" or "approx".

    One search serves all prefixes (see _max_min): it finds a prefix's d_R
    only while that prefix might still set the max."""
    return _one_sided(C, D, alpha, engine, -np.inf)


def d_C(sigma, xi, alpha: float, engine: str = "exact") -> float:
    """Boundary-tolerant cluster distance: max of the two one-sided d_M.
    The second is resolved only above the first, which it needs to
    exceed to count, so the certificate is that of d_M."""
    first = d_M(sigma, xi, alpha, engine)
    return max(first, _one_sided(xi, sigma, alpha, engine, first))


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
    vertex of the transportation polytope, whose flows are integers.  When
    one side has a single class, the other side's marginal is the one
    feasible flow, and no LP is solved."""
    costs = np.asarray(costs, dtype=float)
    na, nb = costs.shape
    supply = np.asarray(supply, dtype=np.int64)
    demand = np.asarray(demand, dtype=np.int64)
    if na == 1 or nb == 1:
        flow = demand[None, :] if na == 1 else supply[:, None]
    else:
        # imported here: scipy.optimize adds about 0.1 s to every start-up,
        # and only EMD between two multi-class isosets needs it
        from scipy.optimize import linprog

        cells = np.arange(na * nb)
        # row i sums the flows out of source i, row na + j those into sink j
        rows = np.concatenate([cells // nb, na + cells % nb])
        A_eq = coo_matrix((np.ones(2 * na * nb), (rows, np.tile(cells, 2))),
                          shape=(na + nb, na * nb))
        res = linprog(costs.ravel(), A_eq=A_eq,
                      b_eq=np.concatenate([supply, demand]), method="highs")
        if res.status != 0:
            raise RuntimeError(
                f"transportation problem not solved: {res.message}")
        flow = np.rint(res.x).astype(np.int64).reshape(na, nb)
    if (np.any(flow < 0) or not np.array_equal(flow.sum(axis=1), supply)
            or not np.array_equal(flow.sum(axis=0), demand)):
        raise RuntimeError(
            "transportation flows do not round to the marginals")
    return flow


def emd(A: Isoset, B: Isoset, engine: str = "exact"):
    """(cost, TransportPlan): exact Earth Mover's Distance between two
    isosets at the same radius, ground cost d_C."""
    if abs(A.alpha - B.alpha) > 1e-9 * max(A.alpha, B.alpha):
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
    of motif point j of Q.  Both sets are taken, motif order kept, on the
    reduced cell of the cell they share, S as S.reduced and Q re-celled by
    S's U; there both points lie in the cell, so that copy is within its
    diameter, inside Q's neighbor cloud, which does not grow with a skewed
    cell's 1/width."""
    S, Q = S.reduced, change_cell(Q, S.cell._reduction[0])
    pts, idx = neighbor_cloud(Q, S.cell.diameter)
    dist = np.linalg.norm(S.cartesian_motif[:, None, :] - pts[None, :, :], axis=-1)
    return np.stack([dist[:, idx == j].min(axis=1) for j in range(Q.m)], axis=1)


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
        close = csr_matrix(dmat <= values[mid])
        if np.all(maximum_bipartite_matching(close) >= 0):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])

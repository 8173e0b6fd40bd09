"""The complete invariant: alpha-clusters, cluster isometry testing,
symmetry groups, alpha-partitions, the isotree, stable radii and the
weighted isoset.

Cluster comparison is exact up to an absolute point-match tolerance
(default 1e-6 * alpha): an orthogonal map is accepted when it sends every
cluster point within tolerance of a distinct point of the other cluster:
a bijection, read off the nearest points or, where those collide, a
bipartite matching.  The maps tried are, in order, a map the caller
holds, the identity and -I (they fix every lattice, so they relate
translated and inverted motif points), and the least-squares orthogonal
fits (_fit) of a few anchor points onto each assignment of their images;
a fit that is not accepted is refit, up to twice, to the points nearest
its image, keeping its determinant.
Degenerate clusters (affine hull of rank < n) are compared in reduced
coordinates; their symmetry groups are continuous when the codimension is
at least 2 and are then recorded by (rank, reduced order) instead of an
element list.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .core import (
    REL_TOL,
    DataError,
    PeriodicSet,
    bridge_length,
    neighbor_pairs,
    neighbor_stack,
)

TOL_MATCH_FRAC = 1e-6  # point-match tolerance as a fraction of alpha
TOL_ORTHO = 1e-9       # matrix tolerance for deduplicating group elements
RANK_TOL = 1e-7        # singular-value cutoff (relative to cluster radius)


@dataclass(frozen=True)
class Cluster:
    """All vectors q - p with |q - p| <= alpha around motif point p, and
    their lengths (alpha_cluster's are its neighbor stack's, bit for bit)."""

    center_index: int
    alpha: float
    points: np.ndarray  # (k, n), sorted by (length, coordinates)
    lengths: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        if self.lengths is None:
            object.__setattr__(self, "lengths", np.linalg.norm(self.points, axis=1))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class OrthogonalMap:
    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if not np.allclose(M.T @ M, np.eye(M.shape[0]), atol=1e-7):
            raise ValueError("matrix is not orthogonal")
        object.__setattr__(self, "matrix", M)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    def __call__(self, points):
        return np.asarray(points) @ self.matrix.T


@dataclass(frozen=True)
class SymmetryGroup:
    """Self-isometries of a cluster fixing its center.

    For clusters whose affine hull has codimension >= 2 the group contains
    a continuous rotation subgroup; it is then summarized by the hull rank
    and the finite order of the in-hull pattern group.
    """

    continuous: bool
    rank: int
    reduced_order: int
    elements: Optional[tuple] = None  # full-dimensional matrices when finite
    order: Optional[int] = None


@dataclass(frozen=True)
class IsometryClass:
    representative: Cluster
    weight: Fraction
    members: tuple  # motif indices in this class


@dataclass(frozen=True)
class Isoset:
    alpha: float
    classes: tuple
    unstable: bool = False  # a pair length within the match tolerance of alpha

    @property
    def weights(self):
        return [c.weight for c in self.classes]


@dataclass(frozen=True)
class Isotree:
    """Partitions of the motif by cluster isometry class at growing radii."""

    radii: tuple
    partitions: tuple  # tuple of partitions, each a tuple of index-tuples
    parents: tuple     # per level, tuple of parent block indices (level - 1)


def match_tolerance(alpha: float, tol: Optional[float]) -> float:
    if tol is not None:
        return tol
    return TOL_MATCH_FRAC * max(alpha, 0.0)


def alpha_cluster(S: PeriodicSet, p_index: int, alpha: float) -> Cluster:
    """The alpha-cluster, a read-only length-prefix of the point's
    neighbor stack."""
    stack = neighbor_stack(S, p_index, alpha)
    return Cluster(center_index=p_index, alpha=alpha, points=stack.vectors,
                   lengths=stack.lengths)


# ---------------------------------------------------------------------------
# cluster isometry search


def _rank_and_frame(points: np.ndarray, scale: float):
    """(rank, frame): orthonormal rows, the first `rank` spanning the hull.

    Only the n x n V^T is used, so the k x k U of a full SVD is built only
    when the k points are fewer than the n dimensions and the thin V^T
    would lack rows.  The center alone has rank 0: its one singular value,
    0, is not above the threshold of its zero scale."""
    k, n = points.shape
    _, sv, vt = np.linalg.svd(points, full_matrices=k < n)
    thresh = RANK_TOL * scale
    rank = int(np.sum(sv > thresh))
    return rank, vt


def _embed_map(m_reduced: np.ndarray, frame_c: np.ndarray, frame_d: np.ndarray,
               n: int, det_sign: float = 1.0) -> np.ndarray:
    r = m_reduced.shape[0]
    block = np.eye(n)
    block[:r, :r] = m_reduced
    if r < n:
        block[r, r] = det_sign
    return frame_d.T @ block @ frame_c


def _fit(P, Q, sign=None) -> np.ndarray:
    """The orthogonal M minimizing sum_i |M P[i] - Q[i]|^2 (Schoenemann's
    Procrustes fit, from the SVD of Q^T P), of determinant sign `sign`
    when one is given."""
    U, _, Vt = np.linalg.svd(Q.T @ P)
    if sign is not None:
        U[:, -1] *= sign * np.linalg.det(U @ Vt)
    return U @ Vt


def _verify_map(m: np.ndarray, pc: np.ndarray, tree_d: cKDTree, k: int,
                tol_abs: float) -> bool:
    """Whether m sends each of the k points pc within tol_abs of a distinct
    point of tree_d: the nearest ones when they are distinct, else those of
    a bipartite matching of the pairs within tol_abs."""
    image = pc @ m.T
    dist, idx = tree_d.query(image)
    if float(dist.max()) > tol_abs:
        return False
    if np.bincount(idx).max() <= 1:
        return True
    # imported here: scipy.sparse.csgraph adds about 18 ms to a start-up
    from scipy.sparse.csgraph import maximum_bipartite_matching

    close = tree_d.query_ball_point(image, tol_abs)
    rows = np.repeat(np.arange(k), [len(c) for c in close])
    pairs = csr_matrix((np.ones(len(rows)), (rows, np.concatenate(close))),
                       shape=(k, tree_d.n))
    return bool(np.all(maximum_bipartite_matching(pairs, perm_type="column") >= 0))


def _anchor_indices(points: np.ndarray, r: int):
    """Indices of r robustly independent anchor vectors, shortest first."""
    lengths = np.linalg.norm(points, axis=1)
    nz = np.nonzero(lengths > 0)[0]
    order = nz[np.argsort(lengths[nz], kind="stable")]
    cand = points[order]
    anchors = [int(order[0])]
    basis = cand[:1] / lengths[order[0]]  # orthonormal rows
    while len(anchors) < r:
        res = cand - (cand @ basis.T) @ basis
        perp = np.linalg.norm(res, axis=1)
        j = int(np.argmax(perp))  # the first, i.e. shortest, of the largest
        anchors.append(int(order[j]))
        basis = np.vstack([basis, res[j] / perp[j]])
    return anchors


def _reduced_maps(pc: np.ndarray, pd: np.ndarray, tol_abs: float,
                  first_only: bool):
    """Orthogonal maps (r x r) sending point set pc onto pd within tol_abs,
    the identity first when it is one; for pc onto itself it is recorded
    without a fit, so the leaf assigning each anchor to itself is skipped."""
    r = pc.shape[1]
    k = pc.shape[0]
    out = []
    if r == 0:
        return [np.eye(0)]
    tree_d = cKDTree(pd)
    ident = np.eye(r)
    if pd is pc or _verify_map(ident, pc, tree_d, k, tol_abs):  # pc onto itself
        out.append(ident)
        if first_only:
            return out
    anchors = _anchor_indices(pc, r)
    own = tuple(anchors) if pd is pc else None
    A = pc[anchors]
    lens_a = np.linalg.norm(A, axis=1)
    lens_d = np.linalg.norm(pd, axis=1)
    len_tol = 2.0 * tol_abs
    gram_a = A @ A.T
    cand = [np.nonzero(np.abs(lens_d - la) <= len_tol)[0] for la in lens_a]

    def backtrack(level, chosen):
        if level == r:
            if chosen == own:
                return False
            # the anchors' fit, then up to two refits to the points of pd
            # nearest its image, each verified once
            m = _fit(A, pd[list(chosen)])
            for refit in range(3):
                if _verify_map(m, pc, tree_d, k, tol_abs):
                    break
                if refit == 2:
                    return False
                m = _fit(pc, pd[tree_d.query(pc @ m.T)[1]], np.linalg.det(m))
            if not any(np.abs(m - e).max() <= TOL_ORTHO for e in out):
                out.append(m)
                if first_only:
                    return True
            return False
        for j in cand[level]:
            b = pd[j]
            ok = True
            for lvl_prev, j_prev in enumerate(chosen):
                gram_tol = 2.0 * tol_abs * (lens_a[level] + lens_a[lvl_prev]) + 4 * tol_abs ** 2
                if abs(b @ pd[j_prev] - gram_a[level, lvl_prev]) > gram_tol:
                    ok = False
                    break
            if ok and backtrack(level + 1, chosen + (j,)):
                return True
        return False

    backtrack(0, ())
    return out


def clusters_isometric(C: Cluster, D: Cluster, tol: Optional[float] = None,
                       witness: Optional[OrthogonalMap] = None
                       ) -> Optional[OrthogonalMap]:
    """A center-fixing orthogonal map with f(C) = D within tolerance, or
    None: once the sorted lengths agree, the first to pass the search's
    acceptance test (_verify_map) of `witness` (_refine and isosets_equal
    pass their last map), the identity, -I and the isometry search in the
    clusters' frames."""
    if C.dim != D.dim:
        raise ValueError(f"clusters live in different dimensions: {C.dim} and {D.dim}")
    if C.size != D.size:
        return None
    tol_abs = match_tolerance(max(C.alpha, D.alpha), tol)
    lc, ld = np.sort(C.lengths), np.sort(D.lengths)
    if not np.abs(lc - ld).max(initial=0.0) <= 2.0 * tol_abs:
        return None
    tree_d = cKDTree(D.points)
    if witness is not None and _verify_map(witness.matrix, C.points, tree_d,
                                           C.size, tol_abs):
        return witness
    for sign in (1.0, -1.0):
        m = sign * np.eye(C.dim)
        if _verify_map(m, C.points, tree_d, C.size, tol_abs):
            return OrthogonalMap(m)
    scale = float(lc[-1])
    rank_c, frame_c = _rank_and_frame(C.points, scale)
    rank_d, frame_d = _rank_and_frame(D.points, scale)
    if rank_c != rank_d:
        return None
    maps = _reduced_maps(C.points @ frame_c[:rank_c].T, D.points @ frame_d[:rank_d].T,
                         tol_abs, first_only=True)
    return OrthogonalMap(_embed_map(maps[0], frame_c, frame_d, C.dim)) if maps else None


def symmetry_group(S: PeriodicSet, p_index: int, alpha: float,
                   tol: Optional[float] = None) -> SymmetryGroup:
    """All self-isometries of the alpha-cluster fixing the center."""
    C = alpha_cluster(S, p_index, alpha)
    return cluster_symmetry_group(C, tol)


def cluster_symmetry_group(C: Cluster, tol: Optional[float] = None
                           ) -> SymmetryGroup:
    """The cluster's self-isometries from the isometry search of C onto
    itself, in the one hull frame, where the identity maps C exactly;
    in codimension 1 each map is followed by its product with the
    reflection across the hull."""
    n = C.dim
    rank, frame = _rank_and_frame(C.points, float(C.lengths.max()))
    pc = C.points @ frame[:rank].T
    maps = [_embed_map(m, frame, frame, n) for m in
            _reduced_maps(pc, pc, match_tolerance(C.alpha, tol), first_only=False)]
    if n - rank >= 2:
        return SymmetryGroup(continuous=True, rank=rank, reduced_order=len(maps))
    elements = maps
    if rank < n:
        flip = _embed_map(np.eye(rank), frame, frame, n, det_sign=-1.0)
        elements = [e for m in maps for e in (m, flip @ m)]
    return SymmetryGroup(continuous=False, rank=rank, reduced_order=len(maps),
                         elements=tuple(elements), order=len(elements))


def groups_equal(g1: SymmetryGroup, g2: SymmetryGroup,
                 tol: float = TOL_ORTHO) -> bool:
    if g1.continuous != g2.continuous:
        return False
    if g1.continuous:
        return g1.rank == g2.rank and g1.reduced_order == g2.reduced_order
    if g1.order != g2.order:
        return False
    for e1 in g1.elements:
        if not any(np.abs(e1 - e2).max() <= 10 * tol for e2 in g2.elements):
            return False
    return True


# ---------------------------------------------------------------------------
# partitions, isotree, stable radius, isoset


def _refine(S: PeriodicSet, parent, alpha: float, tol: Optional[float],
            witnesses: dict):
    """Split every block of `parent` by isometry class of its members'
    alpha-clusters; blocks are sorted tuples, ordered by smallest member.

    Only members of one parent block are compared, so `parent` must be the
    partition at some radius <= alpha (the alpha-partition at alpha'
    refines the one at alpha <= alpha').  witnesses[i] = (rep, map) holds
    the last map found from i onto rep, which is tried first, with the map
    as clusters_isometric's witness."""
    blocks = []
    for pblock in parent:
        if len(pblock) == 1:
            blocks.append(pblock)
            continue
        split = {}  # representative -> (its cluster, members)
        for i in pblock:
            C = alpha_cluster(S, i, alpha)
            last, witness = witnesses.get(i, (None, None))
            j = i  # a new block, unless a representative matches
            for rep in sorted(split, key=lambda r: r != last):
                found = clusters_isometric(C, split[rep][0], tol,
                                           witness if rep == last else None)
                if found is not None:
                    j, witnesses[i] = rep, (rep, found)
                    break
            split.setdefault(j, (C, []))[1].append(i)
        blocks.extend(tuple(members) for _, members in split.values())
    return tuple(sorted(blocks))


def alpha_partition(S: PeriodicSet, alpha: float, tol: Optional[float] = None):
    """Motif indices split by isometry class of their alpha-clusters;
    blocks are sorted tuples, ordered by smallest member."""
    return _refine(S, (tuple(range(S.m)),), alpha, tol, {})


def _distinct(values: np.ndarray, tol: float) -> np.ndarray:
    """The sorted values without each one within tol of the last one kept.
    A gap above tol always starts a kept value, so values are walked one by
    one only inside a run of near-equal ones whose span passes tol."""
    keep = np.diff(values, prepend=-np.inf) > tol
    starts = np.flatnonzero(keep)
    ends = np.r_[starts[1:], len(values)][:len(starts)]
    wide = values[ends - 1] - values[starts] > tol
    for a, b in zip(starts[wide].tolist(), ends[wide].tolist()):
        last = values[a]
        for j in range(a + 1, b):
            if values[j] - last > tol:
                keep[j], last = True, values[j]
    return values[keep]


def critical_radii(S: PeriodicSet, alpha_max: float):
    """Sorted distinct pairwise distances <= alpha_max, where cluster
    membership (hence any partition) can change."""
    lengths = np.sort(neighbor_pairs(S, alpha_max)[3])
    return _distinct(lengths, REL_TOL * S.cell.diameter).tolist()


def isotree(S: PeriodicSet, alpha_max: float, tol: Optional[float] = None
            ) -> Isotree:
    """Merge tree of alpha-partitions sampled at every critical radius.

    Raises DataError when a partition does not refine the one below it,
    which happens when two critical radii lie within the match tolerance
    of each other: the set is then a near-tie of a more symmetric one, and
    a shell split between the two radii is matched as if it were whole."""
    radii = [0.0] + critical_radii(S, alpha_max)
    partitions = [alpha_partition(S, r, tol) for r in radii]
    parents = [tuple()]
    for lvl in range(1, len(radii)):
        prev, cur = partitions[lvl - 1], partitions[lvl]
        links = []
        for block in cur:
            parent = next(
                pb for pb, pblock in enumerate(prev) if block[0] in pblock
            )
            if not set(block) <= set(prev[parent]):
                gap = radii[lvl] - radii[lvl - 1]
                match = match_tolerance(radii[lvl], tol)
                tie = (f"; they are a near-tie, {gap:.3g} apart within the "
                       f"match tolerance {match:.3g}" if gap <= match else "")
                raise DataError(
                    f"alpha-partitions failed to refine at radius "
                    f"{radii[lvl]:.12g}: the partition there joins points "
                    f"that the one at the critical radius "
                    f"{radii[lvl - 1]:.12g} separates{tie}")
            links.append(parent)
        parents.append(tuple(links))
    return Isotree(tuple(radii), tuple(partitions), tuple(parents))


@dataclass(frozen=True)
class StableRadiusResult:
    alpha: float
    beta: float
    fallback: bool = False


def _filter_group(root: SymmetryGroup, C: Cluster, tol: Optional[float]
                  ) -> SymmetryGroup:
    """The elements of a full-rank root group that still map C onto itself."""
    if root.order == 1:
        return root
    tree = cKDTree(C.points)
    tol_abs = match_tolerance(C.alpha, tol)
    kept = tuple(
        e for e in root.elements
        if _verify_map(e, C.points, tree, C.size, tol_abs)
    )
    return SymmetryGroup(continuous=False, rank=root.rank,
                         reduced_order=len(kept), elements=kept,
                         order=len(kept))


def _easy_bound(S: PeriodicSet) -> float:
    """max{2b, d} of the reduced cell: it bounds the stable radius, and a
    set and its re-celled copy share their reduced cell (up to ties among
    reduced bases), so they get the same bound."""
    reduced = S.cell._reduction[2]
    return max(2.0 * reduced.longest_edge, reduced.diameter)


class _StableScan:
    """One minimum-stable-radius scan over the critical grid `crit`, up to
    the set's _easy_bound.

    Partitions and groups are computed lazily per grid level and cached.
    A partition refines the nearest settled lower level already computed
    (the alpha-partition at alpha' refines the one at alpha <= alpha').
    Each motif point has one root group, searched at the first settled
    level where its cluster has full rank; above it the group is the
    root's elements that still verify (a self-isometry of a larger cluster
    restricts to one of a smaller cluster).  Below the root the group is
    searched.  A level is settled when no critical radius lies within the
    match tolerance above it: a shell whose radii a near-tie splits is
    partly inside such a level, which breaks both facts within tolerance.
    A point's last map onto its representative is clusters_isometric's
    witness, tried before a search.
    """

    def __init__(self, S: PeriodicSet, tol: Optional[float]):
        self.S, self.tol = S, tol
        self.upper = _easy_bound(S)
        self.snap_tol = REL_TOL * S.cell.diameter
        # the largest radius first, isoset's margin at the bound included:
        # every later cluster, and isoset's at the radius found, is a
        # prefix of its stack
        neighbor_pairs(S, self.upper + match_tolerance(self.upper, tol))
        self.crit = [0.0] + critical_radii(S, self.upper + self.snap_tol)
        self.beta = bridge_length(S)
        self.band = 2.0 * match_tolerance(self.crit[-1], tol)
        self.partitions = {}  # level -> partition
        self.parents = []     # sorted settled levels in `partitions`
        self.groups = {}      # (motif index, level) -> SymmetryGroup
        self.roots = {}       # motif index -> (level, root group)
        self.witnesses = {}   # motif index -> (representative, map)

    def snap(self, r: float) -> int:
        return bisect.bisect_right(self.crit, r + self.snap_tol) - 1

    def partition(self, idx: int):
        if idx not in self.partitions:
            pos = bisect.bisect_left(self.parents, idx)
            parent = (self.partitions[self.parents[pos - 1]] if pos
                      else (tuple(range(self.S.m)),))
            self.partitions[idx] = _refine(self.S, parent, self.crit[idx],
                                           self.tol, self.witnesses)
            if self._settled(idx):
                self.parents.insert(pos, idx)
        return self.partitions[idx]

    def _settled(self, j: int) -> bool:
        """The next critical radius is more than the scan's widest length
        tolerance above level j, so no near-tie splits a shell there."""
        nxt = self.crit[j + 1] if j + 1 < len(self.crit) else np.inf
        return nxt - self.crit[j] > self.band

    def _full_rank(self, p: int, idx: int) -> bool:
        C = alpha_cluster(self.S, p, self.crit[idx])
        rank, _ = _rank_and_frame(C.points, float(C.lengths.max()))
        return rank == self.S.dim

    def _root(self, p: int):
        if p not in self.roots:
            # rank only grows with the radius: gallop, then bisect, for the
            # first full-rank level (level 0 is the center alone, rank 0)
            end = len(self.crit)
            step = 1
            while step < end and not self._full_rank(p, step):
                step *= 2
            level = bisect.bisect_left(range(end), True, step // 2, min(step, end),
                                       key=lambda i: self._full_rank(p, i))
            while level < end and not self._settled(level):
                level += 1
            root = (symmetry_group(self.S, p, self.crit[level], self.tol)
                    if level < end else None)
            if root is None or root.rank < self.S.dim:
                level, root = end, None
            self.roots[p] = (level, root)
        return self.roots[p]

    def group(self, p: int, idx: int) -> SymmetryGroup:
        key = (p, idx)
        if key not in self.groups:
            level, root = self._root(p)
            if idx < level:
                g = symmetry_group(self.S, p, self.crit[idx], self.tol)
            elif idx == level:
                g = root
            else:
                g = _filter_group(root, alpha_cluster(self.S, p, self.crit[idx]),
                                  self.tol)
            self.groups[key] = g
        return self.groups[key]

    def run(self) -> StableRadiusResult:
        beta, upper, snap_tol = self.beta, self.upper, self.snap_tol
        grid = np.r_[self.crit, np.add(self.crit, beta)]
        grid = grid[(grid >= beta - snap_tol) & (grid <= upper + snap_tol)]
        for alpha in np.unique(np.r_[beta, upper, grid]).tolist():
            hi, lo = self.snap(alpha), self.snap(max(alpha - beta, 0.0))
            # the lower level first, so that the higher one refines it
            if self.partition(lo) != self.partition(hi):
                continue
            # point by point, stopping at the first mismatch
            if all(
                groups_equal(self.group(p, hi), self.group(p, lo))
                for p in range(self.S.m)
            ):
                return StableRadiusResult(alpha=alpha, beta=beta)
        return StableRadiusResult(alpha=upper, beta=beta, fallback=True)


def minimum_stable_radius(S: PeriodicSet, tol: Optional[float] = None
                          ) -> StableRadiusResult:
    """Smallest alpha >= beta with P(S; alpha) = P(S; alpha - beta) and
    stabilized symmetry groups, beta the exact bridge length.

    Partitions and groups are piecewise constant in the radius, changing
    only at pairwise distances; the scan therefore visits the critical
    radii and their beta-shifts, snapping both compared radii onto the
    critical grid.  The scan is monotone: partitions refine the nearest
    lower level computed, and each point's groups at and above the first
    full-rank level are filtered from the one group searched there.
    """
    return _StableScan(S, tol).run()


def isoset(S: PeriodicSet, alpha: float, tol: Optional[float] = None) -> Isoset:
    """Weighted isometry classes of alpha-clusters; class representative is
    the lexicographically smallest sorted cluster of the class."""
    tol_abs = match_tolerance(alpha, tol)
    # the largest radius first: every cluster is a prefix of its stack
    lengths = neighbor_pairs(S, alpha + tol_abs)[3]
    unstable = bool(np.any(np.abs(lengths - alpha) <= tol_abs))
    partition = alpha_partition(S, alpha, tol)
    classes = []
    for block in partition:
        members = [alpha_cluster(S, i, alpha) for i in block]
        rep = members[0] if len(members) == 1 else min(
            members, key=lambda c: tuple(c.points.ravel()))
        classes.append(
            IsometryClass(
                representative=rep,
                weight=Fraction(len(block), S.m),
                members=tuple(block),
            )
        )
    return Isoset(alpha=alpha, classes=tuple(classes), unstable=unstable)


def common_stable_alpha(*sets: PeriodicSet) -> float:
    """A radius stable for every set: the largest of their easy bounds,
    each max{2b, d} of the reduced cell (_easy_bound), so a re-celled copy
    does not move it; 0.0 for no set."""
    return max((_easy_bound(S) for S in sets), default=0.0)


def stable_alpha(S: PeriodicSet, Q: PeriodicSet, tol: Optional[float] = None):
    """(alpha, fallback): the larger of the two minimum stable radii, a
    radius stable for both sets; fallback is True when either scan fell
    back to the easy bound."""
    a, b = minimum_stable_radius(S, tol), minimum_stable_radius(Q, tol)
    return max(a.alpha, b.alpha), a.fallback or b.fallback


def isosets_equal(S: PeriodicSet, Q: PeriodicSet, tol: Optional[float] = None,
                  alpha: Optional[float] = None) -> bool:
    """The isometry decision: weight-respecting bijection between isosets
    at a common stable radius, common_stable_alpha by default.  Each class
    pair tries the last map found between two classes before a search: an
    isometry of the sets maps every class by one map, so on a moved copy
    whose representatives correspond one search serves every class."""
    if S.dim != Q.dim:
        return False
    if alpha is None:
        alpha = common_stable_alpha(S, Q)
    A = isoset(S, alpha, tol)
    B = isoset(Q, alpha, tol)
    # classes within one isoset are pairwise non-isometric, so each class
    # has at most one partner and greedy matching is a perfect matching
    unmatched = list(B.classes)
    witness = None
    for a in A.classes:
        for j, b in enumerate(unmatched):
            if a.weight != b.weight:
                continue
            found = clusters_isometric(a.representative, b.representative,
                                       tol, witness)
            if found is not None:
                witness = found
                unmatched.pop(j)
                break
        else:
            return False
    return not unmatched

"""Periodic point sets: unit cells, motifs, neighbor enumeration and radii.

Conventions used throughout the package:

* basis vectors are the *rows* of an (n, n) matrix, so a Cartesian point is
  ``frac @ basis`` for fractional coordinates ``frac``;
* motif points carry fractional coordinates in the half-open box [0, 1)^n,
  which avoids any weighted counting of points on cell boundaries;
* all functions are pure and never mutate their inputs.

One pair list, neighbor_pairs (the motif points' cached neighbor-stack
prefixes without each point itself), feeds the least interpoint distance,
the bridge length (one orientation per edge, by one mask), isoset's
critical radii and its unstable flag.  As their first reader, it builds
a set's neighbor stacks by one enumeration of all its motif points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple, Optional

import numpy as np
from scipy.spatial import Voronoi, cKDTree

# determinant cutoff (relative to b^n) below which a cell is rejected
TOL_DEGENERATE = 1e-12
# largest accepted |basis entry|: for n <= 3 the squared lengths (<= 3e200),
# b^n (<= 5.2e300) and det(basis) (<= 6e300) then stay finite
MAX_BASIS_ENTRY = 1e100
# smallest accepted longest basis vector: for n <= 3, b^n (>= 1e-300) then
# stays a normal float and does not underflow to zero
MIN_BASIS_LENGTH = 1e-100
# relative tolerance for distance comparisons and deduplication
REL_TOL = 1e-9
# most entries of one block of pairwise distances or differences (the
# coincidence check here, the neighbor distances in amd, the nearest-point
# queries in metric)
BLOCK_ENTRIES = 2_000_000


class DataError(ValueError):
    """Invalid periodic-set data (degenerate cell, bad fractions, ...)."""


@dataclass(frozen=True)
class UnitCell:
    """Parallelepiped spanned by n basis row-vectors, n in {1, 2, 3}."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise DataError("basis must be a square matrix of row vectors")
        n = basis.shape[0]
        if n not in (1, 2, 3):
            raise DataError(f"dimension {n} not supported (only n = 1, 2, 3)")
        if not np.all(np.isfinite(basis)):
            raise DataError("basis entries must be finite numbers")
        if np.abs(basis).max() > MAX_BASIS_ENTRY:
            raise DataError(
                f"basis entries must not exceed {MAX_BASIS_ENTRY:g} in absolute value")
        b = float(np.linalg.norm(basis, axis=1).max())
        if b < MIN_BASIS_LENGTH:
            raise DataError(
                f"the longest basis vector must be at least {MIN_BASIS_LENGTH:g} long")
        det = float(np.linalg.det(basis))
        if abs(det) <= TOL_DEGENERATE * b ** n:
            raise DataError("degenerate cell: |det(basis)| is numerically zero")
        # read-only, because the derived quantities below are cached
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def volume(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    @property
    def longest_edge(self) -> float:
        """Length b of the longest basis vector."""
        return float(np.linalg.norm(self.basis, axis=1).max())

    @cached_property
    def diameter(self) -> float:
        """Length d of the longest cell diagonal sum(+-v_i), leading sign +."""
        n = self.dim
        best = 0.0
        for signs in product((1.0, -1.0), repeat=n - 1):
            diag = self.basis[0] + sum(
                s * v for s, v in zip(signs, self.basis[1:])
            )
            best = max(best, float(np.linalg.norm(diag)))
        return best

    @cached_property
    def inv_basis(self) -> np.ndarray:
        inv = np.linalg.inv(self.basis)
        inv.flags.writeable = False
        return inv

    @cached_property
    def _reduction(self) -> tuple:
        """(U, U^-1, reduced cell): the integer unimodular U of the greedy
        reduction of reduce_basis (U @ basis has the successive minima as
        lengths, and a scaled cell gets the same U up to ties), its integer
        inverse, and the cell of U @ basis, this cell itself when U is the
        identity.  Fractional coordinates f on this cell are f @ U^-1 on
        the reduced one."""
        U = _greedy_unimodular(self.basis)
        U_inv = np.rint(np.linalg.inv(U)).astype(int)
        if np.array_equal(U, np.eye(self.dim, dtype=U.dtype)):
            return U, U_inv, self
        return U, U_inv, UnitCell(U @ self.basis)


@dataclass(frozen=True)
class PeriodicSet:
    """A periodic point set: unit cell plus motif of fractional points."""

    cell: UnitCell
    motif: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self):
        motif = np.atleast_2d(np.array(self.motif, dtype=float))
        n = self.cell.dim
        if motif.shape[0] < 1:
            raise DataError("motif must contain at least one point")
        if motif.shape[1] != n:
            raise DataError(
                f"motif points have {motif.shape[1]} coordinates, cell has dimension {n}"
            )
        # the comparisons are False for NaN, so [0, 1) is tested positively
        if not np.all((motif >= 0.0) & (motif < 1.0)):
            raise DataError("fractional coordinates must lie in [0, 1)")
        if self.labels is not None and len(self.labels) != motif.shape[0]:
            raise DataError("labels, when given, need one entry per motif point")
        # read-only, because the neighbor stacks below are cached
        motif.flags.writeable = False
        object.__setattr__(self, "motif", motif)
        self._check_coincidence(motif)

    def _check_coincidence(self, motif):
        # two points coincide when their difference is a lattice vector up
        # to tol, which is under half a cell per axis unless the cell is
        # 5e8 times longer than wide, so that vector is their fractional
        # difference rounded.  Rows of pairs are taken in blocks of at most
        # BLOCK_ENTRIES differences, each pair with the same arithmetic
        m, n = motif.shape
        rows = max(1, BLOCK_ENTRIES // (m * n))
        for a in range(0, m, rows):
            diff = motif[a:a + rows, None, :] - motif[None, :, :]
            dist = np.linalg.norm((diff - np.rint(diff)) @ self.cell.basis,
                                  axis=-1)
            dist[np.arange(len(dist)), a + np.arange(len(dist))] = np.inf
            if dist.min() <= REL_TOL * self.cell.diameter:
                raise DataError("motif contains coincident points")

    @property
    def m(self) -> int:
        return self.motif.shape[0]

    @property
    def dim(self) -> int:
        return self.cell.dim

    @property
    def cartesian_motif(self) -> np.ndarray:
        return self.motif @ self.cell.basis

    @cached_property
    def _stacks(self) -> dict:
        """Motif index -> the largest NeighborStack built so far."""
        return {}

    @cached_property
    def reduced(self) -> "PeriodicSet":
        """The same set on its cell's reduced cell (UnitCell._reduction),
        motif order and labels kept: change_cell(self, U) bit for bit, with
        the cached reduced cell, and the set itself when U is the identity."""
        _, U_inv, cell = self.cell._reduction
        if cell is self.cell:
            return self
        return PeriodicSet(cell, fold_fractions(self.motif @ U_inv), self.labels)


@dataclass(frozen=True)
class RadiusReport:
    """The radii every other invariant builds on."""

    packing_radius: float
    covering_radius: float
    bridge_length: float
    easy_stable_radius: float
    covering_method: str = "voronoi"


# Largest enumeration, (lattice offsets) x (motif points), that
# neighbor_arrays and neighbor_cloud build, and most point pairs of the
# d_R table of metric._RotationProfile; above it they raise DataError
# before allocating.  In 3D one slot costs about 115 bytes at the peak of
# neighbor_arrays (measured on the cubic lattice), so the cap keeps one
# call near 230 MB.  Measured largest enumerations (seed 1 of each
# perfbench workload, and the test suite): 2,673 slots in the workloads
# (screen) and 8,658 in the tests (a neighbor_cloud contract test).
MAX_ENUMERATION = 2_000_000


def check_limit(size, message: str) -> None:
    """Raise DataError, before any work, when `size` (enumerated points, d_R
    pairs, or numbers a density command prints) passes MAX_ENUMERATION."""
    if size > MAX_ENUMERATION:
        raise DataError(f"{message}, more than the limit {MAX_ENUMERATION}")


def _fractional_window(cell: UnitCell, frac_lo, frac_hi, reach: float):
    """Per axis, the fractional interval [a, b] holding every point within
    Cartesian distance `reach` of the box [frac_lo, frac_hi]: a point that
    far moves by at most reach * |inv_basis[:, i]| along fractional axis i.
    Both ends carry a rounding slack of REL_TOL relative."""
    if not math.isfinite(reach):
        raise DataError("radius must be a finite number")
    dual = np.linalg.norm(cell.inv_basis, axis=0)  # fractional reach per unit length
    a = np.asarray(frac_lo, dtype=float) - reach * dual
    b = np.asarray(frac_hi, dtype=float) + reach * dual
    slack = REL_TOL * (1.0 + np.maximum(np.abs(a), np.abs(b)))
    return a - slack, b + slack


def _lattice_offsets(cell: UnitCell, frac_lo, frac_hi, reach: float,
                     m: int) -> np.ndarray:
    """Integer cell offsets o whose shifted cells o + [0, 1)^n can hold a
    point of the window of _fractional_window: floor(a) .. floor(b) per
    axis.  Rows of frac_lo/hi each get the widest row's box from their a.

    Raises DataError when a window's offsets x m would pass MAX_ENUMERATION;
    the count is estimated in floats before anything is allocated, and a
    window or count past the float range reads as infinite.
    """
    with np.errstate(over="ignore"):
        a, b = _fractional_window(cell, frac_lo, frac_hi, reach)
        lo, hi = np.floor(a), np.floor(b)
        size = float(np.max(np.prod(hi - lo + 1, axis=-1))) * m
    check_limit(size, f"radius {reach:.6g} needs about {size:.3g} enumerated points")
    span = np.atleast_2d(hi - lo).max(axis=0).astype(int) + 1
    return lo.astype(int)[..., None, :] + np.indices(span).reshape(len(span), -1).T


class NeighborStack(NamedTuple):
    """neighbor_arrays output together with the lengths that order it."""

    vectors: np.ndarray  # q - p, Cartesian
    lengths: np.ndarray  # |q - p|, non-decreasing
    indices: np.ndarray  # motif index of q
    shifts: np.ndarray   # integer lattice coordinates of q's cell


def _enumerate(S: PeriodicSet, points, alpha: float) -> list:
    """The NeighborStack of each motif point in `points` at radius alpha
    (see neighbor_arrays) by one pass, with each point's own arithmetic,
    over their windows padded to one box, in blocks of BLOCK_ENTRIES
    coordinates; sorted by (point, length), and by the full (length,
    coordinates, index) key only inside exact length ties."""
    cell, n, m = S.cell, S.dim, S.m
    if not 0 <= min(points) <= max(points) < m:
        raise IndexError("motif index out of range")
    U, U_inv, reduced = cell._reduction
    bound = alpha + REL_TOL * (alpha + cell.diameter)
    frac = S.motif @ U_inv
    offsets = _lattice_offsets(reduced, frac[points], frac[points], bound, m)
    owner = np.repeat(np.arange(len(points)), offsets.shape[1])
    # (o + folds_j) @ U, exact in integers
    offsets, folds = offsets.reshape(-1, n) @ U, -np.floor(frac).astype(int) @ U
    cart_motif, centres = S.motif @ cell.basis, S.motif[points] @ cell.basis
    rows, parts = max(1, BLOCK_ENTRIES // (m * n)), ([], [], [], [], [])
    for a in range(0, len(owner), rows):
        own, slots = owner[a:a + rows], offsets[a:a + rows, None, :] + folds
        vecs = (slots.reshape(-1, n) @ cell.basis).reshape(slots.shape) + cart_motif
        vecs -= centres[own][:, None, :]
        dist = np.linalg.norm(vecs, axis=-1)
        r, j = np.nonzero(dist <= bound)
        for part, kept in zip(parts, (own[r], vecs[r, j], dist[r, j], j, slots[r, j])):
            part.append(kept)
    del slots, vecs, dist  # the last block's, before the blocks are joined

    def join(field):
        # one field's blocks joined, and released: the peak holds one
        # field twice, not every field
        joined = np.concatenate(parts[field])
        parts[field].clear()
        return joined

    own, dist, idx, vecs = join(0), join(2), join(3), join(1)
    order = np.lexsort((dist, own))
    tied = (np.diff(dist[order]) == 0) & (np.diff(own[order]) == 0)
    at = np.flatnonzero(np.r_[tied, False] | np.r_[False, tied])
    sub = order[at]
    keys = [idx[sub]] + [vecs[sub, c] for c in range(n - 1, -1, -1)]
    order[at] = sub[np.lexsort(keys + [dist[sub], own[sub]])]
    ends = np.cumsum(np.bincount(own, minlength=len(points))).tolist()
    del own
    # each field sorted in turn, its unsorted array released before the next
    vecs = vecs[order]
    dist = dist[order]
    idx = idx[order]
    arrays = (vecs, dist, idx, join(4)[order])
    return [NeighborStack(*(array[a:b] for array in arrays))
            for a, b in zip([0] + ends, ends)]


def neighbor_arrays(S: PeriodicSet, p_index: int, alpha: float):
    """All points q of S with |q - p| <= alpha, p the motif point p_index
    (itself included), as (vectors q - p, motif indices of q, integer
    lattice coordinates of q's cell), sorted by (length, coordinates,
    index).  Only the cells of the reduced cell (UnitCell._reduction) that
    can meet the ball are visited: there motif point j sits at f_j @ U^-1
    + folds_j, in [0, 1) up to a rounding that _fractional_window's slack
    covers, and the window is centred on p's unfolded f_p @ U^-1.  Reduced
    cell o is the given cell's shift (o + folds_j) @ U for point j.  This
    is _enumerate of the one point, the pass that builds a set's stacks."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    vecs, _, idx, shifts = _enumerate(S, [p_index], alpha)[0]
    return vecs, idx, shifts


def _build_stacks(S: PeriodicSet, points, alpha: float) -> None:
    """Cache read-only, from one _enumerate at alpha (callers read their
    largest radius first), the stacks of the `points` not yet built up to
    alpha.  A negative or NaN alpha raises DataError."""
    if not alpha >= 0:
        raise DataError("alpha must be a non-negative number")
    missing = [p for p in points if p not in S._stacks or S._stacks[p][0] < alpha]
    if missing:
        for p, stack in zip(missing, _enumerate(S, missing, alpha)):
            for array in stack:
                array.flags.writeable = False
            S._stacks[p] = (alpha, stack)


def neighbor_stack(S: PeriodicSet, p_index: int, alpha: float) -> NeighborStack:
    """neighbor_arrays(S, p_index, alpha) plus lengths, read as a
    length-prefix of the motif point's cached enumeration.

    The enumeration is sorted by length first, so the points within any
    radius up to the one it was built at are a prefix of it.  The prefix
    ends at alpha + REL_TOL * (alpha + d), found by searchsorted on the
    lengths; that is the inclusion bound of neighbor_arrays, so the arrays
    equal neighbor_arrays(S, p_index, alpha) bit for bit.  A point is
    enumerated again, at alpha, only when a radius beyond its enumeration
    is asked for; neighbor_pairs builds all of a set's stacks by one
    enumeration.  The arrays are read-only views.
    """
    _build_stacks(S, [p_index], alpha)
    full = S._stacks[p_index][1]
    cut = alpha + REL_TOL * (alpha + S.cell.diameter)
    k = int(np.searchsorted(full.lengths, cut, side="right"))
    return NeighborStack(*(array[:k] for array in full))


def neighbor_cloud(S: PeriodicSet, reach: float):
    """The points of S in the reach slab of the unit cell: those whose
    fractional coordinates lie in [-reach |inv_basis[:, i]|,
    1 + reach |inv_basis[:, i]|] on every axis i, up to a rounding slack
    of REL_TOL relative.

    Returns (points, motif_indices).  A point within Cartesian distance
    `reach` of the cell moves by at most reach |inv_basis[:, i]| along
    axis i, so the slab holds every such point, and that is all that its
    consumers use: the covering radius needs the points within d/2 of the
    cell (packing_covering_radii), AMD the k+1 nearest points of each
    motif point, certified when they lie within the reach
    (amd.nearest_neighbor_distances), sampled density the points within
    the largest t of a sample in the cell (psi_sampled, one cloud and one
    query for every k), and the
    bottleneck distance the nearest copy of each motif point, within the
    cell diameter of a point in the cell.
    """
    cell = S.cell
    offsets = _lattice_offsets(cell, np.zeros(cell.dim), np.ones(cell.dim),
                               reach, S.m)
    lo, hi = _fractional_window(cell, np.zeros(cell.dim), np.ones(cell.dim), reach)
    frac = S.motif[None, :, :] + offsets[:, None, :]
    keep = np.all((frac >= lo) & (frac <= hi), axis=-1)
    cart_off = offsets @ cell.basis
    pts = S.cartesian_motif[None, :, :] + cart_off[:, None, :]
    cells, idx = np.nonzero(keep)
    return pts[cells, idx], idx


def neighbor_pairs(S: PeriodicSet, radius: float):
    """(i, j, shift, length) of every point within `radius` of a motif
    point i, motif point j in the cell of lattice coordinates shift: the
    neighbor stacks in motif order, each without the point itself.  A stack
    is sorted by length, and the point itself is its only length within
    REL_TOL * d (motif points do not coincide), so it is a prefix.
    The stacks not yet built up to `radius` come from one enumeration."""
    tol = REL_TOL * S.cell.diameter
    _build_stacks(S, range(S.m), radius)
    stacks = [neighbor_stack(S, i, radius) for i in range(S.m)]
    cut = [np.searchsorted(s.lengths, tol, side="right") for s in stacks]
    i = np.repeat(np.arange(S.m), [len(s.lengths) - c for s, c in zip(stacks, cut)])
    j, shifts, lengths = (
        np.concatenate([getattr(s, name)[c:] for s, c in zip(stacks, cut)])
        for name in ("indices", "shifts", "lengths"))
    return i, j, shifts, lengths


def min_interpoint_distance(S: PeriodicSet) -> float:
    """Minimum distance between distinct points of the infinite set, at
    most the shortest lattice vector, the reduced cell's first row."""
    probe = float(np.linalg.norm(S.cell._reduction[2].basis[0])) * (1 + 1e-9)
    return float(neighbor_pairs(S, probe)[3].min())


def packing_covering_radii(S: PeriodicSet) -> tuple:
    """(r, R): half the minimum interpoint distance, and the deepest-hole
    distance computed from Voronoi vertices of a periodic patch (analytic
    in 1D).

    The patch is neighbor_cloud's reach slab at d/2, for S.reduced and d
    the diameter of its cell: the points whose fractional coordinates
    lie in [-d/2 |inv_basis[:, i]|, 1 + d/2 |inv_basis[:, i]|].  It holds
    every point of S within d/2 of the cell (on a cubic lattice, the 8
    cell corners), and that reach is enough.  A point x = sum t_i v_i
    lies within |sum s_i v_i| <= d/2 (|s_i| <= 1/2) of the lattice point
    found by rounding each t_i, so every x is within d/2 of a copy of
    each motif point and R <= d/2.  A vertex of the Voronoi diagram of S
    inside the cell therefore has all of its nearest points in the patch,
    and no patch point closer, so it is a vertex of the patch's diagram
    too.  For any vertex v of the patch's diagram
    inside the cell, the nearest patch point is the nearest point of S, so
    the KD-tree query returns the true distance from v to S, at most R.
    The largest query distance over the vertices in the cell is thus R.
    """
    r = 0.5 * min_interpoint_distance(S)
    n = S.dim
    if n == 1:
        period = abs(float(S.cell.basis[0, 0]))
        xs = np.sort(S.motif[:, 0] * period)
        gaps = np.diff(np.concatenate([xs, [xs[0] + period]]))
        R = 0.5 * float(gaps.max())
        return r, R
    S = S.reduced
    pts, _ = neighbor_cloud(S, 0.5 * S.cell.diameter)
    vor = Voronoi(pts)
    frac = vor.vertices @ S.cell.inv_basis
    window = np.all((frac >= -1e-9) & (frac <= 1 + 1e-9), axis=1)
    verts = vor.vertices[window]
    if verts.shape[0] == 0:
        raise RuntimeError("no Voronoi vertices found inside the cell window")
    tree = cKDTree(pts)
    dist, _ = tree.query(verts)
    R = float(dist.max())
    return r, R


def bridge_length(S: PeriodicSet) -> float:
    """Exact bridge length: the smallest hop length whose hop graph connects
    the whole infinite set.

    The quotient edges up to max{b, d/2} of the reduced cell, which is
    always feasible, are walked once by length (a stable argsort): the
    pairs (i, j, shift) of neighbor_pairs with j > i, or j == i and the
    first nonzero shift coordinate positive, one per geometric edge, as
    (j, i, -shift) is the same edge.  A union-find over the
    motif points keeps each point's lattice offset from its root; an edge
    inside a component closes a cycle of translation off_i + shift - off_j,
    which joins an integer echelon basis by Hermite (Euclid) steps.  The
    set is connected once there is one component and the cycles span Z^n:
    n pivots of product +-1.  Lengths within tol of a group's first length
    form one group, and the first length of the group that completes this
    is returned.
    """
    n = S.dim
    reduced = S.cell._reduction[2]
    bound = max(reduced.longest_edge, 0.5 * reduced.diameter)
    tol = REL_TOL * S.cell.diameter
    i, j, shifts, lengths = neighbor_pairs(S, bound * (1 + 1e-9) + tol)
    lead = shifts[np.arange(len(shifts)), np.argmax(shifts != 0, axis=1)]
    keep = np.flatnonzero((j > i) | ((j == i) & (lead > 0)))
    keep = keep[np.argsort(lengths[keep], kind="stable")]
    edges = zip(*(a[keep].tolist() for a in (i, j, shifts, lengths)))
    parent = list(range(S.m))
    offset = [(0,) * n] * S.m  # lattice offset of a point from its parent

    def find(u):
        off = (0,) * n
        while parent[u] != u:
            off = tuple(a + b for a, b in zip(off, offset[u]))
            u = parent[u]
        return u, off

    components, rows, start = S.m, {}, -math.inf  # rows: pivot column -> row
    for i, j, shift, length in edges:
        if length - start > tol:
            start = length
        (root_i, off_i), (root_j, off_j) = find(i), find(j)
        cycle = [a + s - b for a, s, b in zip(off_i, shift, off_j)]
        if root_i != root_j:
            parent[root_j], offset[root_j] = root_i, cycle
            components -= 1
        else:
            for c in range(n):
                if cycle[c] and c not in rows:
                    rows[c] = cycle
                    break
                while cycle[c]:  # leaves the gcd in the pivot row, 0 in cycle
                    q = rows[c][c] // cycle[c]
                    rows[c], cycle = cycle, [a - q * b for a, b in zip(rows[c], cycle)]
        if (components == 1 and len(rows) == n
                and abs(math.prod(r[c] for c, r in rows.items())) == 1):
            return start
    raise RuntimeError("no feasible bridge threshold below max{b, d/2}")


def easy_stable_radius(S: PeriodicSet) -> float:
    """Upper bound max{2b, d} for the minimum stable radius."""
    return max(2.0 * S.cell.longest_edge, S.cell.diameter)


def radius_report(S: PeriodicSet) -> RadiusReport:
    # the bridge length's neighbor stacks are the larger, so they go first
    beta = bridge_length(S)
    r, R = packing_covering_radii(S)
    return RadiusReport(
        packing_radius=r,
        covering_radius=R,
        bridge_length=beta,
        easy_stable_radius=easy_stable_radius(S),
        covering_method="analytic" if S.dim == 1 else "voronoi",
    )


# ---------------------------------------------------------------------------
# basis reduction


def _greedy_unimodular(basis: np.ndarray) -> np.ndarray:
    """The integer unimodular U of reduce_basis(basis) = U @ basis."""
    n = len(basis)
    U = np.eye(n, dtype=np.int64)[
        np.argsort(np.einsum("ij,ij->i", basis, basis), kind="stable")]
    k = 1
    while k < n:
        rows, row = U[:k] @ basis, U[k] @ basis
        real = np.linalg.solve(rows @ rows.T, rows @ row)
        steps = np.rint(real) + np.array(list(product((-1, 0, 1), repeat=k)))
        cands = U[k] - steps.astype(np.int64) @ U[:k]
        vecs = cands @ basis
        lengths = np.einsum("ij,ij->i", vecs, vecs)
        best = int(np.argmin(lengths))
        if lengths[best] < (1.0 - 1e-12) * (row @ row):
            # insert the shortened row by length and test it again there
            i = int(np.searchsorted(np.einsum("ij,ij->i", rows, rows),
                                    lengths[best], side="right"))
            U[i:k + 1] = np.vstack([cands[best], U[i:k]])
            k = max(i, 1)
        else:
            k += 1
    return U


def reduce_basis(basis: np.ndarray) -> np.ndarray:
    """Minkowski-reduced basis of the lattice of the rows, sorted by length,
    so its lengths are the successive minima (n <= 3): the greedy
    reduction of Nguyen and Stehle (ANTS 2004), one loop for every n.
    Row k is shortened by the nearest vector of the lattice of the shorter
    rows (coefficients: the rounded real ones and their +-1 neighbours, 3
    candidates against one row, 9 against two) and moved to its place by
    length, until no row gets shorter by a relative 1e-12 in squared
    length.  Every test is relative, so the unit of length does not
    matter; every step shortens a row by that margin, and finitely many
    lattice vectors are shorter than the longest row, so the loop ends."""
    basis = np.asarray(basis, dtype=float)
    return _greedy_unimodular(basis) @ basis


# ---------------------------------------------------------------------------
# transformations (used for invariance checks and re-parameterizations)


def fold_fractions(frac: np.ndarray) -> np.ndarray:
    out = frac - np.floor(frac)
    out[out >= 1.0] -= 1.0
    return out


def apply_isometry(S: PeriodicSet, ortho: np.ndarray, translation=None) -> PeriodicSet:
    """The image of S under x -> ortho @ x + translation, re-expressed with
    the transformed cell."""
    ortho = np.asarray(ortho, dtype=float)
    new_basis = S.cell.basis @ ortho.T
    cell = UnitCell(new_basis)
    frac = S.motif.copy()
    if translation is not None:
        frac = frac + np.asarray(translation, dtype=float) @ cell.inv_basis
    return PeriodicSet(cell, fold_fractions(frac), S.labels)


def change_cell(S: PeriodicSet, unimodular: np.ndarray) -> PeriodicSet:
    """Re-parameterize the same point set with basis U @ basis, |det U| = 1."""
    U = np.asarray(unimodular)
    if abs(round(float(np.linalg.det(U)))) != 1:
        raise ValueError("cell change requires a unimodular integer matrix")
    U_inv = np.rint(np.linalg.inv(U)).astype(int)
    return PeriodicSet(UnitCell(U @ S.cell.basis),
                       fold_fractions(S.motif @ U_inv), S.labels)


def translate(S: PeriodicSet, vector) -> PeriodicSet:
    frac = S.motif + np.asarray(vector, dtype=float) @ S.cell.inv_basis
    return PeriodicSet(S.cell, fold_fractions(frac), S.labels)

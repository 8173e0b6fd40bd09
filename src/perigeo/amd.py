"""Average Minimum Distances of a periodic point set.

AMD_j is the motif average of the distance from each motif point to its
j-th nearest neighbor in the infinite set.  The distances come from one
distance block per neighbor cloud, on the reduced cell, at a tight reach
that each motif point's row checks after the fact: the rows it does not
certify are retried at a doubled reach, capped at a reach that certifies
every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import BLOCK_ENTRIES, PeriodicSet, neighbor_cloud

# first reach, relative to the radius r_k of a ball of k+1 points' volume
REACH_START = 1.1


@dataclass(frozen=True)
class AmdVector:
    k: int
    values: np.ndarray            # (k,), non-decreasing
    per_point_matrix: np.ndarray  # (m, k) distances d_ij, rows non-decreasing

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(
            self, "per_point_matrix", np.asarray(self.per_point_matrix, dtype=float)
        )


def _smallest(points: np.ndarray, cloud: np.ndarray, count: int) -> np.ndarray:
    """(len(points), count) sorted smallest distances from each point to
    the cloud (count <= len(cloud)), in row blocks of at most
    BLOCK_ENTRIES distances.  Only the selected squares get a square
    root, which is the Euclidean cdist bit for bit."""
    out = np.empty((len(points), count))
    rows = max(1, BLOCK_ENTRIES // len(cloud))
    for start in range(0, len(points), rows):
        sq = cdist(points[start:start + rows], cloud, "sqeuclidean")
        sq = np.partition(sq, count - 1, axis=1)[:, :count]
        out[start:start + rows] = np.sqrt(np.sort(sq, axis=1))
    return out


def nearest_neighbor_distances(S: PeriodicSet, k: int) -> np.ndarray:
    """(m, k) matrix of the distances to the k nearest neighbors of each
    motif point (the point itself excluded).

    The cloud is S.reduced's, whose cell has volume V and diameter d, and
    r_k = ((k+1) V / (m omega_n))^(1/n), omega_n the unit-ball volume.
    The neighbor_cloud at reach rho, first REACH_START * r_k, holds every
    point within rho of the cell, so a motif point whose (k+1)-th nearest
    cloud distance (itself first) is at most rho has its k+1 nearest
    points in the cloud: its row is final.  The other rows are retried at
    twice the reach, capped at r_k + d, which certifies every row: the
    cells that meet B(p, r_k) cover that ball, so there are at least
    (k+1)/m of them, and they lie inside B(p, r_k + d).  A k whose cloud
    would pass MAX_ENUMERATION raises DataError.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    S = S.reduced
    cell = S.cell
    n = cell.dim
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    r_k = ((k + 1) * cell.volume / (S.m * ball)) ** (1 / n)
    cap = r_k + cell.diameter
    motif = S.cartesian_motif
    out = np.empty((S.m, k))
    rows = np.arange(S.m)
    reach = min(REACH_START * r_k, cap)
    while True:
        cloud, _ = neighbor_cloud(S, reach)
        if len(cloud) > k:
            dist = _smallest(motif[rows], cloud, k + 1)
            final = (dist[:, k] <= reach) | (reach == cap)
            out[rows[final]] = dist[final, 1:]
            rows = rows[~final]
            if not rows.size:
                return out
        reach = min(2.0 * reach, cap)


def amd(S: PeriodicSet, k: int) -> AmdVector:
    """AMD^(k): motif averages of the k nearest-neighbor distances."""
    per_point = nearest_neighbor_distances(S, k)
    return AmdVector(k=k, values=per_point.mean(axis=0), per_point_matrix=per_point)

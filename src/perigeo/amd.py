"""Average Minimum Distances of a periodic point set.

AMD_j is the motif average of the distance from each motif point to its
j-th nearest neighbor in the infinite set, found by one KD-tree query on
a neighbor cloud whose reach certifies the k-th distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import PeriodicSet, neighbor_cloud


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


def nearest_neighbor_distances(S: PeriodicSet, k: int) -> np.ndarray:
    """(m, k) matrix of the distances to the k nearest neighbors of each
    motif point (the point itself excluded).

    One neighbor_cloud of reach rho = ((k+1) V / (m omega_n))^(1/n) + d
    serves every motif point p, V being the cell volume, omega_n that of
    the unit ball and d the cell diameter.  The cells that meet
    B(p, rho - d) cover that ball, so there are at least (k+1)/m of them,
    and they lie inside B(p, rho): the cloud holds the k+1 nearest points.
    A k too large for MAX_ENUMERATION raises DataError.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    cell = S.cell
    n = cell.dim
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    reach = ((k + 1) * cell.volume / (S.m * ball)) ** (1 / n) + cell.diameter
    cloud, _ = neighbor_cloud(S, reach)
    dist, _ = cKDTree(cloud).query(S.cartesian_motif, k=k + 1)
    return dist[:, 1:]


def amd(S: PeriodicSet, k: int) -> AmdVector:
    """AMD^(k): motif averages of the k nearest-neighbor distances."""
    per_point = nearest_neighbor_distances(S, k)
    return AmdVector(k=k, values=per_point.mean(axis=0), per_point_matrix=per_point)

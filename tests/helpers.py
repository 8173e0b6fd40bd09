"""Shared test utilities: independent oracles and random-instance builders.

Everything here is deliberately written from the definitions (dense grids,
exhaustive enumeration) so package results are checked against code that
shares no implementation path with them.
"""

import itertools
import math

import numpy as np
from scipy.spatial import Voronoi, cKDTree

import perigeo as pg


def rot2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_orthogonal(rng, n: int) -> np.ndarray:
    M = np.linalg.qr(rng.normal(size=(n, n)))[0]
    if rng.random() < 0.5:
        M[0] = -M[0]
    return M


def random_periodic_set(rng, n: int, m: int, min_sep: float = 0.2,
                        skew: float = 0.15) -> pg.PeriodicSet:
    """Random cell close to the identity with m well-separated motif points."""
    cell = pg.UnitCell(np.eye(n) + skew * rng.normal(size=(n, n)))
    for _ in range(1000):
        motif = rng.random((m, n))
        try:
            S = pg.PeriodicSet(cell, motif)
        except pg.DataError:
            continue
        sep = pg.core.min_interpoint_distance(S)
        if sep >= min_sep * cell.volume ** (1 / n) / max(m, 1) ** (1 / n):
            return S
    raise RuntimeError("could not draw a well-separated motif")


def layered_set(rng, n: int, k: int) -> pg.PeriodicSet:
    """k motif points on the mirror planes x = 0 or 1/2 near the bottom of
    a tall rectangular cell, and one point higher up that breaks the
    mirror: small clusters of the k points are mirror-symmetric, larger
    ones are not."""
    basis = np.diag(np.r_[1 + 0.3 * rng.random(n - 1), 2.5 + rng.random()])
    on = rng.random((k, n))
    on[:, 0] = rng.choice([0.0, 0.5], size=k)
    on[:, -1] = 0.1 * rng.random(k)
    extra = rng.random((1, n))
    extra[0, -1] = 0.25 + 0.5 * rng.random()
    return pg.PeriodicSet(pg.UnitCell(basis), np.vstack([on, extra]))


def jitter_set(rng, S: pg.PeriodicSet, eps: float):
    """Copy of S with every motif point moved by < eps (Cartesian).

    Returns (jittered set, largest actual displacement)."""
    n, m = S.dim, S.m
    dirs = rng.normal(size=(m, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = eps * (0.2 + 0.79 * rng.random(m))
    moves = dirs * radii[:, None]
    frac = pg.core.fold_fractions(S.motif + moves @ S.cell.inv_basis)
    return pg.PeriodicSet(S.cell, frac), float(radii.max())


UNIMODULAR = {
    1: [np.array([[1]]), np.array([[-1]])],
    2: [
        np.array([[1, 0], [0, 1]]),
        np.array([[1, 1], [0, 1]]),
        np.array([[0, 1], [1, 0]]),
        np.array([[1, 0], [1, 1]]),
        np.array([[2, 1], [1, 1]]),
    ],
    3: [
        np.eye(3, dtype=int),
        np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
    ],
}


def skew_unimodular(n: int, c: int) -> np.ndarray:
    """The unimodular matrix with ones on the diagonal and c just above it,
    [[1, c, 0], [0, 1, c], [0, 0, 1]] in 3D: re-expressed with it, a
    near-cubic cell is about c^(n-1) times longer than it is wide."""
    return np.eye(n, dtype=int) + c * np.eye(n, k=1, dtype=int)


def random_unimodular(rng, n: int, steps: int) -> np.ndarray:
    """An integer matrix of determinant 1: the identity after `steps` row
    operations, each adding -3..3 times one row to another."""
    U = np.eye(n, dtype=int)
    for _ in range(steps):
        i, j = rng.choice(n, 2, replace=False)
        U[i] += rng.integers(-3, 4) * U[j]
    return U


def contract_sets():
    """Skewed 2D and 3D cells (skew up to 0.4) with m = 1..3, every other
    one re-celled by a unimodular matrix, and sets re-expressed in cells
    about 5 (2D) and 2 (3D) times longer than wide, whose reduced cells
    differ from the given ones."""
    rng = np.random.default_rng(1212)
    out = []
    for n in (2, 3):
        for skew in (0.1, 0.25, 0.4):
            for m in (1, 2, 3):
                try:
                    S = random_periodic_set(rng, n, m, skew=skew)
                except pg.DataError:  # a thin cell passed the enumeration cap
                    continue
                if len(out) % 2:
                    S = pg.change_cell(S, UNIMODULAR[n][1 + len(out) % 3])
                out.append(S)
    for n, c in ((2, 5), (3, 1)):
        for m in (1, 2):
            S = random_periodic_set(rng, n, m)
            out.append(pg.change_cell(S, skew_unimodular(n, c)))
    return out


def successive_minima(basis, reach: int = 3) -> np.ndarray:
    """Lengths lambda_1 <= ... <= lambda_n of the lattice of the rows, by
    brute force over integer combinations with coefficients in
    [-reach, reach]: the i-th is the length of the shortest combination
    independent of the ones picked before.  Exact when every successive
    minimum has a vector in that box, as for a basis within 0.15 per
    entry of the identity and reach 3."""
    n = len(basis)
    coeffs = np.array(list(itertools.product(range(-reach, reach + 1), repeat=n)))
    vecs = coeffs[np.any(coeffs != 0, axis=1)] @ basis
    lengths = np.linalg.norm(vecs, axis=1)
    picked = np.zeros((0, n))
    minima = []
    for j in np.argsort(lengths):
        grown = np.vstack([picked, vecs[j]])
        if np.linalg.matrix_rank(grown, tol=1e-6 * lengths[j]) > len(picked):
            picked = grown
            minima.append(lengths[j])
            if len(minima) == n:
                break
    return np.array(minima)


def coverage_multiplicity_1d(points, t: float, samples: int = 10 ** 6):
    """Multiplicity of radius-t interval coverage at midpoint samples of the
    unit period, counting every periodic copy p + j within t (brute-force
    density oracle, any t >= 0)."""
    xs = (np.arange(samples) + 0.5) / samples
    mult = np.zeros(samples, dtype=int)
    reach = int(np.ceil(t)) + 1
    for p in points:
        for j in range(-reach, reach + 1):
            mult += np.abs(xs - (p + j)) <= t
    return mult


def psi_bruteforce_1d(points, k: int, t: float, samples: int = 10 ** 6) -> float:
    mult = coverage_multiplicity_1d(points, t, samples)
    return float(np.mean(mult == k))


def make_pwl(points) -> pg.PiecewiseLinear:
    """Canonical PiecewiseLinear by float tests: sorted corners, duplicates
    collapsed, collinear interior corners pruned.  Corners within
    CORNER_TOL times the span, or a few ulps of the largest t, of a kept
    corner are one."""
    tol_v = pg.density.CORNER_TOL
    pts = sorted((float(t), float(v)) for t, v in points)
    tol = max(tol_v * max(1.0, pts[-1][0] - pts[0][0]),
              4 * np.spacing(abs(pts[-1][0])))
    merged = []
    for t, v in pts:
        if merged and t - merged[-1][0] <= tol:
            continue
        merged.append((t, v))
    pruned = [merged[0]]
    for j in range(1, len(merged) - 1):
        t0, v0 = pruned[-1]
        t1, v1 = merged[j]
        t2, v2 = merged[j + 1]
        interp = v0 + (v2 - v0) * (t1 - t0) / (t2 - t0)
        if abs(v1 - interp) > tol_v:
            pruned.append(merged[j])
    if len(merged) > 1:
        pruned.append(merged[-1])
    corners = np.array(pruned)
    corners[np.abs(corners[:, 1]) <= tol_v, 1] = 0.0
    return pg.PiecewiseLinear(corners)


def trapezoid_corners(d_prev: float, s: float, d_next: float) -> pg.PiecewiseLinear:
    """The trapezoid eta(d_prev, s, d_next) from its four corners."""
    delta = min(d_prev, d_next)
    return make_pwl([
        (0.5 * s, 0.0),
        (0.5 * (d_prev + s), delta),
        (0.5 * (s + d_next), delta),
        (0.5 * (d_prev + s + d_next), 0.0),
    ])


def pwl_sum(parts) -> pg.PiecewiseLinear:
    """Pointwise sum of piecewise-linear functions (shared corner grid)."""
    parts = list(parts)
    ts = np.unique(np.concatenate([p.ts for p in parts]))
    total = np.zeros_like(ts)
    for p in parts:
        total += p(ts)
    return make_pwl(np.column_stack([ts, total]))


def psi_k_1d_trapezoids(F, k: int) -> pg.PiecewiseLinear:
    """Exact 1D psi_k the long way, sharing no code with psi_k_1d: the gap
    formula for k = 0, one four-corner trapezoid per motif point summed on
    their corner grid for 1 <= k <= m, and a shift by half a period per
    whole period beyond."""
    g = F.gaps
    m = F.m
    if k == 0:
        d = np.sort(g)
        corners = [(0.0, 1.0)]
        prefix = 0.0
        for i in range(m):
            value = 1.0 - prefix - (m - i) * d[i]
            corners.append((0.5 * d[i], max(0.0, value)))
            prefix += d[i]
        return make_pwl(corners)
    periods, r = divmod(k - 1, m)
    parts = []
    for i in range(m):
        s = sum(g[(i + j) % m] for j in range(r))
        parts.append(trapezoid_corners(g[(i - 1) % m], s, g[(i + r) % m]))
    corners = pwl_sum(parts).corners.copy()
    corners[:, 0] += 0.5 * periods
    return pg.PiecewiseLinear(corners)


def ramp_sum(v0: float, breaks, slopes) -> np.ndarray:
    """Corners of v0 + sum_j slopes[j] * max(t - breaks[j], 0), one ramp
    sum on its own: the sorted breaks valued by a cumulative sum of slope x
    gap, each run of breaks within max(CORNER_TOL max(1, span), 4 ulp of
    the largest t) of the one before taken as one corner, and besides the
    first and last a corner kept where the run's integer slope changes sum
    to nonzero."""
    order = np.argsort(breaks, kind="stable")
    b, c = breaks[order], slopes[order]
    rise = np.cumsum(c)[:-1] * np.diff(b)
    values = v0 + np.r_[0.0, np.cumsum(rise)]
    tol = max(pg.density.CORNER_TOL * max(1.0, b[-1] - b[0]),
              4 * np.spacing(abs(b[-1])))
    starts = np.flatnonzero(np.r_[True, np.diff(b) > tol])
    keep = np.add.reduceat(c, starts) != 0
    keep[[0, -1]] = True
    corners = np.column_stack([b, values])[starts[keep]]
    corners[np.abs(corners[:, 1]) <= pg.density.CORNER_TOL, 1] = 0.0
    return corners


def psi_k_1d_per_k(F, k: int) -> np.ndarray:
    """Corners of the exact 1D psi_k from one ramp sum of its own: for k = 0
    slope -2m at t = 0 and +2 at each g_i / 2 from the value 1, for k >= 1
    slope +2, -2, -2, +2 at s/2, (s + lo)/2, (s + hi)/2, (s + lo + hi)/2
    for each row (d_prev, s, d_next) of trapezoid_triples(k)."""
    if k == 0:
        m = F.m
        return ramp_sum(1.0, np.r_[0.0, 0.5 * F.gaps], np.r_[-2 * m, np.full(m, 2)])
    d_prev, s, d_next = F.trapezoid_triples(k).T
    lo, hi = np.minimum(d_prev, d_next), np.maximum(d_prev, d_next)
    breaks = 0.5 * np.concatenate([s, s + lo, s + hi, s + d_prev + d_next])
    return ramp_sum(0.0, breaks, np.repeat([2, -2, -2, 2], len(s)))


def lhs_samples(S: pg.PeriodicSet, samples: int, seed: int) -> np.ndarray:
    """psi_sampled's Latin-hypercube sample points, drawn the same way in
    the reduced cell."""
    rng = np.random.default_rng(seed)
    frac = np.empty((samples, S.dim))
    for axis in range(S.dim):
        frac[:, axis] = (rng.permutation(samples) + rng.random(samples)) / samples
    return frac @ S.cell._reduction[2].basis


def sampled_cloud(S: pg.PeriodicSet, t_grid) -> np.ndarray:
    """psi_sampled's neighbor cloud for a grid of radii, on the reduced cell."""
    return pg.core.neighbor_cloud(S.reduced, float(np.max(t_grid)) * (1 + 1e-9))[0]


def psi_sampled_loop(S: pg.PeriodicSet, k: int, t_grid, samples: int, seed: int = 0):
    """psi_sampled's rows of psi_k from one query for d_k and d_{k+1} of the
    same samples and one mean of d_k <= t < d_{k+1} per t."""
    xs = lhs_samples(S, samples, seed)
    t_grid = np.asarray(t_grid, dtype=float)
    dist, _ = cKDTree(sampled_cloud(S, t_grid)).query(xs, k=[k, k + 1] if k else [1])
    lower = dist[:, 0] if k else -np.inf
    out = []
    for t in t_grid:
        est = float(np.mean((lower <= t) & (t < dist[:, -1])))
        out.append((float(t), est, float(np.sqrt(est * (1.0 - est) / samples))))
    return out


def psi_sampled_ball_counts(S: pg.PeriodicSet, k: int, t_grid, samples: int,
                            seed: int = 0):
    """psi_k_sampled's estimates, counting for every t the balls that cover
    each sample with one query_ball_point pass (the same samples)."""
    xs = lhs_samples(S, samples, seed)
    t_grid = np.asarray(t_grid, dtype=float)
    tree = cKDTree(sampled_cloud(S, t_grid))
    out = []
    for t in t_grid:
        counts = tree.query_ball_point(xs, r=float(t), return_length=True)
        est = float(np.mean(counts == k))
        out.append((float(t), est, float(np.sqrt(est * (1.0 - est) / samples))))
    return out


def amd_bruteforce(S: pg.PeriodicSet, k: int) -> np.ndarray:
    """(m, k) distances from each motif point to its k nearest neighbors, by
    sorting the distances to every point of a cube of N^n cell offsets per
    side; N doubles until the k-th distance is below N times the least
    width of the cell, which no point outside the cube can beat."""
    n = S.dim
    width = 1.0 / np.linalg.norm(np.linalg.inv(S.cell.basis), axis=0).max()
    motif = S.cartesian_motif
    N = 1
    while True:
        shifts = np.array(list(itertools.product(range(-N, N + 1), repeat=n)))
        pts = (motif[None, :, :] + (shifts @ S.cell.basis)[:, None, :]).reshape(-1, n)
        dist = np.sort(np.linalg.norm(pts[None, :, :] - motif[:, None, :], axis=2),
                       axis=1)[:, 1:k + 1]
        if dist.shape[1] == k and dist[:, -1].max() < N * width:
            return dist
        N *= 2


def _prefix_scan_2d(C, D, n_angles: int) -> np.ndarray:
    """Dense rotation+reflection scan of the directed Hausdorff distance from
    every prefix C[:i+1] to D: entry i is its min over n_angles evenly spaced
    rotations, each with and without a reflection."""
    C = np.atleast_2d(np.asarray(C, float))
    D = np.atleast_2d(np.asarray(D, float))
    best = np.full(len(C), np.inf)
    thetas = np.linspace(0, 2 * np.pi, n_angles, endpoint=False)
    for reflect in (False, True):
        base = C @ np.diag([1.0, -1.0]) if reflect else C
        for chunk in np.array_split(thetas, -(-n_angles // 1000)):
            c, s = np.cos(chunk)[:, None], np.sin(chunk)[:, None]
            # base @ rot2(theta).T for every theta of the chunk at once
            P = np.stack([c * base[:, 0] - s * base[:, 1],
                          s * base[:, 0] + c * base[:, 1]], axis=-1)
            near = np.sqrt(
                ((P[:, :, None, :] - D[None, None, :, :]) ** 2).sum(-1)
            ).min(axis=2)
            best = np.minimum(
                best, np.maximum.accumulate(near, axis=1).min(axis=0))
    return best


def dr_scan_2d(C, D, n_angles: int = 20000) -> float:
    """Independent dense rotation+reflection scan of d_R (2D oracle)."""
    return float(_prefix_scan_2d(C, D, n_angles)[-1])


def dm_scan_2d(C, D, alpha: float, n_angles: int) -> float:
    """Independent dense-scan oracle of the one-sided d_M (2D).

    The max over length-sorted prefixes {p_1..p_i} with positive gain
    alpha - |p_i| of min(gain, d_R(prefix, D)), every prefix's d_R taken
    over the grid of dr_scan_2d. A grid value is never below the true d_R,
    so the result bounds d_M from above, and it is exact when an optimal
    map lies on the grid: a multiple of 24 for n_angles puts every multiple
    of 15 degrees on it."""
    C = np.atleast_2d(np.asarray(C, float))
    lengths = np.linalg.norm(C, axis=1)
    order = np.argsort(lengths, kind="stable")
    gains = alpha - lengths[order]
    keep = gains > 0
    if not keep.any():
        return 0.0
    prefix_dr = _prefix_scan_2d(C[order][keep], D, n_angles)
    return float(np.max(np.minimum(gains[keep], prefix_dr)))


def _quaternion_matrices(quat) -> np.ndarray:
    """(T, 3, 3) rotation matrices of the unit quaternions (w, x, y, z)."""
    w, x, y, z = quat.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], -2)


def prefix_sample_3d(C, D, n: int, seed: int = 0) -> np.ndarray:
    """Entry i: the least directed Hausdorff distance from C[:i+1] to D
    over the identity and n seeded random rotations, each also followed by
    the mirror diag(1, 1, -1), by brute-force pairwise distances. Every
    entry is the d_H of an actual orthogonal map, so it bounds d_R of the
    prefix from above."""
    C = np.atleast_2d(np.asarray(C, float))
    D = np.atleast_2d(np.asarray(D, float))
    quat = np.random.default_rng(seed).normal(size=(n, 4))
    rots = _quaternion_matrices(quat / np.linalg.norm(quat, axis=1)[:, None])
    maps = np.concatenate([np.eye(3)[None], rots, rots * [1.0, 1.0, -1.0]])
    best = np.full(len(C), np.inf)
    for chunk in np.array_split(maps, -(-len(maps) // 500)):
        moved = np.einsum("tij,kj->tki", chunk, C)
        near = np.sqrt(((moved[:, :, None, :] - D[None, None]) ** 2).sum(-1)).min(2)
        best = np.minimum(best, np.maximum.accumulate(near, axis=1).min(axis=0))
    return best


def dr_sample_3d(C, D, n: int, seed: int = 0) -> float:
    """Independent upper bound on the 3D d_R: the least d_H over the
    identity and n seeded random rotations, plain and mirrored. It needs
    no certificate, so it referees the branch-and-bound's lower bound."""
    return float(prefix_sample_3d(C, D, n, seed)[-1])


def dm_prefix_loop(C, D, alpha: float, engine: str) -> float:
    """The one-sided d_M computed prefix by prefix, as its definition reads:
    the max over length-sorted prefixes {p_1..p_i} with positive gain
    alpha - |p_i| of min(gain, d_R of the prefix), d_R being
    d_R_exact_small (engine "exact") or d_R_approx ("approx")."""
    C = np.atleast_2d(np.asarray(C, float))
    lengths = np.linalg.norm(C, axis=1)
    order = np.argsort(lengths, kind="stable")
    best = 0.0
    for i, gain in enumerate(alpha - lengths[order]):
        if gain <= 0:
            break
        prefix = C[order][: i + 1]
        if engine == "exact":
            dr = pg.d_R_exact_small(prefix, D)[0]
        else:
            dr = pg.d_R_approx(prefix, D)
        best = max(best, min(float(gain), float(dr)))
    return best


def _ref2(phi: float) -> np.ndarray:
    c, s = np.cos(2 * phi), np.sin(2 * phi)
    return np.array([[c, s], [s, -c]])


def _anchor_maps_loop(p_ang: float, q_ang: float):
    return [rot2(q_ang - p_ang), rot2(q_ang + np.pi - p_ang),
            _ref2(0.5 * (p_ang + q_ang)), _ref2(0.5 * (p_ang + q_ang + np.pi))]


def _least_rotation(u, v) -> np.ndarray:
    """Rotation taking unit u to unit v about the axis u x v (by pi about a
    perpendicular axis when v = -u), by Rodrigues' formula."""
    axis = np.cross(u, v)
    s, c = np.linalg.norm(axis), u @ v
    if s < 1e-14:
        if c > 0:
            return np.eye(3)
        perp = np.eye(3)[np.argmin(np.abs(u))]
        perp = perp - (perp @ u) * u
        perp /= np.linalg.norm(perp)
        return 2.0 * np.outer(perp, perp) - np.eye(3)
    x, y, z = axis / s
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * K + (1 - c) * (K @ K)


def approx_anchors_loop(P) -> list:
    """Farthest-point anchors of the approximation construction, one prefix
    at a time: the point of greatest length, then in 3D the point farthest
    from its line; lexicographic tie-break; fewer when degenerate."""
    n = P.shape[1]
    lengths = np.linalg.norm(P, axis=1)
    if n == 1 or lengths.max() < 1e-14:
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


def approx_maps_loop(P, Q) -> np.ndarray:
    """Reference for perigeo.metric._approx_maps, one map at a time: the
    first anchor is turned onto the line of every point of Q (in 3D by the
    least rotations to +q and -q), and in 3D every such map is then turned
    about that line in the four ways that take the second anchor's azimuth
    to that of a point of Q or its opposite."""
    n = P.shape[1]
    if n == 1:
        return np.array([[[1.0]], [[-1.0]]])
    anchors = approx_anchors_loop(P)
    Qnz = Q[np.linalg.norm(Q, axis=1) > 1e-14]
    if not anchors or len(Qnz) == 0:
        return np.eye(n)[None]
    p1 = P[anchors[0]]
    if n == 2:
        p_ang = np.arctan2(p1[1], p1[0])
        return np.array([M for q in Qnz
                         for M in _anchor_maps_loop(p_ang, np.arctan2(q[1], q[0]))])
    u1 = p1 / np.linalg.norm(p1)
    level1 = [_least_rotation(u1, sign * q / np.linalg.norm(q))
              for q in Qnz for sign in (1.0, -1.0)]
    if len(anchors) == 1:
        return np.array(level1)
    maps = []
    for M1 in level1:
        a = M1 @ u1
        e2 = np.eye(3)[np.argmin(np.abs(a))]
        e2 = e2 - (e2 @ a) * a
        e2 /= np.linalg.norm(e2)
        E = np.column_stack([a, e2, np.cross(a, e2)])
        p2 = E.T @ (M1 @ P[anchors[1]])
        for q in Qnz:
            qr = E.T @ q
            if np.hypot(qr[1], qr[2]) < 1e-12:
                continue
            for m2 in _anchor_maps_loop(np.arctan2(p2[2], p2[1]),
                                        np.arctan2(qr[2], qr[1])):
                block = np.eye(3)
                block[1:, 1:] = m2
                maps.append(E @ block @ E.T @ M1)
    return np.array(maps or level1)


def dm_approx_loop(C, D, alpha: float) -> float:
    """The approximation engine's one-sided d_M, prefix by prefix and
    without laziness: the max over length-sorted prefixes with positive
    gain of min(gain, least d_H over approx_maps_loop of the prefix), each
    d_H by coordinate differences against every point of D."""
    C = np.atleast_2d(np.asarray(C, float))
    D = np.atleast_2d(np.asarray(D, float))
    lengths = np.linalg.norm(C, axis=1)
    order = np.argsort(lengths, kind="stable")
    best = 0.0
    for i, gain in enumerate(alpha - lengths[order]):
        if gain <= 0:
            break
        prefix = C[order][: i + 1]
        moved = np.einsum("tij,kj->tki", approx_maps_loop(prefix, D), prefix)
        near = np.linalg.norm(moved[:, :, None] - D[None, None], axis=3).min(axis=2)
        best = max(best, min(float(gain), float(near.max(axis=1).min())))
    return best


def _reach_2d_ranges(S: pg.PeriodicSet):
    """Per axis, the cell offsets of every point within twice the cell
    diameter of the unit cell, plus one cell on each side."""
    reach = 2.0 * S.cell.diameter
    dual = np.linalg.norm(np.linalg.inv(S.cell.basis), axis=0)
    return [np.arange(int(np.floor(-r)) - 1, int(np.floor(1 + r)) + 2)
            for r in reach * dual]


def reach_2d_patch_size(S: pg.PeriodicSet) -> int:
    """Number of points covering_radius_reach_2d puts in its patch."""
    return int(np.prod([len(r) for r in _reach_2d_ranges(S)], dtype=float)) * S.m


def covering_radius_reach_2d(S: pg.PeriodicSet) -> float:
    """Covering radius R from the Voronoi diagram of every point of S within
    twice the cell diameter of the unit cell, on the cell S is given in:
    the deepest Voronoi vertex inside the cell, by its nearest point."""
    basis = S.cell.basis
    shifts = np.array(list(itertools.product(*_reach_2d_ranges(S))), dtype=float)
    pts = ((S.motif[None, :, :] + shifts[:, None, :]) @ basis).reshape(-1, S.dim)
    vertices = Voronoi(pts).vertices
    frac = vertices @ np.linalg.inv(basis)
    inside = np.all((frac >= -1e-9) & (frac <= 1 + 1e-9), axis=1)
    dist, _ = cKDTree(pts).query(vertices[inside])
    return float(dist.max())


def covering_radius_voronoi(S: pg.PeriodicSet) -> float:
    """Covering radius R from the vertices of the full Voronoi diagram of
    the reach-d/2 patch of S.reduced that core.packing_covering_radii
    reads: the deepest vertex inside the reduced cell, by its nearest
    patch point."""
    from perigeo.core import neighbor_cloud

    S = S.reduced
    pts, _ = neighbor_cloud(S, 0.5 * S.cell.diameter)
    vertices = Voronoi(pts).vertices
    frac = vertices @ S.cell.inv_basis
    inside = np.all((frac >= -1e-9) & (frac <= 1 + 1e-9), axis=1)
    dist, _ = cKDTree(pts).query(vertices[inside])
    return float(dist.max())


def bridge_length_patch(S: pg.PeriodicSet, cells: int = 5) -> float:
    """Bridge length from its definition on a finite patch: the points of
    S in the offsets [-cells, cells]^n of its cell, joined when at most t
    apart.  The infinite hop graph at t is connected iff every motif point
    of the central cell is joined to motif point 0 there and to its own
    translates by each basis vector; the patch's components
    (scipy.sparse.csgraph) decide that, and the least such t among the
    patch's pair distances is found by bisection.  A path the patch cuts
    off can only make t larger, so cells must be generous for thin or
    skewed cells (3 was too few for a 3D cell of skew 0.4)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n, m = S.dim, S.m
    offsets = np.array(list(itertools.product(range(-cells, cells + 1), repeat=n)))
    pts = (S.motif[None, :, :] + offsets[:, None, :]).reshape(-1, n) @ S.cell.basis
    slot = {tuple(o): k * m for k, o in enumerate(offsets)}
    centre = slot[(0,) * n]
    reach = max(S.cell.longest_edge, 0.5 * S.cell.diameter) * (1 + 1e-9)
    pairs = cKDTree(pts).query_pairs(reach, output_type="ndarray")
    dist = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    ends = [(centre + i, centre) for i in range(m)] + [
        (centre + i, slot[tuple(np.eye(n, dtype=int)[a])] + i)
        for i in range(m) for a in range(n)]

    def connected(t):
        keep = dist <= t
        graph = coo_matrix((np.ones(keep.sum()), tuple(pairs[keep].T)),
                           shape=(len(pts), len(pts)))
        label = connected_components(graph, directed=False)[1]
        return all(label[a] == label[b] for a, b in ends)

    values = np.unique(dist)
    lo, hi = 0, len(values) - 1
    assert connected(values[hi]), "patch too small for the bridge length"
    while lo < hi:
        mid = (lo + hi) // 2
        if connected(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def neighbor_arrays_loop(S: pg.PeriodicSet, p_index: int, alpha: float):
    """core.neighbor_arrays as one motif point's own enumeration: the
    offsets of its window of reduced cells, every motif point in each, the
    points within the inclusion bound, and one lexsort by (length,
    coordinates, index).  Returns (vectors, lengths, indices, shifts), the
    fields of core.NeighborStack."""
    from perigeo.core import REL_TOL, _lattice_offsets

    cell = S.cell
    U, U_inv, reduced = cell._reduction
    p_cart = S.motif[p_index] @ cell.basis
    bound = alpha + REL_TOL * (alpha + cell.diameter)
    frac = S.motif @ U_inv
    folds = -np.floor(frac).astype(int)
    offsets = _lattice_offsets(reduced, frac[p_index], frac[p_index], bound, S.m)
    slots = (offsets[:, None, :] + folds[None, :, :]) @ U
    cart_off = (slots.reshape(-1, S.dim) @ cell.basis).reshape(slots.shape)
    vecs = (S.cartesian_motif[None, :, :] + cart_off) - p_cart
    dist = np.linalg.norm(vecs, axis=-1)
    cells, idx = np.nonzero(dist <= bound)
    vecs, shifts, dist = vecs[cells, idx], slots[cells, idx], dist[cells, idx]
    keys = [idx] + [vecs[:, c] for c in range(S.dim - 1, -1, -1)] + [dist]
    order = np.lexsort(keys)
    return (vecs[order], np.linalg.norm(vecs[order], axis=1), idx[order],
            shifts[order])


def critical_radii_loop(S: pg.PeriodicSet, alpha_max: float) -> list:
    """isoset.critical_radii one motif point at a time: each neighbor
    stack's lengths above REL_TOL * d, concatenated, sorted and thinned by
    isoset._distinct."""
    from perigeo.core import REL_TOL, neighbor_stack
    from perigeo.isoset import _distinct

    tol = REL_TOL * S.cell.diameter
    values = []
    for i in range(S.m):
        d = neighbor_stack(S, i, alpha_max).lengths
        values.append(d[d > tol])
    return _distinct(np.sort(np.concatenate(values)), tol).tolist()


def cluster_symmetry_group_referee(C: pg.Cluster, tol=None) -> pg.SymmetryGroup:
    """isoset.cluster_symmetry_group as its own search: the hull frame (the
    identity for the center alone), the projection onto the hull, the
    reduced maps of the projected cluster onto itself, and in codimension
    1 each map embedded with both signs across the hull."""
    from perigeo.isoset import RANK_TOL, _embed_map, _reduced_maps, match_tolerance

    k, n = C.points.shape
    if k == 1:
        rank, frame = 0, np.eye(n)
    else:
        _, sv, frame = np.linalg.svd(C.points, full_matrices=k < n)
        rank = int(np.sum(sv > RANK_TOL * float(C.lengths.max())))
    pc = C.points @ frame[:rank].T
    reduced = _reduced_maps(pc, pc, match_tolerance(C.alpha, tol), first_only=False)
    if n - rank >= 2:
        return pg.SymmetryGroup(continuous=True, rank=rank, reduced_order=len(reduced))
    signs = (1.0,) if rank == n else (1.0, -1.0)
    elements = tuple(_embed_map(m, frame, frame, n, det_sign=sign)
                     for m in reduced for sign in signs)
    return pg.SymmetryGroup(continuous=False, rank=rank, reduced_order=len(reduced),
                            elements=elements, order=len(elements))


def unstable_flag_referee(S: pg.PeriodicSet, alpha: float, tol=None) -> bool:
    """Isoset.unstable from the critical radii: a distinct pair length
    within alpha + 2 tol + REL_TOL * d lies within tol of alpha."""
    from perigeo.core import REL_TOL
    from perigeo.isoset import critical_radii, match_tolerance

    tol_abs = match_tolerance(alpha, tol)
    crit = critical_radii(S, alpha + 2 * tol_abs + REL_TOL * S.cell.diameter)
    return bool(np.any(np.abs(alpha - np.array(crit)) <= tol_abs))


def min_interpoint_distance_loop(S: pg.PeriodicSet) -> float:
    """core.min_interpoint_distance one motif point at a time."""
    from perigeo.core import REL_TOL, neighbor_stack

    probe = float(np.linalg.norm(S.cell._reduction[2].basis[0])) * (1 + 1e-9)
    best = math.inf
    for i in range(S.m):
        dist = neighbor_stack(S, i, probe).lengths
        dist = dist[dist > REL_TOL * S.cell.diameter]
        if dist.size:
            best = min(best, float(dist.min()))
    return best


def quotient_edges_loop(S: pg.PeriodicSet, max_len: float) -> list:
    """Undirected edges (i, j, shift, length) of the quotient multigraph
    with hop length <= max_len, one tuple per neighbor, one orientation per
    geometric edge: j >= i, and for j == i the shift that is not below its
    negation as a tuple."""
    from perigeo.core import REL_TOL, neighbor_stack

    edges = []
    for i in range(S.m):
        _, dist, idx, shifts = neighbor_stack(S, i, max_len)
        for k in range(len(idx)):
            length = float(dist[k])
            if length <= REL_TOL * S.cell.diameter:
                continue
            j, shift = int(idx[k]), tuple(int(c) for c in shifts[k])
            if j < i:
                continue
            if j == i and shift < tuple(-c for c in shift):
                continue
            edges.append((i, j, shift, length))
    return edges


def bridge_length_loop(S: pg.PeriodicSet) -> float:
    """core.bridge_length over quotient_edges_loop sorted by a key on
    length: the same union-find walk and Hermite steps."""
    from perigeo.core import REL_TOL

    n = S.dim
    reduced = S.cell._reduction[2]
    bound = max(reduced.longest_edge, 0.5 * reduced.diameter)
    tol = REL_TOL * S.cell.diameter
    edges = sorted(quotient_edges_loop(S, bound * (1 + 1e-9) + tol),
                   key=lambda e: e[3])
    parent = list(range(S.m))
    offset = [(0,) * n] * S.m

    def find(u):
        off = (0,) * n
        while parent[u] != u:
            off = tuple(a + b for a, b in zip(off, offset[u]))
            u = parent[u]
        return u, off

    components, rows, start = S.m, {}, -math.inf
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
                while cycle[c]:
                    q = rows[c][c] // cycle[c]
                    rows[c], cycle = cycle, [a - q * b for a, b in zip(rows[c], cycle)]
        if (components == 1 and len(rows) == n
                and abs(math.prod(r[c] for c, r in rows.items())) == 1):
            return start
    raise RuntimeError("no feasible bridge threshold below max{b, d/2}")


def minimum_stable_radius_loop(S: pg.PeriodicSet, tol=None):
    """isoset._StableScan.run on the grid of critical_radii_loop and the
    beta of bridge_length_loop, its candidate radii gathered one grid
    level at a time into a Python set.  Returns (alpha, beta, fallback)."""
    from perigeo.isoset import _StableScan, groups_equal, match_tolerance

    scan = _StableScan(S, tol)
    upper, snap_tol = scan.upper, scan.snap_tol
    scan.crit = [0.0] + critical_radii_loop(S, upper + snap_tol)
    scan.band = 2.0 * match_tolerance(scan.crit[-1], tol)
    beta = scan.beta = bridge_length_loop(S)
    candidates = {beta, upper}
    for c in scan.crit:
        if beta - snap_tol <= c <= upper + snap_tol:
            candidates.add(c)
        if beta - snap_tol <= c + beta <= upper + snap_tol:
            candidates.add(c + beta)
    for alpha in sorted(candidates):
        hi, lo = scan.snap(alpha), scan.snap(max(alpha - beta, 0.0))
        if scan.partition(lo) != scan.partition(hi):
            continue
        if all(groups_equal(scan.group(p, hi), scan.group(p, lo))
               for p in range(S.m)):
            return alpha, beta, False
    return upper, beta, True


def transport_bruteforce(costs, supply, demand):
    """Exact transportation optimum by enumerating spanning-tree vertices of
    the transportation polytope (independent EMD oracle, small instances)."""
    costs = np.asarray(costs, float)
    na, nb = costs.shape
    nodes = na + nb
    edges = [(i, j) for i in range(na) for j in range(nb)]
    best = np.inf
    for tree in itertools.combinations(edges, nodes - 1):
        parent = list(range(nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in tree:
            a, b = find(i), find(na + j)
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if not acyclic or len({find(x) for x in range(nodes)}) != 1:
            continue
        # leaf elimination solves the unique flow on the tree
        flows = {}
        need = list(supply) + [-d for d in demand]
        adj = {x: [] for x in range(nodes)}
        for i, j in tree:
            adj[i].append((na + j, (i, j)))
            adj[na + j].append((i, (i, j)))
        remaining = {x: set(adj[x]) for x in range(nodes)}
        order = [x for x in range(nodes) if len(remaining[x]) == 1]
        removed = set()
        while order:
            x = order.pop()
            live = [e for e in remaining[x] if e[1] not in removed]
            if not live:
                continue
            y, e = live[0]
            flow = need[x] if x < na else -need[x]
            flows[e] = flow
            need[x] = 0
            if y < na:
                need[y] -= flow
            else:
                need[y] += flow
            removed.add(e)
            remaining[y] = {v for v in remaining[y] if v[1] not in removed}
            if len(remaining[y]) == 1:
                order.append(y)
        if any(f < -1e-12 for f in flows.values()):
            continue
        cost = sum(f * costs[e] for e, f in flows.items())
        best = min(best, cost)
    return best


def alpha_partition_scratch(S: pg.PeriodicSet, alpha: float, tol=None):
    """Motif indices split by isometry class of their alpha-clusters, each
    cluster compared with the first member of every block found so far;
    blocks are sorted tuples, ordered by smallest member."""
    clusters = [pg.alpha_cluster(S, i, alpha) for i in range(S.m)]
    reps, blocks = [], []
    for i in range(S.m):
        for b, rep in enumerate(reps):
            if pg.clusters_isometric(clusters[i], rep, tol) is not None:
                blocks[b].append(i)
                break
        else:
            reps.append(clusters[i])
            blocks.append([i])
    return tuple(tuple(b) for b in blocks)


def minimum_stable_radius_scratch(S: pg.PeriodicSet, tol=None):
    """The stable-radius scan with nothing carried between radii: at every
    visited critical radius the alpha-partition and every motif point's
    symmetry group are recomputed from scratch.  Returns (alpha, beta,
    fallback) as `pg.minimum_stable_radius` does."""
    from perigeo.core import REL_TOL
    from perigeo.isoset import critical_radii, groups_equal

    upper = pg.easy_stable_radius(S)
    snap_tol = REL_TOL * S.cell.diameter
    crit = [0.0] + critical_radii(S, upper + snap_tol)
    beta = pg.bridge_length(S)
    candidates = {beta, upper}
    for c in crit:
        if beta - snap_tol <= c <= upper + snap_tol:
            candidates.add(c)
        if beta - snap_tol <= c + beta <= upper + snap_tol:
            candidates.add(c + beta)

    def snap(r):
        return int(np.searchsorted(crit, r + snap_tol, side="right")) - 1

    def groups(idx):
        return [pg.symmetry_group(S, p, crit[idx], tol) for p in range(S.m)]

    for alpha in sorted(candidates):
        hi, lo = snap(alpha), snap(max(alpha - beta, 0.0))
        if alpha_partition_scratch(S, crit[hi], tol) != alpha_partition_scratch(S, crit[lo], tol):
            continue
        if all(groups_equal(gh, gl) for gh, gl in zip(groups(hi), groups(lo))):
            return alpha, beta, False
    return upper, beta, True


def full_pair_regions(self, maps, theta, thr, reach=None):
    """_RotationProfile.regions as it was before the length window: every
    point is evaluated against every q, and reach is ignored.  Its near
    and bound are the full-pair values the windowed evaluation must
    reproduce wherever they are within reach."""
    T, m = len(maps), self.m
    terms, sq, pq, pq2 = (self.table[:-4], self.table[-3], self.table[-2],
                          self.table[-1])
    near = np.full((T, self.k), np.inf)
    bound = np.empty((T, self.k))
    live = np.flatnonzero(thr > -np.inf)
    stop = int(live[-1]) + 1 if len(live) else 0
    after = np.append(np.maximum.accumulate(thr[::-1])[::-1][1:], -np.inf)
    coef = maps.reshape(T, -1)
    c, s = math.cos(theta), math.sin(theta)
    chunk = max(1, self.ENTRIES // (self.POINTS * m))
    for a in range(0, T, chunk):
        rows = np.arange(a, min(a + chunk, T))
        run = np.zeros(len(rows))
        ok = np.ones(len(rows), dtype=bool)
        for j0 in range(0, stop, self.POINTS):
            j1 = min(j0 + self.POINTS, stop)
            cols = slice(j0 * m, j1 * m)
            dot = coef[rows] @ terms[:, cols]
            shape = (len(rows), j1 - j0, m)
            near[rows, j0:j1] = np.sqrt(np.maximum(
                (sq[cols] - 2.0 * dot).reshape(shape).min(axis=2), 0.0))
            # the least squared distance from the cap of half-angle theta
            phi_ok = dot >= c * pq[cols]
            h = s * np.sqrt(np.maximum(pq2[cols] - dot ** 2, 0.0)) + c * dot
            h = sq[cols] - 2.0 * np.where(phi_ok, pq[cols], h)
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


def isometry_witness(C: pg.Cluster, D: pg.Cluster, tol=None):
    """A center-fixing orthogonal map sending cluster C onto D as a
    bijection within the match tolerance, or None: orthogonal Procrustes
    from the identity and from -I, each refit three times to the points of
    D nearest its image.  It shares no code with the isometry search, and
    finds the map only when it lies near +-I."""
    from perigeo.isoset import match_tolerance

    if C.points.shape != D.points.shape:
        return None
    tol_abs = match_tolerance(max(C.alpha, D.alpha), tol)
    tree = cKDTree(D.points)
    for start in (1.0, -1.0):
        m = start * np.eye(C.dim)
        for _ in range(4):
            dist, idx = tree.query(C.points @ m.T)
            if dist.max() <= tol_abs and len(np.unique(idx)) == len(idx):
                return m
            U, _, Vt = np.linalg.svd(D.points[idx].T @ C.points)
            m = U @ Vt
    return None

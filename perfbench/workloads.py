"""Workload inputs, operations and oracles of the perigeo benchmark.

A workload turns a seed into set files on disk and a list of operations.
Each operation drives perigeo in-process, through ``perigeo.cli.main`` or
the public library API, and reads only the generated files.  Its answer is
checked by an oracle built from the generation-time truth (the jitter size,
the bottleneck distance, the isometry that made a copy) or from small
independent computations, never from the code path under test.

Operations look perigeo functions up through their modules at call time, so
that the tracer's wrappers are the ones that run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import perigeo as pg
from perigeo import cli
from perigeo.core import fold_fractions, min_interpoint_distance, neighbor_arrays
from perigeo.io import write_set_text

DEFAULT_DELTA = 0.1          # the CLI's default --delta
EMD2D_EPSILONS = (0.01, 0.03, 0.05)
# invariants: one round is these (dimension, motif size) sets, in order
INVARIANT_SETS = ((3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (2, 2), (2, 4), (2, 6))
# The cost of an operation varies up to 4x between random sets of one size
# (and that of compare with the copy's cell), which moved op_tail_s and
# op_p50_s by 15-20 % between seeds.  So the emd3d and invariants sets, and
# the invariants copies' cells, come from this fixed draw; the seed moves
# each set by an isometry and draws its copies' isometries and jitters.
CORPUS_SEED = 2103


class CliFailure(Exception):
    """perigeo.cli.main returned a nonzero exit code."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when right, else a reason
    emd: bool = False                         # answer carries an EMD cost


@dataclass
class Workload:
    ops: list
    setup_files: list   # what a CLI user parses before the first answer
    round: int          # ops per round; runs end on a round boundary so the
                        # mix of operation kinds is the same in every run


def run_cli(argv):
    """Exit code 0 and the parsed JSON document, or CliFailure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CliFailure(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# input generation


def random_set(rng, n: int, m: int, min_sep: float = 0.2, skew: float = 0.1):
    """Random cell near the identity with m well-separated motif points."""
    cell = pg.UnitCell(np.eye(n) + skew * rng.normal(size=(n, n)))
    for _ in range(1000):
        try:
            S = pg.PeriodicSet(cell, rng.random((m, n)))
        except pg.DataError:
            continue
        if min_interpoint_distance(S) >= min_sep * cell.volume ** (1 / n) / m ** (1 / n):
            return S
    raise RuntimeError("could not draw a well-separated motif")


def jitter(rng, S, eps: float):
    """Copy of S with every motif point moved by less than eps."""
    dirs = rng.normal(size=(S.m, S.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    moves = dirs * (eps * (0.2 + 0.79 * rng.random(S.m)))[:, None]
    return pg.PeriodicSet(S.cell, fold_fractions(S.motif + moves @ S.cell.inv_basis))


def random_orthogonal(rng, n: int):
    M = np.linalg.qr(rng.normal(size=(n, n)))[0]
    if rng.random() < 0.5:
        M[0] = -M[0]
    return M


UNIMODULAR = {
    2: [np.array([[1, 1], [0, 1]]), np.array([[0, 1], [1, 0]]),
        np.array([[2, 1], [1, 1]])],
    3: [np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]])],
}


def isometric_copy(rng, S, cell_rng=None):
    """S moved by a random isometry and re-expressed in another cell, drawn
    from `cell_rng` (default `rng`)."""
    T = pg.apply_isometry(S, random_orthogonal(rng, S.dim), rng.random(S.dim))
    if S.dim == 1:
        return T
    choices = UNIMODULAR[S.dim]
    return pg.change_cell(T, choices[int((cell_rng or rng).integers(len(choices)))])


def set_1d(points, period):
    motif = np.array([[p / period] for p in points], dtype=float)
    return pg.PeriodicSet(pg.UnitCell(np.array([[float(period)]])), motif)


S15 = ([0, 1, 3, 4, 5, 7, 9, 10, 12], 15)
Q15 = ([0, 1, 3, 4, 6, 8, 9, 12, 14], 15)
S32 = ([0, 7, 8, 9, 12, 15, 17, 18, 19, 20, 21, 22, 26, 27, 29, 30], 32)
Q32 = ([0, 1, 8, 9, 10, 12, 13, 15, 18, 19, 20, 21, 22, 23, 27, 30], 32)


class Files:
    """Writes sets as text files and parses them back, so every oracle sees
    exactly the coordinates the program will read."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.paths = []

    def write(self, name: str, S):
        path = self.dir / f"{name}.txt"
        path.write_text(write_set_text(S), encoding="utf-8")
        self.paths.append(path)
        return path, pg.parse_set_file(path)


def easy_bound(S) -> float:
    """max{2b, d} from the basis rows, written out independently."""
    basis = S.cell.basis
    b = max(math.sqrt(float(v @ v)) for v in basis)
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * S.dim)).reshape(S.dim, -1).T
    d = 0.0
    for c in corners:
        for c2 in corners:
            diff = (c - c2) @ basis
            d = max(d, math.sqrt(float(diff @ diff)))
    return max(2.0 * b, d)


def _wrong(condition: bool, reason: str) -> Optional[str]:
    return None if condition else reason


# ---------------------------------------------------------------------------
# emd2d: criterion 9's supercell against jittered and isometric copies


def build_emd2d(rng, files: Files, count: int, tiny: bool) -> Workload:
    square = pg.PeriodicSet(
        pg.UnitCell(2 * np.eye(2)),
        np.array([[0, 0], [0, 0.5], [0.5, 0], [0.5, 0.5]]),
    )
    s_path, S = files.write("emd2d_S", square)
    alpha = 4.0  # common easy stable radius of the supercell and its copies
    extra = ["--alpha", "2.0"] if tiny else []
    ops = []
    for i in range(4 * math.ceil(count / 4)):
        if i % 4 == 3:
            moved = pg.apply_isometry(S, random_orthogonal(rng, 2), rng.random(2))
            path, _ = files.write(f"emd2d_C{i}", moved)
            bound, reason = 1e-6 * alpha, "control cost above 1e-6 alpha"
        else:
            eps = EMD2D_EPSILONS[i % 4]
            path, Q = files.write(f"emd2d_Q{i}", jitter(rng, S, eps))
            d_b = pg.bottleneck_distance_common_cell(S, Q)
            bound = min(2 * eps, 2 * d_b + 1e-9)
            reason = f"cost above min(2 eps, 2 d_B) = {bound:.3g}"
        ops.append(Op(
            "emd", lambda p=path: run_cli(["emd", s_path, p, *extra]),
            lambda a, b=bound, r=reason: _wrong(0.0 <= a["cost"] <= b, r),
            emd=True,
        ))
    return Workload(ops, files.paths[:2], 4)


# ---------------------------------------------------------------------------
# emd3d: random 3D sets against jittered copies, both d_R engines


def cluster_alpha(S, target: int, gap: float) -> Optional[float]:
    """A radius midway between consecutive distinct distances at least `gap`
    apart whose largest cluster holds exactly `target` points, or None."""
    reach = 2.0 * S.cell.diameter
    dists = [np.sort(np.linalg.norm(neighbor_arrays(S, i, reach)[0], axis=1))
             for i in range(S.m)]
    pooled = np.unique(np.concatenate(dists))
    for a, b in zip(pooled[:-1], pooled[1:]):
        alpha = 0.5 * (a + b)
        size = max(int(np.searchsorted(d, alpha)) for d in dists)
        if size > target:
            return None
        if size == target and b - a >= gap:
            return float(alpha)
    return None


def build_emd3d(rng, files: Files, count: int, tiny: bool) -> Workload:
    target = 5 if tiny else 10

    def bound(engine, eps):
        # the identity map is an exact candidate; approx adds 2(n-1)(1+delta)
        return 2 * eps * (1.0 if engine == "exact" else 2 * 2 * (1 + DEFAULT_DELTA))

    corpus = np.random.default_rng(CORPUS_SEED)
    ops = []
    for j in range(math.ceil(count / 3)):
        # one cluster size for all sets keeps the cost of an operation, and
        # so the run's figures, from swinging with the draw; the 4 eps gap
        # keeps the jittered copy's clusters at that size too
        for _ in range(1000):
            A = random_set(corpus, 3, 2)
            eps = 0.05 * min_interpoint_distance(A) / 2
            alpha = cluster_alpha(A, target, 4 * eps)
            if alpha is not None:
                break
        else:
            raise RuntimeError(f"no set with {target}-point clusters")
        A = pg.apply_isometry(A, random_orthogonal(rng, 3), rng.random(3))
        a_path, A = files.write(f"emd3d_A{j}", A)
        b_path, _ = files.write(f"emd3d_B{j}", jitter(rng, A, eps))
        # the default engine gets a fresh copy, so that no two operations
        # share both inputs
        c_path, _ = files.write(f"emd3d_C{j}", jitter(rng, A, eps))
        for path, engine in ((b_path, "exact"), (b_path, "approx"), (c_path, None)):
            argv = ["emd", a_path, path, "--alpha", repr(alpha)]
            if engine:
                argv += ["--dr", engine]
            ops.append(Op(
                "emd", lambda argv=argv: run_cli(argv),
                lambda ans, eps=eps: _wrong(
                    0.0 <= ans["cost"] <= bound(ans["engine"], eps),
                    f"{ans['engine']} cost above {bound(ans['engine'], eps):.3g}"),
                emd=True,
            ))
    return Workload(ops, files.paths[:2], 3)


# ---------------------------------------------------------------------------
# invariants: radii, stable isosets and the isometry decision


def _check_radii(rep, S) -> Optional[str]:
    if not 0.0 < rep.packing_radius <= rep.covering_radius:
        return "radii violate 0 < r <= R"
    return _wrong(abs(rep.easy_stable_radius - easy_bound(S)) <= 1e-9 * easy_bound(S),
                  "easy stable radius differs from max{2b, d}")


def _check_isoset(ans, bound: float) -> Optional[str]:
    if not ans["beta"] - 1e-9 <= ans["alpha"] <= bound * (1 + 1e-9):
        return "stable radius outside [beta, max{2b, d}]"
    weights = [Fraction(c["weight"]) for c in ans["classes"]]
    return _wrong(sum(weights) == 1 and all(w > 0 for w in weights),
                  "isoset weights do not sum to 1")


def build_invariants(rng, files: Files, count: int, tiny: bool) -> Workload:
    kinds = ((3, 2), (2, 3)) if tiny else INVARIANT_SETS
    corpus = np.random.default_rng(CORPUS_SEED)
    ops = []
    for j in range(len(kinds) * math.ceil(count / (4 * len(kinds)))):
        n, m = kinds[j % len(kinds)]
        S = pg.apply_isometry(random_set(corpus, n, m),
                              random_orthogonal(rng, n), rng.random(n))
        s_path, S = files.write(f"inv_S{j}", S)
        t_path, _ = files.write(f"inv_T{j}", isometric_copy(rng, S, corpus))
        r = 0.5 * min_interpoint_distance(S)
        q_path, _ = files.write(f"inv_J{j}", jitter(rng, S, 0.05 * r))
        bound = easy_bound(S)
        ops += [
            Op("radius_report",
               lambda p=s_path: pg.radius_report(pg.parse_set_file(p)),
               lambda rep, S=S: _check_radii(rep, S)),
            Op("isoset", lambda p=s_path: run_cli(["isoset", p, "--stable"]),
               lambda a, b=bound: _check_isoset(a, b)),
            Op("compare_copy", lambda a=s_path, b=t_path: run_cli(["compare", a, b]),
               lambda ans: _wrong(ans["isometric"] is True,
                                  "isometric copy reported different")),
            Op("compare_jitter", lambda a=s_path, b=q_path: run_cli(["compare", a, b]),
               lambda ans: _wrong(ans["isometric"] is False,
                                  "jittered copy reported isometric")),
        ]
    return Workload(ops, files.paths[:3], 4 * len(kinds))


# ---------------------------------------------------------------------------
# screen: AMD batches and density fingerprints


def amd_1d(points, period, k: int) -> np.ndarray:
    """AMD of a 1D set by sorting distances to enough periodic copies."""
    xs = np.asarray(points, dtype=float)
    reps = k // len(xs) + 2
    shifts = np.arange(-reps, reps + 1) * float(period)
    cloud = (xs[None, :] + shifts[:, None]).ravel()
    dist = np.sort(np.abs(cloud[None, :] - xs[:, None]), axis=1)[:, 1:k + 1]
    return dist.mean(axis=0)


def _check_batch(ans, index, expected) -> Optional[str]:
    mat = np.array(ans["matrix"])
    if ans["failures"] or mat.shape != (len(ans["files"]),) * 2:
        return "batch dropped files"
    if not (np.all(mat >= 0) and np.allclose(mat, mat.T, rtol=0, atol=0)
            and np.all(np.diag(mat) == 0)):
        return "AMD matrix is not a symmetric distance matrix"
    for (a, b), value in expected.items():
        if abs(mat[index[a], index[b]] - value) > 1e-9:
            return f"AMD distance {a}-{b} is {mat[index[a], index[b]]!r}, expected {value!r}"
    return None


def _psi_eval(corners, ts):
    c = np.array(corners, dtype=float)
    return np.interp(ts, c[:, 0], c[:, 1])


def _same_psi(a, b) -> bool:
    for pa, pb in zip(a["psi"], b["psi"]):
        ts = np.unique(np.concatenate([np.array(pa["corners"])[:, 0],
                                       np.array(pb["corners"])[:, 0]]))
        if not np.allclose(_psi_eval(pa["corners"], ts),
                           _psi_eval(pb["corners"], ts), rtol=0, atol=1e-9):
            return False
    return len(a["psi"]) == len(b["psi"])


def _check_sampled(ans) -> Optional[str]:
    est = np.array([[row[1] for row in p["estimates"]] for p in ans["psi"]])
    if np.any(est < 0) or np.any(est > 1):
        return "sampled estimate outside [0, 1]"
    return _wrong(np.all(est.sum(axis=0) <= 1 + 1e-12),
                  "sampled estimates sum above 1 over k")


class _ExactPair:
    """Exact 1D fingerprints: S15 and Q15 must agree, S32 and Q32 must not."""

    def __init__(self):
        self.last = {}

    def check(self, key, ans) -> Optional[str]:
        first = ans["psi"][0]["corners"]
        if ans["mode"] != "exact" or abs(first[0][1] - 1.0) > 1e-12:
            return "exact psi_0 does not start at 1"
        self.last[key] = ans
        name, k = key
        if name == "Q15" and ("S15", k) in self.last:
            return _wrong(_same_psi(self.last["S15", k], ans),
                          "S15 and Q15 fingerprints differ")
        if name == "Q32" and ("S32", k) in self.last:
            return _wrong(not _same_psi(self.last["S32", k], ans),
                          "S32 and Q32 fingerprints agree")
        return None


def build_screen(rng, files: Files, count: int, tiny: bool) -> Workload:
    k = 400
    n_random = 6 if tiny else 44
    samples = {2: 8000, 3: 2500} if not tiny else {2: 2000, 3: 1000}
    named = {name: set_1d(*spec) for name, spec in
             (("S15", S15), ("Q15", Q15), ("S32", S32), ("Q32", Q32))}
    batch = {}
    for name, S in named.items():
        batch[name] = files.write(f"screen_{name}", S)
    base2, base3 = random_set(rng, 2, 3), random_set(rng, 3, 3)
    for name, S in (("S15_copy", isometric_copy(rng, named["S15"])),
                    ("R2", base2), ("R2_copy", isometric_copy(rng, base2)),
                    ("R3", base3), ("R3_copy", isometric_copy(rng, base3))):
        batch[name] = files.write(f"screen_{name}", S)
    for j in range(n_random):
        S = random_set(rng, 1 + j % 3, 1 + j % 6)
        batch[f"B{j}"] = files.write(f"screen_B{j}", S)
    index = {name: i for i, name in enumerate(batch)}
    amd_s15, amd_q15 = amd_1d(*S15, k), amd_1d(*Q15, k)
    amd_s32, amd_q32 = amd_1d(*S32, k), amd_1d(*Q32, k)
    expected = {
        ("S15", "Q15"): float(np.abs(amd_s15 - amd_q15).max()),
        ("S32", "Q32"): float(np.abs(amd_s32 - amd_q32).max()),
        ("S15", "S15_copy"): 0.0, ("R2", "R2_copy"): 0.0, ("R3", "R3_copy"): 0.0,
    }
    # criterion 1's tables are the first entries of the oracle vectors
    if not (np.allclose(amd_s15[:4], [11 / 9, 19 / 9, 25 / 9, 34 / 9], atol=1e-12)
            and np.allclose(amd_q15[:4], [11 / 9, 19 / 9, 26 / 9, 33 / 9], atol=1e-12)):
        raise RuntimeError("AMD oracle disagrees with criterion 1's tables")
    batch_paths = [p for p, _ in batch.values()]
    pair = _ExactPair()
    ops = []
    j = 0
    while len(ops) < count:
        ops.append(Op(
            "batch_amd",
            lambda: run_cli(["batch", "--mode", "amd", "-k", k, *batch_paths]),
            lambda a: _check_batch(a, index, expected)))
        for n in (2, 3):
            path, _ = files.write(f"screen_D{j}_{n}", random_set(rng, n, 3))
            ops.append(Op(
                "density_sampled",
                lambda p=path, n=n, j=j: run_cli(
                    ["density", p, "--samples", samples[n], "-k", 3, "--seed", j]),
                _check_sampled))
        for k_exact in (4, 8):
            for name in ("S15", "Q15", "S32", "Q32"):
                ops.append(Op(
                    "density_exact",
                    lambda p=batch[name][0], k=k_exact: run_cli(["density", p, "-k", k]),
                    lambda a, nm=name, k=k_exact: pair.check((nm, k), a)))
        j += 1
    return Workload(ops, batch_paths, 11)


FACTORIES = {
    "emd2d": build_emd2d,
    "emd3d": build_emd3d,
    "invariants": build_invariants,
    "screen": build_screen,
}

def build(name: str, seed: int, directory: Path, count: int, tiny: bool = False):
    rng = np.random.default_rng([seed, sorted(FACTORIES).index(name)])
    return FACTORIES[name](rng, Files(directory), count, tiny)

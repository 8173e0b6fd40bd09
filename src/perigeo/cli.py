"""Command-line front end.

Subcommands: amd, density, isoset, isotree, compare, emd, dcluster, batch.
Exit codes: 0 success, 1 usage error, 2 data error.  The environment
variable PERIGEO_TOL overrides the default cluster-match tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .amd import amd
from .core import DataError, bridge_length, easy_stable_radius
from .density import DensityFingerprint1D, psi_k_sampled
from .io import ParseError, parse_set_file
from .isoset import (
    alpha_cluster,
    common_stable_alpha,
    isoset,
    isosets_equal,
    isotree,
    minimum_stable_radius,
    stable_alpha,
)
from .metric import (
    DEFAULT_DELTA,
    _resolve_engine,
    approx_factor_bound,
    d_C,
    emd,
)

SCHEMA = 1


class _UsageError(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(1)


def _tolerance_override():
    value = os.environ.get("PERIGEO_TOL")
    if not value:
        return None
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise DataError(
            f"PERIGEO_TOL must be a positive finite number, got {value!r}")
    return tol


def _emit(data, fmt: str = "json", csv_text: str = ""):
    if fmt == "csv":
        sys.stdout.write(csv_text)
    else:
        json.dump(data, sys.stdout, indent=2, default=_jsonable)
        sys.stdout.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _pick_alpha(S, args):
    if getattr(args, "alpha", None) is not None:
        return float(args.alpha), None
    result = minimum_stable_radius(S, _tolerance_override())
    return result.alpha, result


def _cmd_amd(args):
    S = parse_set_file(args.file)
    vec = amd(S, args.k)
    data = {
        "schema": SCHEMA,
        "command": "amd",
        "file": str(args.file),
        "k": args.k,
        "amd": vec.values.tolist(),
        "per_point": vec.per_point_matrix.tolist(),
    }
    csv_lines = ["k,amd"] + [
        f"{j + 1},{v:.12g}" for j, v in enumerate(vec.values)
    ]
    _emit(data, args.format, "\n".join(csv_lines) + "\n")
    return 0


def _parse_grid(spec: str):
    try:
        t0, t1, steps = spec.split(":")
        t0, t1, steps = float(t0), float(t1), int(steps)
    except ValueError:
        raise DataError(f"bad grid specification {spec!r}, expected t0:t1:steps")
    if steps < 1 or t1 < t0:
        raise DataError(f"bad grid specification {spec!r}")
    return np.linspace(t0, t1, steps)


def _cmd_density(args):
    S = parse_set_file(args.file)
    data = {
        "schema": SCHEMA,
        "command": "density",
        "file": str(args.file),
        "k": args.k,
    }
    plots = {}
    if S.dim == 1 and not args.samples:
        F = DensityFingerprint1D.from_set(S)
        data["mode"] = "exact"
        data["period"] = F.period
        psis = []
        for k in range(args.k + 1):
            p = F.psi(k)
            psis.append({
                "k": k,
                "corners": p.corners.tolist(),
                "corners_original_units": p.scale_t(F.period).corners.tolist(),
            })
            plots[k] = p.corners.tolist()
        data["psi"] = psis
    else:
        samples = args.samples or 10000
        grid = _parse_grid(args.grid) if args.grid else np.linspace(
            0.0, easy_stable_radius(S) / 2.0, 20
        )
        data["mode"] = "sampled"
        data["samples"] = samples
        data["seed"] = args.seed
        psis = []
        for k in range(args.k + 1):
            rows = psi_k_sampled(S, k, grid, samples, args.seed)
            psis.append({"k": k, "estimates": [list(r) for r in rows]})
            plots[k] = [[t, est] for t, est, _ in rows]
        data["psi"] = psis
    if args.plot_csv:
        for k, rows in plots.items():
            path = Path(f"{args.plot_csv}_k{k}.csv")
            path.write_text(
                "\n".join(f"{t:.12g},{v:.12g}" for t, v in rows) + "\n",
                encoding="utf-8",
            )
        data["plot_csv"] = [f"{args.plot_csv}_k{k}.csv" for k in plots]
    _emit(data)
    return 0


def _cmd_isoset(args):
    S = parse_set_file(args.file)
    tol = _tolerance_override()
    alpha, stable = _pick_alpha(S, args)
    iso = isoset(S, alpha, tol)
    data = {
        "schema": SCHEMA,
        "command": "isoset",
        "file": str(args.file),
        "alpha": alpha,
        "beta": stable.beta if stable else bridge_length(S),
        "unstable": iso.unstable,
        "regularity": len(iso.classes),
        "classes": [
            {
                "weight": str(c.weight),
                "weight_float": float(c.weight),
                "size": c.representative.size,
                "members": list(c.members),
                "points": c.representative.points.tolist(),
            }
            for c in iso.classes
        ],
    }
    _emit(data)
    return 0


def _cmd_isotree(args):
    S = parse_set_file(args.file)
    tree = isotree(S, args.alpha_max, _tolerance_override())
    lines = []
    for lvl, (radius, part) in enumerate(zip(tree.radii, tree.partitions)):
        blocks = " ".join("{" + ",".join(map(str, b)) + "}" for b in part)
        suffix = ""
        if lvl:
            suffix = "  parents: " + ",".join(map(str, tree.parents[lvl]))
        lines.append(f"alpha={radius:.9g}: {blocks}{suffix}")
    data = {
        "schema": SCHEMA,
        "command": "isotree",
        "file": str(args.file),
        "radii": list(tree.radii),
        "partitions": [[list(b) for b in p] for p in tree.partitions],
        "parents": [list(p) for p in tree.parents],
        "text": lines,
    }
    _emit(data)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_compare(args):
    A = parse_set_file(args.file_a)
    B = parse_set_file(args.file_b)
    alpha = common_stable_alpha(A, B)
    result = isosets_equal(A, B, _tolerance_override(), alpha)
    _emit({
        "schema": SCHEMA,
        "command": "compare",
        "files": [str(args.file_a), str(args.file_b)],
        "isometric": bool(result),
        "alpha_used": alpha,
    })
    return 0


def _cmd_emd(args):
    A = parse_set_file(args.file_a)
    B = parse_set_file(args.file_b)
    tol = _tolerance_override()
    fallback = None
    if args.alpha is not None:
        alpha = float(args.alpha)
    elif args.stable:
        alpha, fallback = stable_alpha(A, B, tol)
    else:
        alpha = common_stable_alpha(A, B)
    iso_a = isoset(A, alpha, tol)
    iso_b = isoset(B, alpha, tol)
    cost, plan = emd(iso_a, iso_b, engine=args.dr)
    engine_used = _resolve_engine(
        args.dr,
        max(c.representative.size for c in iso_a.classes),
        max(c.representative.size for c in iso_b.classes),
    )
    data = {
        "schema": SCHEMA,
        "command": "emd",
        "files": [str(args.file_a), str(args.file_b)],
        "alpha": alpha,
        "cost": cost,
        "plan": plan.flows.tolist(),
        "engine": engine_used,
        "delta": args.delta,
        "factor_bound": approx_factor_bound(A.dim, args.delta)
        if engine_used == "approx" else 1.0,
    }
    if fallback is not None:
        data["fallback"] = fallback
    _emit(data)
    return 0


def _cmd_dcluster(args):
    A = parse_set_file(args.file_a)
    B = parse_set_file(args.file_b)
    ia, ib = args.points
    for path, S, index in ((args.file_a, A, ia), (args.file_b, B, ib)):
        if not 0 <= index < S.m:
            raise DataError(f"{path}: point index {index} is not in "
                            f"0..{S.m - 1}")
    ca = alpha_cluster(A, ia, args.alpha)
    cb = alpha_cluster(B, ib, args.alpha)
    value = d_C(ca, cb, args.alpha, engine=args.dr)
    _emit({
        "schema": SCHEMA,
        "command": "dcluster",
        "files": [str(args.file_a), str(args.file_b)],
        "points": [ia, ib],
        "alpha": args.alpha,
        "engine": _resolve_engine(args.dr, ca.size, cb.size),
        "d_cluster": value,
    })
    return 0


def batch_compare(paths, mode: str, k: int = 10, tol=None, dr: str = "auto"):
    """Pairwise comparison matrix over a list of set files.

    Mode emd takes every EMD at one radius, the largest max{2b, d} of the
    sets, on one isoset per set.  Per-file parse failures are reported and
    the run continues with the valid subset.  Returns (names, matrix,
    failures)."""
    sets, names, failures = [], [], []
    for path in paths:
        try:
            sets.append(parse_set_file(path))
            names.append(str(path))
        except (ParseError, DataError, OSError) as exc:
            failures.append({"path": str(path), "error": str(exc)})
    size = len(sets)
    matrix = np.zeros((size, size))
    if mode == "amd":
        vecs = [amd(S, k).values for S in sets]
        for i in range(size):
            for j in range(i + 1, size):
                matrix[i, j] = matrix[j, i] = float(
                    np.max(np.abs(vecs[i] - vecs[j]))
                )
    elif mode == "isoset":
        for i in range(size):
            matrix[i, i] = 1.0
            for j in range(i + 1, size):
                same = isosets_equal(sets[i], sets[j], tol)
                matrix[i, j] = matrix[j, i] = 1.0 if same else 0.0
    elif mode == "emd":
        # one radius stable for every set, so that all entries are one metric
        alpha = max((easy_stable_radius(S) for S in sets), default=0.0)
        isosets = [isoset(S, alpha, tol) for S in sets]
        for i in range(size):
            for j in range(i + 1, size):
                cost, _ = emd(isosets[i], isosets[j], engine=dr)
                matrix[i, j] = matrix[j, i] = cost
    else:
        raise DataError(f"unknown batch mode {mode!r}")
    return names, matrix, failures


def _cmd_batch(args):
    names, matrix, failures = batch_compare(
        args.files, args.mode, args.k, _tolerance_override(), args.dr
    )
    for failure in failures:
        print(f"warning: {failure['path']}: {failure['error']}", file=sys.stderr)
    data = {
        "schema": SCHEMA,
        "command": "batch",
        "mode": args.mode,
        "files": names,
        "matrix": matrix.tolist(),
        "failures": failures,
    }
    header = "file," + ",".join(names)
    rows = [header] + [
        name + "," + ",".join(f"{v:.12g}" for v in row)
        for name, row in zip(names, matrix)
    ]
    _emit(data, args.format, "\n".join(rows) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="perigeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("amd", help="average minimum distances")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_amd)

    p = sub.add_parser("density", help="density fingerprint")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--samples", type=int, default=0,
                   help="Monte-Carlo sample count (forces sampled mode)")
    p.add_argument("--grid", default="", help="t0:t1:steps evaluation grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plot-csv", default="",
                   help="prefix for two-column CSV files, one per k")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("isoset", help="weighted isometry classes")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=float)
    group.add_argument("--stable", action="store_true",
                       help="use the minimum stable radius (default)")
    p.set_defaults(func=_cmd_isoset)

    p = sub.add_parser("isotree", help="merge tree of alpha-partitions")
    p.add_argument("file")
    p.add_argument("--alpha-max", type=float, required=True)
    p.set_defaults(func=_cmd_isotree)

    p = sub.add_parser("compare", help="isometry decision via isosets")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("emd", help="Earth Mover's Distance between isosets")
    p.add_argument("file_a")
    p.add_argument("file_b")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=float)
    group.add_argument("--stable", action="store_true",
                       help="use the larger of the two minimum stable radii "
                       "(default: the larger of the two max{2b, d})")
    p.add_argument("--dr", choices=("exact", "approx", "auto"), default="auto")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help="cushion of the reported factor_bound only")
    p.set_defaults(func=_cmd_emd)

    p = sub.add_parser("dcluster", help="cluster distance for one point pair")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--points", type=int, nargs=2, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dr", choices=("exact", "approx", "auto"), default="auto")
    p.set_defaults(func=_cmd_dcluster)

    p = sub.add_parser("batch", help="pairwise comparison matrix")
    p.add_argument("files", nargs="+")
    p.add_argument("--mode", choices=("amd", "isoset", "emd"), required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--dr", choices=("exact", "approx", "auto"), default="auto")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError, DataError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

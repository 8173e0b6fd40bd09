#!/usr/bin/env python3
"""Self-test of the benchmark, every workload at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that
* every end-to-end and per-layer metric is emitted with its unit, and that
  the names and units match BENCHMARK.json;
* two traced runs of the same operations give exactly the same counts;
* a corrupted answer is counted in fail.wrong, an overrunning operation in
  fail.timeout and a raising one in fail.error, and the loop keeps going;
* in a directory that holds only BENCHMARK.json and the benchmark, run.py
  exits nonzero without printing a result.

Exits 0 when every check passes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import perigeo  # noqa: E402
import tracer  # noqa: E402
from perigeo import cli  # noqa: E402
from workloads import Op  # noqa: E402

SEED = 7
FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def tiny_run(name, trace, n_ops=None):
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        return run.run_workload(name, SEED, 0.5, trace, Path(workdir), tiny=True,
                                n_ops=n_ops)[0]


def check_names(name, result, trace):
    kind = "per_layer" if trace else "end_to_end"
    want = declared(kind)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    missing = sorted(set(want) - set(got))
    expect(not missing, f"{name} trace={trace}: every {kind} metric emitted"
           + (f" (missing {missing})" if missing else ""))
    wrong_units = sorted(k for k in want if k in got and got[k] != want[k])
    expect(not wrong_units, f"{name} trace={trace}: units match BENCHMARK.json"
           + (f" (differ: {wrong_units})" if wrong_units else ""))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.emit(result, trace)
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}
           and set(line["metrics"]) == set(want),
           f"{name} trace={trace}: last line holds exactly the declared metrics")


def corrupt(data):
    data = dict(data)
    if "cost" in data:
        data["cost"] += 1.0
    if "isometric" in data:
        data["isometric"] = not data["isometric"]
    if data.get("command") == "isoset":
        data["alpha"] = -1.0
    if "matrix" in data:
        data["matrix"] = [[v + 1.0 for v in row] for row in data["matrix"]]
    if data.get("command") == "density":
        data["psi"] = [{**p, "corners": [[0.0, 0.5]], "estimates": [[0.0, 2.0, 0.0]]}
                       for p in data["psi"]]
    return data


def check_corruption(name):
    emit, report = cli._emit, perigeo.radius_report

    def corrupt_report(S):
        rep = report(S)
        return type(rep)(-1.0, rep.covering_radius, rep.bridge_length,
                         rep.easy_stable_radius, rep.covering_method)

    cli._emit = lambda data, *args, **kwargs: emit(corrupt(data), *args, **kwargs)
    perigeo.radius_report = corrupt_report
    try:
        result = tiny_run(name, 0)
    finally:
        cli._emit, perigeo.radius_report = emit, report
    fails = {k: result["metrics"][f"fail.{k}"]["value"] for k in ("wrong", "error", "timeout")}
    expect(fails["wrong"] == result["attempted"] > 0 and fails["error"] == fails["timeout"] == 0
           and not result["correct"],
           f"{name}: every corrupted answer counted in fail.wrong {fails}")


def check_time_limit():
    def slow():
        while True:  # interruptible Python, like a cycling solver
            pass

    def broken():
        raise RuntimeError("stub failure")

    ops = [Op("slow", slow, lambda a: None), Op("broken", broken, lambda a: None),
           Op("fast", lambda: 1, lambda a: None if a == 1 else "wrong")]
    loop = run.closed_loop(ops, limit=0.2)
    expect(loop.fails == {"timeout": 1, "error": 1, "wrong": 0} and loop.attempted == 3,
           f"slow stub counted in fail.timeout, raising stub in fail.error {loop.fails}")
    expect(len(loop.around) == loop.attempted and all(a > 0 for a in loop.around),
           "every operation bracketed by reference timings")


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "emd2d",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"bare directory: exit code {proc.returncode}, no result printed")


def main():
    run.WORK.mkdir(exist_ok=True)
    try:
        for name in run.WORKLOADS:
            result = tiny_run(name, 0)
            expect(result["correct"] and result["attempted"] > 0,
                   f"{name}: tiny run correct ({result['attempted']} operations)")
            check_names(name, result, 0)
            first = tiny_run(name, 1, n_ops=4)
            second = tiny_run(name, 1, n_ops=4)
            check_names(name, first, 1)
            differ = [k for k in tracer.EXACT_COUNTS
                      if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
            expect(not differ, f"{name}: exact counts repeat between traced runs"
                   + (f" (differ: {differ})" if differ else ""))
            expect(first["metrics"]["trace.overhead"]["value"] > 0,
                   f"{name}: tracing overhead reported")
            check_corruption(name)
        check_time_limit()
        check_bare_directory()
    finally:
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

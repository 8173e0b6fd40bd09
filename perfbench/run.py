#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of perigeo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; perigeo is imported from its ``src/``.
The benchmark writes the workload's set files from the seed, then drives
perigeo in-process as a closed loop: one client, one operation at a time,
each answer checked by an oracle, each operation under a time limit.

``--trace 0`` runs S times the nominal rate below in operations, in whole
rounds (so about S seconds of this code, and the same operations in every
run with the same arguments), and reports the end-to-end metrics of
BENCHMARK.json.  The host is shared, and its contention slows every kernel
by up to about 1.6x for spells of seconds to minutes, so the run stays on
one CPU and each timing is bracketed by a fixed reference kernel and scaled
by REFERENCE_KERNEL_S over the reference times around it: the end-to-end
times are seconds on an uncontended core.  The raw wall figures are
printed too.

``--trace 1`` wraps the layer entry points and runs the same operations
traced, so two traced runs with the same arguments do identical work and
their counts repeat exactly; each of the first half is run again untraced
right after, which gives the tracing overhead.
``--workload all`` runs every workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# pin BLAS before numpy is imported, here and in the set-up child processes
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("emd2d", "emd3d", "invariants", "screen")
# rough operations per second of this code on a 2-core x86 machine; sizes the
# runs, never a result
NOMINAL_OPS_PER_S = {"emd2d": 0.8, "emd3d": 1.2, "invariants": 8.0, "screen": 7.7}
OP_LIMIT_S = 60.0          # per-operation time limit
SETUP_REPEATS = 5          # fresh interpreters per run; setup_s is their median
# the reference kernel's fastest time on an uncontended core of the machine the
# bounds were set on (2-vCPU Intel Xeon at 2.1 GHz); end-to-end times are
# scaled to it
REFERENCE_KERNEL_S = 0.77e-3
MEMORY_LIMIT = 3 << 30     # address-space cap: runaway allocation fails the op

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.ops": "count",
    "trace.ops_per_s": "1/s",
    "trace.overhead": "ratio",
}
# reported by every run, next to the metrics of its kind
REPORT_UNITS = {
    "emd_cost_mean": "length",
    "fail.timeout": "count",
    "fail.error": "count",
    "fail.wrong": "count",
}


class OpTimeout(BaseException):
    """Raised from SIGALRM when an operation overruns its time limit.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    fails: dict = field(default_factory=lambda: {"timeout": 0, "error": 0, "wrong": 0})
    notes: list = field(default_factory=list)
    around: list = field(default_factory=list)  # reference time around each op
    probes: list = field(default_factory=list)  # every reference time of the run
    wall: float = 0.0   # traced runs: time spent in traced operations

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.fails.values())


_PROBE_POINTS = np.random.default_rng(0).random((60, 3))


def _kernel():
    t0 = perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    diff = _PROBE_POINTS[:, None, :] - _PROBE_POINTS[None, :, :]
    for _ in range(10):
        np.sort(np.einsum("ijk,ijk->ij", diff, diff), axis=1)
    return perf_counter() - t0


def probe():
    """Wall time of a fixed reference kernel of about 1 ms, half pure Python,
    half numpy, the faster of two back-to-back runs so that caches left cold
    by the previous operation do not count.  It does not touch perigeo, so a
    change in its time is the host's, not the program's."""
    return min(_kernel(), _kernel())


def uncontended(times, around):
    """Scale each time by REFERENCE_KERNEL_S over the mean of the reference
    times taken right before and after it."""
    return [t * REFERENCE_KERNEL_S / a for t, a in zip(times, around)]


def run_op(op, result, limit=OP_LIMIT_S):
    """Run one operation under the time limit, check its answer and record
    the outcome in `result`."""
    t0 = perf_counter()
    outcome, answer = None, None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            answer = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        outcome = "timeout"
    except Exception as exc:  # any failure of the program is counted
        outcome = "error"
        result.notes.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    result.latencies.append(perf_counter() - t0)
    if outcome is None:
        try:
            reason = op.check(answer)
        except Exception as exc:  # a malformed answer is a wrong one
            reason = f"unreadable answer: {type(exc).__name__}: {exc}"
        if reason is not None:
            outcome = "wrong"
            result.notes.append(f"{op.kind}: {reason}")
        elif op.emd:
            result.costs.append(float(answer["cost"]))
    if outcome is not None:
        result.fails[outcome] += 1


def closed_loop(ops, limit=OP_LIMIT_S):
    """Run ops in order, each bracketed by reference timings."""
    result = LoopResult()
    result.probes.append(probe())
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for op in ops:
            run_op(op, result, limit)
            result.probes.append(probe())
            result.around.append(0.5 * (result.probes[-2] + result.probes[-1]))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return result


def traced_loop(ops, n_ops, tracer, wall_cap):
    """Run the first `n_ops` operations traced; run each of the first half
    again untraced right after its traced run, so that the overhead ratio
    compares the same work at nearly the same moment."""
    traced, plain = LoopResult(), LoopResult()
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = perf_counter()
    try:
        for i in range(n_ops):
            if perf_counter() - start >= wall_cap:
                break
            tracer.install()
            try:
                run_op(ops[i % len(ops)], traced)
            finally:
                tracer.uninstall()
            if 2 * i < n_ops:
                run_op(ops[i % len(ops)], plain)
    finally:
        signal.signal(signal.SIGALRM, previous)
    traced.wall = perf_counter() - start - sum(plain.latencies)
    return traced, plain


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that still
    has at least 10 samples above it; the maximum when there are 10 or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def measure_setup(files):
    """Wall times of fresh interpreters importing perigeo.cli and parsing
    the workload's set files, and the reference time around each."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import perigeo.cli; "
            "from perigeo.io import parse_set_file; "
            "[parse_set_file(p) for p in sys.argv[2:]]")
    times, around = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), *map(str, files)],
                       check=True, timeout=120, cwd=ROOT)
        times.append(perf_counter() - t0)
        after = probe()
        around.append(0.5 * (before + after))
        before = after
    return times, around


def environment(seed):
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            git_sha = sha.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    import numpy
    import scipy
    return {
        "threads": THREAD_ENV,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def pin_to_one_cpu():
    """Keep the benchmark, and the interpreters it starts, on one CPU, so
    that the reference kernel sees the contention the operations see."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return min(cpus)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, workdir, tiny=False, n_ops=None):
    """Build the workload and measure it; returns (result dict, report lines).

    `n_ops` fixes the number of operations (default: `seconds` times the
    nominal rate, in whole rounds)."""
    import workloads
    from tracer import Tracer, UNITS

    rate = NOMINAL_OPS_PER_S[name]
    wl = workloads.build(name, seed, workdir, n_ops or math.ceil(seconds * rate), tiny)
    n_ops = n_ops or wl.round * max(1, round(seconds * rate / wl.round))
    lines = []
    if not trace:
        loop = closed_loop(wl.ops[:n_ops])
        setup, setup_around = measure_setup(wl.setup_files)
        completed = loop.attempted - loop.failed
        figures = {}
        for label, lat, setup_s in (
                ("wall", loop.latencies, setup),
                ("uncontended", uncontended(loop.latencies, loop.around),
                 uncontended(setup, setup_around))):
            value, pct, beyond = tail(lat)
            figures[label] = {
                "ops_per_s": completed / sum(lat),
                "op_p50_s": statistics.median(lat),
                "op_tail_s": value,
                "setup_s": statistics.median(setup_s),
            }
        metrics = {**figures["uncontended"], "peak_rss_mb": _peak_rss_mb()}
        units = END_TO_END_UNITS
        lines.append(f"op_tail_s is p{pct:.1f} of {loop.attempted} operations, "
                     f"{beyond} samples beyond it")
        lines.append(f"reference kernel: fastest {min(loop.probes) * 1e3:.3f} ms, "
                     f"median {statistics.median(loop.probes) * 1e3:.3f} ms "
                     f"over {len(loop.probes)} timings")
        lines.append("wall, unscaled: " + ", ".join(
            f"{k} {v:.6g}" for k, v in figures["wall"].items()))
    else:
        tracer = Tracer()
        loop, plain = traced_loop(wl.ops, n_ops, tracer, 3 * seconds + 30)
        overhead = sum(loop.latencies[:plain.attempted]) / sum(plain.latencies)
        metrics = tracer.metrics()
        metrics["trace.ops"] = loop.attempted
        metrics["trace.ops_per_s"] = (loop.attempted - loop.failed) / loop.wall
        metrics["trace.overhead"] = overhead
        units = {**UNITS, **TRACE_UNITS}
        if tracer.missing:
            lines.append("trace targets not found: " + ", ".join(tracer.missing))
        lines.append(f"tracing overhead: {overhead:.3f}x on the first {plain.attempted} "
                     f"operations (each run traced, then untraced)")
        for key, value in plain.fails.items():
            loop.fails[key] += value
        loop.latencies += plain.latencies
        loop.notes += plain.notes
    metrics["emd_cost_mean"] = statistics.fmean(loop.costs) if loop.costs else 0.0
    for key, value in loop.fails.items():
        metrics[f"fail.{key}"] = value
    units = {**units, **REPORT_UNITS}
    lines.append(f"failed_ratio {loop.failed / loop.attempted:.6g} "
                 f"({loop.failed} of {loop.attempted}: timeout {loop.fails['timeout']}, "
                 f"error {loop.fails['error']}, wrong {loop.fails['wrong']})")
    lines.append("oracle: " + ("PASS" if loop.failed == 0 else "FAIL"))
    lines += [f"  {note}" for note in loop.notes[:20]]
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def _declared(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def emit(result, trace):
    """Print the metric lines and the final JSON line with exactly the
    metrics BENCHMARK.json declares."""
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    declared = _declared(trace)
    line = dict(result, metrics={k: result["metrics"][k] for k in declared})
    print(json.dumps(line))


def run_all(args):
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        results[name] = (proc.returncode, json.loads(last[0]) if proc.returncode == 0 else {})
    print("\nsummary")
    for name, (code, res) in results.items():
        verdict = "PASS" if code == 0 and res.get("correct") else "FAIL"
        values = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                           for k, m in res.get("metrics", {}).items())
        print(f"  {name:10s} oracle {verdict}  {values}")
    return 0 if all(code == 0 for code, _ in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perigeo" / "__init__.py").is_file():
        print(f"error: no perigeo sources under {SRC}; run from a perigeo checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import perigeo
    if Path(perigeo.__file__).resolve().parent != SRC / "perigeo":
        print(f"error: perigeo imported from {perigeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    env = environment(args.seed)
    env["cpu"] = pin_to_one_cpu()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, closed loop with one client")
    print("env " + json.dumps(env, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    emit(result, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around perigeo's layer entry points, from outside.

`Tracer.install` replaces each target function at every perigeo module
global (and class attribute) that refers to it, so both
``perigeo.core.neighbor_arrays`` and ``perigeo.isoset.neighbor_arrays`` are
timed.  Spans are kept in memory as (name, parent, start, end); a span's
self time is its duration minus the time its child spans cover.  Layers are
the modules: io, core, amd, density, isoset, metric, cli.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("io", "core", "amd", "density", "isoset", "metric", "cli")


def _neighbor_key(tracer, args, kwargs, result):
    S = args[0] if args else kwargs["S"]
    p = args[1] if len(args) > 1 else kwargs["p_index"]
    tracer.keys.add(hash((S.cell.basis.tobytes(), S.motif.tobytes(), int(p))))


def _cloud_points(tracer, args, kwargs, result):
    tracer.counts["core.neighbor_cloud.points"] += len(result[0])


def _angles(tracer, args, kwargs, result):
    thetas = args[1] if len(args) > 1 else kwargs["thetas"]
    tracer.counts["metric.dr2d.angles"] += len(thetas)


def _isometric_hit(tracer, args, kwargs, result):
    tracer.counts["isoset.clusters_isometric.hits"] += result is not None


# (module, attribute, span name, counter hook)
TARGETS = (
    ("perigeo.io", "parse_set_file", "io.parse_set_file", None),
    ("perigeo.core", "neighbor_arrays", "core.neighbor_arrays", _neighbor_key),
    ("perigeo.core", "neighbor_cloud", "core.neighbor_cloud", _cloud_points),
    ("perigeo.core", "min_interpoint_distance", "core.min_interpoint_distance", None),
    ("perigeo.core", "packing_covering_radii", "core.packing_covering_radii", None),
    ("perigeo.core", "bridge_length", "core.bridge_length", None),
    ("perigeo.core", "easy_stable_radius", "core.easy_stable_radius", None),
    ("perigeo.core", "radius_report", "core.radius_report", None),
    ("perigeo.amd", "amd", "amd.amd", None),
    ("perigeo.density", "psi_k_sampled", "density.psi_k_sampled", None),
    ("perigeo.density", "psi_k_1d", "density.psi_k_1d", None),
    ("perigeo.density", "DensityFingerprint1D.from_set", "density.from_set", None),
    ("perigeo.isoset", "alpha_cluster", "isoset.alpha_cluster", None),
    ("perigeo.isoset", "clusters_isometric", "isoset.clusters_isometric", _isometric_hit),
    ("perigeo.isoset", "symmetry_group", "isoset.symmetry_group", None),
    ("perigeo.isoset", "alpha_partition", "isoset.alpha_partition", None),
    ("perigeo.isoset", "critical_radii", "isoset.critical_radii", None),
    ("perigeo.isoset", "minimum_stable_radius", "isoset.minimum_stable_radius", None),
    ("perigeo.isoset", "isoset", "isoset.isoset", None),
    ("perigeo.isoset", "isosets_equal", "isoset.isosets_equal", None),
    ("perigeo.isoset", "common_stable_alpha", "isoset.common_stable_alpha", None),
    ("perigeo.metric", "_RotationProfile2D.profiles", "metric.dr2d", _angles),
    ("perigeo.metric", "_RotationProfile2D.values", "metric.dr2d", _angles),
    ("perigeo.metric", "d_R_exact_small", "metric.d_R_exact_small", None),
    ("perigeo.metric", "d_R_approx", "metric.d_R_approx", None),
    ("perigeo.metric", "d_M", "metric.d_M", None),
    ("perigeo.metric", "d_C", "metric.d_C", None),
    ("perigeo.metric", "_min_cost_transport", "metric.transport", None),
    ("perigeo.metric", "emd", "metric.emd", None),
    ("perigeo.cli", "main", "cli.main", None),
)

# per-layer metric name -> unit; `metrics()` returns exactly these keys
UNITS = {
    "metric.dr2d.s": "s",
    "metric.dr2d.angles": "count",
    "metric.d_C.calls": "count",
    "metric.d_R_exact_small.calls": "count",
    "metric.d_R_exact_small.s": "s",
    "metric.d_R_approx.calls": "count",
    "metric.d_R_approx.s": "s",
    "metric.transport.s": "s",
    "core.neighbor_arrays.calls": "count",
    "core.neighbor_arrays.s": "s",
    "core.neighbor_arrays.repeat_ratio": "ratio",
    "core.packing_covering_radii.s": "s",
    "core.neighbor_cloud.points": "count",
    "core.bridge_length.s": "s",
    "isoset.minimum_stable_radius.self_s": "s",
    "isoset.alpha_partition.calls": "count",
    "isoset.symmetry_group.calls": "count",
    "isoset.symmetry_group.s": "s",
    "isoset.clusters_isometric.calls": "count",
    "isoset.clusters_isometric.s": "s",
    "isoset.clusters_isometric.hit_ratio": "ratio",
    "amd.amd.s": "s",
    "density.psi_k_sampled.calls": "count",
    "density.psi_k_sampled.s": "s",
    "io.parse_set_file.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

# counts that must repeat exactly when the same operations are traced again
EXACT_COUNTS = tuple(
    name for name in UNITS
    if name.endswith(".calls") or name in (
        "metric.dr2d.angles", "core.neighbor_cloud.points",
        "core.neighbor_arrays.repeat_ratio", "isoset.clusters_isometric.hit_ratio",
    )
)


def _resolve(module, attr):
    """(owner, name, function) or None when the target no longer exists."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


class Tracer:
    def __init__(self):
        self.spans = []      # (name, parent index or -1, start, end)
        self.stack = []
        self.counts = Counter()
        self.keys = set()    # distinct (set, motif index) seen by neighbor_arrays
        self.missing = []
        self._undo = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, perf_counter())
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        self.missing = []
        for module, attr, name, hook in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, key, raw = found
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, name, hook))
            else:
                replacement = self._wrap(raw, name, hook)
            sites = [(owner, key)]
            if isinstance(owner, type(sys)):
                sites = [
                    (mod, k) for mod_name, mod in list(sys.modules.items())
                    if mod_name == "perigeo" or mod_name.startswith("perigeo.")
                    for k, v in list(vars(mod).items()) if v is raw
                ]
            for site, k in sites:
                setattr(site, k, replacement)
                self._undo.append((site, k, raw))

    def uninstall(self):
        for site, k, raw in reversed(self._undo):
            setattr(site, k, raw)
        self._undo.clear()

    def metrics(self) -> dict:
        """Per-layer values keyed like UNITS, aggregated over all spans."""
        n = len(self.spans)
        child = [0.0] * n
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            self_s[name.split(".")[0]] += end - start - child[i]
            # inclusive time counts only spans with no same-named ancestor
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                incl[name] += end - start
        out = {}
        for metric in UNITS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[base]
            elif kind == "s":
                out[metric] = incl[base]
            elif kind == "self_s":
                out[metric] = self_s[base]
            else:
                out[metric] = self.counts[metric]
        calls_na = calls["core.neighbor_arrays"]
        out["core.neighbor_arrays.repeat_ratio"] = (
            calls_na / len(self.keys) if self.keys else 0.0)
        calls_ci = calls["isoset.clusters_isometric"]
        out["isoset.clusters_isometric.hit_ratio"] = (
            self.counts["isoset.clusters_isometric.hits"] / calls_ci if calls_ci else 0.0)
        return out

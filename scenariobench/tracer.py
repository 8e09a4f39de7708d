"""Spans and counts for the traced run, recorded from outside qinstr.

``Tracer.installed`` wraps every public function of each qinstr module, plus
``DensityMatrix.__post_init__``, and rebinds the wrapper at every binding that
names the function: ``a_posteriori`` imported into ``infobounds`` and
``hallmap`` is traced there too. A span is (name, parent, scenario, start,
end), kept in flat arrays until the run ends. Nested calls get their own span
under the caller's span, so ``analyze`` inside the GL check is charged to GL.
Nothing under ``src/`` changes; the wrappers are removed when the block exits.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("harness", "infobounds", "hallmap", "entropy", "qstate", "instrument", "matcore", "_kernels")
RUN = "harness.run_scenario"
GL = "infobounds.groenewold_lindblad_check"
EIG = "matcore.herm_eig"
JACOBI = "kernels.jacobi_sweeps"
DENSITY = ("qstate.validate_density", "qstate.DensityMatrix")
HALL_BUILDS = ("hallmap.build_hall_instrument", "hallmap.dual_ensemble")

# Stage times: spans called directly by run_scenario (the pipeline's stages).
STAGES = {
    "infobounds.analyze_ms": "infobounds.analyze",
    "infobounds.entropy_panel_ms": "infobounds.entropy_panel",
    "infobounds.qig_ms": "infobounds.quantum_info_gain",
    "infobounds.gl_ms": GL,
    "infobounds.compound_ms": "infobounds.compound_states",
    "infobounds.scutaru_ms": "infobounds.scutaru_chains",
    "hallmap.duality_ms": "hallmap.verify_duality",
    "hallmap.hall_bound_ms": "hallmap.hall_bound",
    "hallmap.new_bound_ms": "hallmap.new_bound",
}


def layer_of(module: str):
    """'qinstr._kernels.jacobi_py' -> 'kernels'; None outside the layers."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "qinstr" or parts[1] not in LAYERS:
        return None
    return parts[1].lstrip("_")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.scenario = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._current = -1
        self.absent: list = []

    def begin_scenario(self, index: int) -> None:
        self._current = index

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, scenarios = self.name, self.parent, self.scenario
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            scenarios.append(self._current)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    @contextmanager
    def installed(self, package):
        """Trace every public qinstr function at every binding while the block runs."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        wrappers = {}
        for mod in modules:
            layer = layer_of(mod.__name__)
            for attr, value in vars(mod).items():
                if (layer and inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self.wrap(f"{layer}.{value.__name__}", value)
        restore = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        density = sys.modules[prefix + ".qstate"].DensityMatrix
        restore.append((density, "__post_init__", density.__post_init__))
        density.__post_init__ = self.wrap("qstate.DensityMatrix", density.__post_init__)
        self.absent = [layer.lstrip("_") for layer in LAYERS if prefix + "." + layer not in sys.modules]
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def write(self, path, provenance: dict) -> None:
        """A JSON header line (provenance, name table), then one CSV row per span."""
        header = {"provenance": provenance, "names": self.names,
                  "columns": ["name", "parent", "scenario", "start_s", "end_s"]}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(
                f"{a},{b},{c},{d!r},{e!r}\n"
                for a, b, c, d, e in zip(self.name, self.parent, self.scenario, self.start, self.end)
            )

    def ids(self, *names) -> set:
        return {self.names.index(x) for x in names if x in self.names}

    def subtree(self, ids: set) -> tuple:
        """Flags of spans at or under a span in ``ids``, and the outermost such spans."""
        inside = bytearray(len(self.name))
        outer = []
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            under = p >= 0 and inside[p]
            if nid in ids:
                inside[i] = 1
                if not under:
                    outer.append(i)
            elif under:
                inside[i] = 1
        return inside, outer


def layer_metrics(tr: Tracer, n_scenarios: int, digests: list) -> dict:
    """Per-layer metrics, each per scenario, from the spans of one traced pass.

    Stage times (``*_ms`` of harness, infobounds, hallmap) are the durations of
    the spans that run_scenario (or the operation, for ingest and emit) calls
    directly; a stage function called inside another stage is charged to that
    stage. Layer times (entropy, qstate, instrument, matcore, kernels) cover
    the outermost span of the layer, so nested calls are not counted twice.
    ``<layer>.self_ms`` is the layer's self time: span durations minus the
    time their child spans cover.
    """
    n = len(tr.name)
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    child = [0.0] * n
    count = [0] * len(tr.names)
    for i, (nid, p) in enumerate(zip(tr.name, tr.parent)):
        count[nid] += 1
        if p >= 0:
            child[p] += dur[i]

    def per(x):
        return x / n_scenarios

    def ms(spans):
        return per(sum(dur[i] for i in spans) * 1e3)

    def calls(*names):
        return per(sum(count[i] for i in tr.ids(*names)))

    def named(*names):
        ids = tr.ids(*names)
        return [i for i in range(n) if tr.name[i] in ids]

    def layer_ids(layer):
        return {i for i, name in enumerate(tr.names) if name.split(".")[0] == layer}

    run_ids = tr.ids(RUN)
    stage_spans = {metric: [] for metric in STAGES}
    stage_of = {i: metric for metric, name in STAGES.items() for i in tr.ids(name)}
    for i, (nid, p) in enumerate(zip(tr.name, tr.parent)):
        if p >= 0 and tr.name[p] in run_ids and nid in stage_of:
            stage_spans[stage_of[nid]].append(i)

    in_gl, _ = tr.subtree(tr.ids(GL))
    in_density, outer_density = tr.subtree(tr.ids(*DENSITY))
    _, outer_entropy = tr.subtree(layer_ids("entropy"))
    _, outer_instrument = tr.subtree(layer_ids("instrument"))
    eig_spans = named(EIG)
    self_s = {}
    for i, nid in enumerate(tr.name):
        layer = tr.names[nid].split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]

    m = {
        "harness.ingest_ms": (ms(named("harness.scenario_from_json")), "ms"),
        "harness.emit_ms": (ms(named("harness.emit_report")), "ms"),
        "harness.sensitivity_share": (
            per(sum(d["values"]["default_state_sensitivity"] is not None for d in digests)), "fraction"),
    }
    m.update({metric: (ms(spans), "ms") for metric, spans in stage_spans.items()})
    m.update({
        "infobounds.gl_eig": (per(sum(in_gl[i] for i in eig_spans)), "count"),
        "infobounds.purity_preserving_share": (per(sum(d["purity_preserving"] for d in digests)), "fraction"),
        "hallmap.builds": (calls(*HALL_BUILDS), "count"),
        "hallmap.skipped_share": (per(sum(d["hall_skipped"] for d in digests)), "fraction"),
        "entropy.ms": (ms(outer_entropy), "ms"),
        "entropy.q_rel_calls": (calls("entropy.q_rel_entropy"), "count"),
        "qstate.density_ms": (ms(outer_density), "ms"),
        "qstate.densities": (calls("qstate.DensityMatrix"), "count"),
        "qstate.eig_per_density": (
            sum(in_density[i] for i in eig_spans) / max(len(outer_density), 1), "count"),
        "instrument.ms": (ms(outer_instrument), "ms"),
        "instrument.a_posteriori_calls": (calls("instrument.a_posteriori"), "count"),
        "matcore.eig": (calls(EIG), "count"),
        "matcore.eig_ms": (ms(eig_spans), "ms"),
        "matcore.eig_us": (sum(dur[i] for i in eig_spans) * 1e6 / max(len(eig_spans), 1), "us"),
        "kernels.jacobi_ms": (ms(named(JACOBI)), "ms"),
    })
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_ms"] = (per(self_s.get(layer, 0.0) * 1e3), "ms")
    m["trace.spans"] = (per(n), "count")
    return m

"""Span tracing of the qorigami layers, installed from outside `src/`.

`Tracer.install` replaces the public functions of the six modules, plus
`FoldGeometry.locate`, the `FockSystem.basis` property and the module
attributes `interferometry.expm` / `interferometry.logm`, with wrappers
that record one span per call: (name, start, end, parent span, job id,
work).  Calls inside a module resolve these names through the module or
class at call time, so nested calls are recorded as child spans.  Spans
stay in memory until `write`; per-layer metrics are computed from them,
with self time taken from the parent links.
"""
from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("cli", "origami", "mcg", "stabilizer", "anyons", "interferometry")

# Per-layer metrics reported by a traced run, all per round of jobs so that
# counts repeat exactly whatever the number of rounds: (name, unit, better).
PER_LAYER = (
    ("cli.main.self_s", "s/round", "lower"),
    ("cli.load_caps.calls", "count/round", "lower"),
    ("origami.fold_base_path.calls", "count/round", "lower"),
    ("origami.fold_base_path.self_s", "s/round", "lower"),
    ("origami.FoldGeometry.locate.calls", "count/round", "lower"),
    ("origami.probe_cache_hit_ratio", "ratio", "higher"),
    ("origami.verify_protocol.calls", "count/round", "lower"),
    ("origami.unfold_class.self_s", "s/round", "lower"),
    ("origami.apply_protocol.self_s", "s/round", "lower"),
    ("mcg.word_to_matrix.calls", "count/round", "lower"),
    ("stabilizer.build_toric_torus.self_s", "s/round", "lower"),
    ("stabilizer.build_bilayer_genon_code.self_s", "s/round", "lower"),
    ("stabilizer.geometric_permutation.self_s", "s/round", "lower"),
    ("stabilizer.gf2_row_reduce.calls", "count/round", "lower"),
    ("stabilizer.gf2_row_reduce.busy_s", "s/round", "lower"),
    ("stabilizer.gf2_row_reduce.cells", "count/round", "lower"),
    ("stabilizer.gf2_in_span.calls", "count/round", "lower"),
    ("stabilizer.logical_action.self_s", "s/round", "lower"),
    ("anyons.verify_modular_data.busy_s", "s/round", "lower"),
    ("anyons.fusion_tensor.busy_s", "s/round", "lower"),
    ("anyons.rep_on_torus.calls", "count/round", "lower"),
    ("interferometry.expm.calls", "count/round", "lower"),
    ("interferometry.expm.busy_s", "s/round", "lower"),
    ("interferometry.expm.dim3", "count/round", "lower"),
    ("interferometry.logm.calls", "count/round", "lower"),
    ("interferometry.FockSystem.basis.calls", "count/round", "lower"),
    ("interferometry.FockSystem.basis.busy_s", "s/round", "lower"),
    ("interferometry.extract_matrix_elements.busy_s", "s/round", "lower"),
    ("trace.jobs_per_s", "jobs/s", "higher"),
)


def _cells(args, kwargs) -> int:
    rows, cols = args[0].shape
    return int(rows) * int(cols)


def _dim3(args, kwargs) -> int:
    return int(args[0].shape[0]) ** 3


# Work counted per span, from the call's arguments.
WORK = {
    "stabilizer.gf2_row_reduce": _cells,
    "interferometry.expm": _dim3,
    "interferometry.logm": _dim3,
}


class Tracer:
    """Records spans of wrapped calls; one client thread only."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, job, work]
        self._stack = []
        self.job = -1
        self._undo = []

    def wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of each layer module in place."""
        for layer in LAYERS:
            module = modules[layer]
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._replace(module, attr, f"{layer}.{attr}")
        origami, interferometry = modules["origami"], modules["interferometry"]
        self._replace(origami.FoldGeometry, "locate",
                      "origami.FoldGeometry.locate")
        self._replace(interferometry, "expm", "interferometry.expm")
        self._replace(interferometry, "logm", "interferometry.logm")
        basis = vars(interferometry.FockSystem)["basis"]
        self._undo.append((interferometry.FockSystem, "basis", basis))
        interferometry.FockSystem.basis = property(
            self.wrap("interferometry.FockSystem.basis", basis.fget))

    def _replace(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "job", "work")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summarize(self) -> dict:
        """Per span name: calls, busy time, self time and counted work."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, work) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0, "work": 0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - children[i]
            row["work"] += work
        return out

    def layer_metrics(self, rounds: int, jobs_per_s: float) -> dict:
        """Per-layer metrics per round, from the recorded spans."""
        summary = self.summarize()
        values = {"trace.jobs_per_s": jobs_per_s,
                  "origami.probe_cache_hit_ratio": self.probe_hit_ratio()}
        for metric, unit, _ in PER_LAYER:
            if metric not in values:
                name, field = metric.rsplit(".", 1)
                key = "work" if field in ("cells", "dim3") else field
                values[metric] = summary.get(name, {key: 0})[key] / rounds
        return {metric: {"value": values[metric], "unit": unit}
                for metric, unit, _ in PER_LAYER}

    def probe_hit_ratio(self) -> float:
        """Share of verify_protocol spans with no fold_base_path inside;
        0 when there are no verify_protocol spans."""
        verify = {i for i, span in enumerate(self.spans)
                  if span[0] == "origami.verify_protocol"}
        if not verify:
            return 0.0
        cold = set()
        for span in self.spans:
            if span[0] != "origami.fold_base_path":
                continue
            parent = span[3]
            while parent >= 0 and parent not in verify:
                parent = self.spans[parent][3]
            if parent >= 0:
                cold.add(parent)
        return (len(verify) - len(cold)) / len(verify)

"""Every per-layer benchmark metric that names a function names one that
exists.

BENCHMARK.json lists per-layer metrics as <layer>.<name>.<field>, and the
tracer reads 0 for a name that is never called, so a metric whose
function was deleted or renamed would read as a perfect score.
"""
import importlib
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Metrics computed from other spans, not named after a function.
DERIVED = {"origami.probe_cache_hit_ratio", "trace.jobs_per_s"}
# Functions deleted while BENCHMARK.json still lists a metric of theirs.
ALLOWED = {
    "stabilizer.gf2_in_span": "deleted in f6d4af2; its calls metric "
                              "reads 0 until the benchmark drops it",
}


def _resolves(name: str) -> bool:
    """Whether layer.attr[.attr] names an attribute of qorigami.layer."""
    layer, *attrs = name.split(".")
    target = importlib.import_module(f"qorigami.{layer}")
    for attr in attrs:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def test_per_layer_metrics_name_existing_functions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {metric["name"] for metric in doc["per_layer"]}
    assert DERIVED <= metrics
    named = {metric.rsplit(".", 1)[0] for metric in metrics - DERIVED}
    missing = {name for name in named if not _resolves(name)}
    # The allowlist holds exactly the names that need it, so a deleted
    # function that comes back fails here until its entry goes.
    assert missing == set(ALLOWED)

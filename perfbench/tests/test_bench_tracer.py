"""Tracer wrapping, span bookkeeping and the benchmark's declared metrics."""
import json
import os
import random
from types import SimpleNamespace

import pytest

import tracer
import worker
import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture()
def program():
    return worker.load_program()


@pytest.fixture()
def traced(program):
    t = Tracer()
    t.install(program)
    yield t, program
    t.uninstall()


def test_install_wraps_and_uninstall_restores(program):
    origami, interferometry = program["origami"], program["interferometry"]
    before = (program["mcg"].word_to_matrix, origami.FoldGeometry.locate,
              interferometry.expm, vars(interferometry.FockSystem)["basis"])
    t = Tracer()
    t.install(program)
    assert program["mcg"].word_to_matrix is not before[0]
    assert program["cli"].main.__wrapped__ is not None
    t.uninstall()
    after = (program["mcg"].word_to_matrix, origami.FoldGeometry.locate,
             interferometry.expm, vars(interferometry.FockSystem)["basis"])
    assert after == before


def test_nested_calls_become_child_spans(traced):
    t, program = traced
    program["anyons"].rep_on_torus(
        program["anyons"].builtin_model("toric_code"), "Ra S")
    names = [span[0] for span in t.spans]
    assert names[0] == "anyons.builtin_model"
    top = names.index("anyons.rep_on_torus")
    parse = names.index("mcg.parse_word")
    assert t.spans[parse][3] == top
    assert all(span[2] >= span[1] for span in t.spans)


def test_work_counts_from_arguments(traced):
    t, program = traced
    system = program["interferometry"].FockSystem(
        sites=1, modes_per_site=2, cutoff=2, total_cap=2)
    program["interferometry"].tunneling_swap(system, 0)
    expm = [s for s in t.spans if s[0] == "interferometry.expm"]
    assert len(expm) == 2 and all(s[5] == system.dim ** 3 for s in expm)
    program["stabilizer"].gf2_rank(
        program["stabilizer"].build_toric_torus(2).generator_matrix)
    reduce_ = [s for s in t.spans if s[0] == "stabilizer.gf2_row_reduce"]
    assert reduce_[-1][5] == 8 * 16
    basis = [s for s in t.spans if s[0] == "interferometry.FockSystem.basis"]
    assert basis


def test_self_time_subtracts_children():
    t = Tracer()
    # parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6].
    t.spans.extend([["a.f", 0.0, 10.0, -1, 0, 0],
                    ["b.g", 1.0, 3.0, 0, 0, 0],
                    ["b.g", 4.0, 8.0, 0, 0, 0],
                    ["c.h", 5.0, 6.0, 2, 0, 0]])
    t.spans.append(["origami.verify_protocol", 10.0, 11.0, -1, 1, 0])
    t.spans.append(["origami.verify_protocol", 11.0, 13.0, -1, 2, 0])
    t.spans.append(["origami.fold_base_path", 11.5, 12.0, 5, 2, 0])
    summary = t.summarize()
    assert summary["a.f"]["self_s"] == 4.0
    assert summary["b.g"] == {"calls": 2, "busy_s": 6.0, "self_s": 5.0,
                              "work": 0}
    metrics = t.layer_metrics(rounds=2, jobs_per_s=1.0)
    assert metrics["origami.probe_cache_hit_ratio"]["value"] == 0.5
    assert metrics["origami.verify_protocol.calls"]["value"] == 1.0
    assert metrics["origami.fold_base_path.self_s"]["value"] == 0.25


def test_counts_repeat_between_traced_runs(program):
    q = SimpleNamespace(**program)
    fold2 = q.origami.builtin_protocol("fig2_fold2_RaS")
    q.origami.verify_protocol(fold2)  # fills the probe cache
    counts = []
    for _ in range(2):
        t = Tracer()
        t.install(program)
        try:
            workloads.run_cli(q.cli, ["stabilizer", "verify", "--lattice",
                                      "3", "--move", "reflect_diagonal",
                                      "--format", "json"])
            q.origami.verify_protocol(fold2, rng=random.Random(1))
        finally:
            t.uninstall()
        metrics = t.layer_metrics(rounds=1, jobs_per_s=1.0)
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".cells", ".dim3"))})
    assert counts[0] == counts[1]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(worker.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracer.PER_LAYER)


def test_one_job_of_each_kind_passes_its_check(program, tmp_path):
    q = SimpleNamespace(**program)
    seen = set()
    for name in ("measurement", "stabilizer_oracle", "catalog_trace"):
        workload = workloads.WORKLOADS[name](q, 7, str(tmp_path))
        cheap = [j for j in workload.warmup + workload.round_jobs
                 if j.kind != "genon"
                 and not (j.kind == "torus" and j.args[2] > 4)
                 and not (j.kind == "composed" and "fold2" not in j.label)
                 and not (j.kind == "catalog" and "fold2" not in j.label)]
        for job in cheap:
            if (job.kind, job.label) in seen:
                continue
            seen.add((job.kind, job.label))
            assert workload.check(job, workload.run(job)), job.label
    kinds = {kind for kind, _ in seen}
    assert kinds == {"identity_suite", "timing", "cswap", "parity", "twist",
                     "extract", "models", "torus", "catalog", "composed"}

"""Each check accepts a right output and counts a wrong one as failed."""
import json

import numpy as np
import pytest

import checks
import reference
import worker
from workloads import Job, Workload


def cli_output(records, code=0):
    overall = "pass" if all(r["status"] == "pass" for r in records) \
        else "fail"
    return code, json.dumps({"records": records, "overall": overall}) + "\n"


def rec(name, actual, status="pass", tolerance=0):
    return {"name": name, "status": status, "actual": actual,
            "expected": None, "tolerance": tolerance, "elapsed": None}


def as_lists(m):
    return [list(row) for row in m]


def jsonable(m):
    return [[{"re": z.real, "im": z.imag} for z in row] for row in m]


# -- catalog_trace ----------------------------------------------------------


def test_catalog_accepts_the_paper_word():
    trace = reference.word_matrix(["S"])
    assert checks.catalog("appB_8layer_S",
                          cli_output([rec("appB_8layer_S", as_lists(trace))]))


@pytest.mark.parametrize("name", ["appB_8layer_S", "appE_12layer_TRb"])
def test_catalog_rejects_transposed_trace(name):
    (a, b), (c, d) = reference.word_matrix(reference.CATALOG_WORDS[name])
    assert not checks.catalog(name, cli_output([rec(name, [[a, c],
                                                           [b, d]])]))


@pytest.mark.parametrize("name", sorted(reference.CATALOG_WORDS))
def test_catalog_rejects_sign_flipped_trace(name):
    trace = reference.word_matrix(reference.CATALOG_WORDS[name])
    flipped = [[-x for x in row] for row in trace]
    assert not checks.catalog(name, cli_output([rec(name, flipped)]))


def test_catalog_rejects_failed_reports():
    trace = as_lists(reference.word_matrix(["C"]))
    assert not checks.catalog("appD_4layer_C", cli_output(
        [rec("appD_4layer_C", trace, status="fail")], code=1))
    assert not checks.catalog("appD_4layer_C", (2, ""))
    assert not checks.catalog("appD_4layer_C", cli_output(
        [rec("appD_bilayer_C", trace)]))


def composed_report(trace):
    return {"skipped": False, "transversal": True, "closed": True,
            "match": True, "trace": trace}


def test_composed_accepts_product_of_parts():
    parts = ("appE_12layer_TRb", "appE_12layer_RbS")
    traces = {p: reference.word_matrix(reference.CATALOG_WORDS[p])
              for p in parts}
    trace = reference.matmul2(traces[parts[0]], traces[parts[1]])
    assert checks.composed(parts, traces, composed_report(trace))


def test_composed_rejects_wrong_order_sign_or_parts():
    parts = ("appE_12layer_TRb", "appE_12layer_RbS")
    traces = {p: reference.word_matrix(reference.CATALOG_WORDS[p])
              for p in parts}
    reversed_order = reference.matmul2(traces[parts[1]], traces[parts[0]])
    assert not checks.composed(parts, traces,
                               composed_report(reversed_order))
    right = reference.matmul2(traces[parts[0]], traces[parts[1]])
    flipped = tuple(tuple(-x for x in row) for row in right)
    assert not checks.composed(parts, traces, composed_report(flipped))
    # Parts traced separately disagree with the paper's words.
    wrong_parts = dict(traces)
    wrong_parts[parts[0]] = reference.word_matrix(["C"])
    assert not checks.composed(parts, wrong_parts, composed_report(right))
    report = composed_report(right)
    report["closed"] = False
    assert not checks.composed(parts, traces, report)


# -- stabilizer_oracle ------------------------------------------------------


def test_symplectic_accepts_reference_clifford():
    s = reference.expected_symplectic(["S"]).tolist()
    assert checks.symplectic(("Ra", "S"), "toric_L3:reflect_diagonal",
                             cli_output([rec("toric_L3:reflect_diagonal",
                                             s)]))
    eye = np.eye(4, dtype=int).tolist()
    assert checks.symplectic((), "genon_L6:layer_swap_only",
                             cli_output([rec("genon_L6:layer_swap_only",
                                             eye)]))


def test_symplectic_rejects_wrong_matrices():
    label = "toric_L4:rotate_quarter_about_vertex"
    eye = np.eye(4, dtype=int).tolist()
    assert not checks.symplectic(("Ra", "S"), label,
                                 cli_output([rec(label, eye)]))
    # Symplectic but wrong: swaps the two logical qubits.
    swap = np.eye(4, dtype=int)[[2, 3, 0, 1]].tolist()
    assert not checks.symplectic(("Ra", "S"), label,
                                 cli_output([rec(label, swap)]))
    broken = reference.expected_symplectic(["S"]).copy()
    broken[0, 0] = 1
    assert not checks.symplectic(("Ra", "S"), label,
                                 cli_output([rec(label, broken.tolist())]))


# -- measurement ------------------------------------------------------------


def extract_output(s):
    return cli_output([rec("extracted_matrix", jsonable(s), tolerance=1e-9),
                       rec("reconstruction_defect", 0.0, tolerance=1e-9)])


@pytest.mark.parametrize("model,k", [("ising", None), ("laughlin", 9)])
def test_extract_accepts_closed_form(model, k):
    assert checks.extract(model, k,
                          extract_output(reference.s_matrix(model, k)))


@pytest.mark.parametrize("model,k", [("ising", None), ("laughlin", 9),
                                     ("fibonacci", None)])
def test_extract_rejects_perturbed_s(model, k):
    s = reference.s_matrix(model, k).copy()
    s[0, 1] += 1e-6
    assert not checks.extract(model, k, extract_output(s))
    assert not checks.extract(model, k, extract_output(-s))


def test_extract_rejects_wrong_level():
    s = reference.s_matrix("laughlin", 4)
    assert not checks.extract("laughlin", 5, extract_output(s))


def test_identity_suite_rejects_violation():
    names = sorted(checks.IDENTITY_SUITE_RECORDS)
    good = [rec(n, 1e-13, tolerance=1e-9) for n in names]
    assert checks.identity_suite(cli_output(good))
    bad = [rec(n, 1e-13, tolerance=1e-9) for n in names]
    bad[0]["actual"] = 1e-3
    assert not checks.identity_suite(cli_output(bad))
    assert not checks.identity_suite(cli_output(good[1:]))


def test_model_battery_needs_every_check():
    records = [rec(f"ising:{c}", 0.0) for c in sorted(checks.MODEL_CHECKS)]
    assert checks.model_battery(cli_output(records))
    assert not checks.model_battery(cli_output(records[1:]))
    records[0]["status"] = "fail"
    assert not checks.model_battery(cli_output(records, code=1))


def test_dense_identity_checks_reject_perturbations():
    assert checks.parity(0.25 + 0.1j, {"parity": 0.25 + 0.1j,
                                       "direct": 0.25 + 0.1j})
    assert not checks.parity(0.25 + 0.1j, {"parity": 0.25 + 0.1j + 1e-6,
                                           "direct": 0.25 + 0.1j})
    assert not checks.twist(0.5, {"fourier": 0.5, "direct": 0.5 + 1e-6})
    basis = reference.fock_basis(2, 1, 1)
    swap = reference.permutation_matrix(basis,
                                        reference.layer_swap_perm(1, 2))
    d = swap.shape[0]
    u = np.zeros((2 * d, 2 * d), dtype=complex)
    u[:d, :d], u[d:, d:] = np.eye(d), swap
    assert checks.cswap(swap, u)
    u[d:, d:] = np.eye(d)
    assert not checks.cswap(swap, u)
    assert checks.timing_exponent(3.9999)
    assert not checks.timing_exponent(2.0)


# -- accounting -------------------------------------------------------------


def test_wrong_output_counts_as_failed_job():
    trace = reference.word_matrix(["S"])
    transposed = [[trace[0][0], trace[1][0]], [trace[0][1], trace[1][1]]]
    outputs = {"good": as_lists(trace), "bad": transposed}

    def run(job):
        if job.label == "boom":
            raise RuntimeError("job error")
        return cli_output([rec("appB_8layer_S", outputs[job.label])])

    jobs = [Job("catalog", "good", ()), Job("catalog", "bad", ()),
            Job("catalog", "boom", ())]
    workload = Workload(50, jobs, [], run,
                        lambda job, out: checks.catalog("appB_8layer_S", out))
    phase = worker.timed_phase(workload, seconds=0.0)
    rounds = phase["rounds"]
    assert len(phase["latencies"]) == 3 * rounds >= worker.MIN_JOBS
    assert phase["failed"] == 2 * rounds
    assert len(phase["wrong"]) == rounds
    assert all("bad" in message for message in phase["wrong"])


def test_tail_percentile_keeps_ten_jobs_beyond():
    for pct in (50, 80, 85, 95, 97):
        n = worker.min_jobs(pct)
        values = list(range(n))
        beyond = sum(v > worker.percentile(values, pct) for v in values)
        assert n >= worker.MIN_JOBS and beyond >= worker.JOBS_BEYOND_TAIL

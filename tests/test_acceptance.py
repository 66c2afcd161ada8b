"""Acceptance gate: the pinned end-to-end checks for every module.

Each test freezes an independently derived reference value and the
tolerance it must hold at; numbered comments track the checklist items.
"""
import cmath
import json
import time

import numpy as np
import pytest

from qorigami import anyons, interferometry as itf, mcg, origami, stabilizer
from qorigami.cli import main as cli_main


def _five_models():
    return [
        anyons.builtin_model("toric_code"),
        anyons.builtin_model("laughlin", k=3),
        anyons.builtin_model("double_semion"),
        anyons.builtin_model("ising"),
        anyons.builtin_model("fibonacci"),
    ]


# 1. Extended-group relations hold with exact integer equality, fast.
def test_mcg_relations_exact_and_fast():
    start = time.monotonic()
    results = mcg.verify_group_relations()
    elapsed = time.monotonic() - start
    assert results and all(ok for _, ok in results)
    s = mcg.word_to_matrix("S")
    t = mcg.word_to_matrix("T")
    ra = mcg.word_to_matrix("Ra")
    rb = mcg.word_to_matrix("Rb")
    ident = mcg.MCGMatrix.identity()
    assert (s ** 4).entries() == ident.entries()
    assert ((s @ t) ** 3).entries() == (s @ s).entries()
    assert (ra @ ra).entries() == ident.entries()
    assert (rb @ rb).entries() == ident.entries()
    assert (ra @ rb).entries() == mcg.word_to_matrix("C").entries()
    assert elapsed < 1.0


# 2. Modular-data battery for all five models.
@pytest.mark.parametrize("model", _five_models(), ids=lambda m: m.name)
def test_modular_data_battery(model):
    s = model.s_matrix
    n = model.n
    assert np.max(np.abs(s @ s.conj().T - np.eye(n))) < 1e-10
    assert np.max(np.abs(s - s.T)) < 1e-10
    assert np.max(np.abs(s @ s - model.conj_matrix)) < 1e-10
    fusion = anyons.fusion_tensor(model, tol=1e-9)
    assert fusion.dtype.kind in "iu" or np.all(fusion == np.round(fusion))
    assert np.all(fusion >= 0)
    assert abs(abs(model.gauss_sum()) - 1.0) < 1e-10


# 3. Reference numbers.
def test_reference_numbers():
    toric = anyons.builtin_model("toric_code")
    ds = anyons.builtin_model("double_semion")
    assert abs(np.trace(toric.s_matrix) - 2.0) < 1e-12
    assert abs(np.trace(ds.s_matrix)) < 1e-12
    em = toric.index("em")
    assert abs(toric.theta[em] - (-1.0)) < 1e-12
    ising = anyons.builtin_model("ising")
    want = (1.0, cmath.exp(1j * cmath.pi / 8), -1.0)
    assert all(abs(a - b) < 1e-12 for a, b in zip(ising.theta, want))

    budget = itf.ErrorBudget(N=50, J=1.0, dt=0.005)
    reduction = 1.0 - itf.timing_error_overlap(budget)
    assert abs(reduction - 0.125) < 5e-4

    r50 = itf.readout_fidelity(itf.ErrorBudget(N=50, readout=0.99))
    r100 = itf.readout_fidelity(itf.ErrorBudget(N=100, readout=0.9993))
    assert abs(r50 - 0.605) < 5e-4
    assert abs(r100 - 0.932) < 5e-4


# 4. Full protocol catalog: transversal, closed, exact traces, < 10 s.
def test_origami_catalog_exact_and_fast():
    start = time.monotonic()
    checked = 0
    for name in origami.catalog_names():
        entry = origami.builtin_protocol(name)
        report = origami.verify_protocol(entry)
        if report.get("skipped"):
            continue
        assert report["transversal"] is True, name
        assert report["closed"] is True, name
        assert report["trace"] == report["expected"], name
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 14
    assert elapsed < 10.0


# 6. Stabilizer oracle agrees with anyon-level matrices.
def _symplectic_of_word(word: str) -> np.ndarray:
    model = anyons.builtin_model("toric_code")
    return stabilizer.symplectic_from_unitary(
        anyons.rep_on_torus(model, word))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_torus_oracle_reflection_and_rotation(L):
    start = time.monotonic()
    code = stabilizer.build_toric_torus(L)
    target = _symplectic_of_word("Ra S")
    mirror = stabilizer.geometric_permutation(code, "reflect_diagonal")
    act = stabilizer.logical_action(code, mirror)
    assert np.array_equal(act["symplectic"], target)
    rot = stabilizer.geometric_permutation(
        code, "rotate_quarter_about_vertex")
    act = stabilizer.logical_action(code, rot)
    assert np.array_equal(act["symplectic"], target)
    assert time.monotonic() - start < 30.0


def test_genon_oracle_protocols():
    start = time.monotonic()
    code = stabilizer.build_bilayer_genon_code(6)
    cases = {
        "genon_mirror_swap": _symplectic_of_word("Ra S"),
        "genon_mirror_swap_mirror": _symplectic_of_word("S"),
        "layer_swap_only": np.eye(4, dtype=np.uint8),
    }
    for protocol, target in cases.items():
        act = stabilizer.protocol_action(
            code, stabilizer.NAMED_PROTOCOLS[protocol])
        assert np.array_equal(act["symplectic"], target), protocol
    assert time.monotonic() - start < 30.0


# 7. Fold certificates agree between the microscopic and chart pictures.
def test_fold_certificates_agree():
    code = stabilizer.build_toric_torus(4)
    fmap = stabilizer.diagonal_fold_map(code)
    mirror = stabilizer.geometric_permutation(code, "reflect_diagonal")
    cert = stabilizer.folded_view(code, fmap, mirror)
    assert cert["transversal"] is True
    for site_perm in cert["per_site"].values():
        assert site_perm == {1: 2, 2: 1}

    entry = origami.builtin_protocol("fig2_fold2_RaS")
    assert origami.check_transversal(entry.steps, entry.geometry) is True
    assert entry.steps[0].perm == {1: 2, 2: 1}


# 8. Interferometric identities on seeded random states.
def test_parity_swap_identity_on_100_states():
    system = itf.FockSystem(sites=2, modes_per_site=2, cutoff=2,
                            total_cap=2)
    rng = np.random.default_rng(42)
    for _ in range(100):
        state = system.random_state(rng)
        out = itf.swap_expectation_via_parity(system, state, tol=1e-9)
        assert out["difference"] < 1e-9


@pytest.mark.parametrize("layers", [2, 3])
def test_twist_identity_on_100_states(layers):
    system = itf.FockSystem(sites=1, modes_per_site=layers, cutoff=2,
                            total_cap=2)
    rng = np.random.default_rng(7 + layers)
    for _ in range(100):
        state = system.random_state(rng)
        out = itf.twist_expectation(system, state, tol=1e-9)
        assert out["difference"] < 1e-9


def test_cswap_block_structure():
    system = itf.FockSystem(sites=2, modes_per_site=2, cutoff=2,
                            total_cap=2)
    itf.cswap(system, tol=1e-10)


def test_four_beamsplitter_observable():
    worst = itf.four_beamsplitter_check(seed=42, samples=100, tol=1e-9)
    assert worst < 1e-9


# 9. Timing-error residual scales past the quadratic estimator.
def test_timing_residual_scaling_exponent():
    exponent = itf.timing_scaling_exponent(
        j_dts=(0.02, 0.01, 0.005), sites=2)
    assert exponent >= 2.7


# 10. Matrix-element extraction round-trips.
@pytest.mark.parametrize("name,k", [
    ("double_semion", None), ("toric_code", None), ("laughlin", 3)])
def test_extraction_round_trip(name, k):
    model = anyons.builtin_model(name, k=k)
    if name == "laughlin":
        assert tuple(model.conj) != tuple(range(model.n))
    measurements = itf.synthetic_measurements(model)
    result = itf.extract_matrix_elements(measurements, model.conj,
                                         tol=1e-10)
    assert result["residual"] < 1e-10
    assert np.max(np.abs(result["s_matrix"] - model.s_matrix)) < 1e-10


# 11. CLI determinism and the exit-code contract.
def test_cli_determinism_and_exit_codes(capsys, tmp_path):
    args = ["verify", "all", "--seed", "7", "--format", "json"]
    code1 = cli_main(args)
    out1 = capsys.readouterr().out
    code2 = cli_main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode("utf-8") == out2.encode("utf-8")

    model = anyons.builtin_model("toric_code")
    doc = json.loads(model.to_json())
    doc["s_real"][0][0] = 0.9
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert cli_main(["models", "verify", str(broken)]) == 1
    capsys.readouterr()
    assert cli_main(["models", "verify", "no_such_model"]) == 2
    capsys.readouterr()

"""Command-line interface tests: statuses, exit codes, determinism."""
import io
import json
import os
import subprocess
import sys

import pytest

import qorigami
from qorigami import anyons, cli, interferometry
from qorigami.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    return code, (json.loads(out) if out else None), err


class TestModels:
    def test_list(self, capsys):
        code, report, _ = run_json(["models", "list"], capsys)
        assert code == 0
        names = [r["name"] for r in report["records"]]
        assert "toric_code" in names and "fibonacci" in names

    def test_verify_ising_passes(self, capsys):
        code, report, _ = run_json(["models", "verify", "ising"], capsys)
        assert code == 0
        assert all(r["status"] == "pass" for r in report["records"])

    def test_show_toric_trace(self, capsys):
        code, report, _ = run_json(["models", "show", "toric_code"], capsys)
        assert code == 0
        trace = next(r for r in report["records"]
                     if r["name"].endswith("trace_s"))
        assert trace["actual"]["re"] == pytest.approx(2.0)

    def test_verify_laughlin_needs_k(self, capsys):
        code, _, err = run_json(["models", "verify", "laughlin"], capsys)
        assert code == 2
        assert "k" in err

    def test_verify_bad_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_json(["models", "verify", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("shift", [0.0, 1e-6])
    def test_verify_reports_each_defect(self, shift, tmp_path, capsys):
        doc = json.loads(anyons.builtin_model("ising").to_json())
        doc["s_real"][1][2] += shift
        path = tmp_path / "ising.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(["models", "verify", str(path)], capsys)
        assert code == (1 if shift else 0)
        statuses = {r["status"] for r in report["records"]}
        assert statuses == ({"pass", "fail"} if shift else {"pass"})
        for rec in report["records"]:
            assert isinstance(rec["actual"], float), rec
            assert rec["tolerance"] == 1e-9
            assert (rec["actual"] > 1e-9) == (rec["status"] == "fail"), rec

    def test_verify_non_unitary_s_fails(self, tmp_path, capsys):
        model = anyons.builtin_model("toric_code")
        doc = json.loads(model.to_json())
        doc["s_real"][0][0] = 0.9
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(["models", "verify", str(path)], capsys)
        assert code == 1
        statuses = {r["name"].split(":")[1]: r["status"]
                    for r in report["records"]}
        assert statuses["s_unitary"] == "fail"


class TestMcg:
    def test_eval_rb_s(self, capsys):
        code, report, _ = run_json(["mcg", "eval", "Rb S"], capsys)
        assert code == 0
        matrix = next(r for r in report["records"] if r["name"] == "matrix")
        assert matrix["actual"] == [[0, 1], [1, 0]]

    def test_eval_empty_word_is_identity(self, capsys):
        code, report, _ = run_json(["mcg", "eval", ""], capsys)
        assert code == 0
        matrix = next(r for r in report["records"] if r["name"] == "matrix")
        assert matrix["actual"] == [[1, 0], [0, 1]]

    def test_eval_parse_error(self, capsys):
        code, _, err = run_json(["mcg", "eval", "Q"], capsys)
        assert code == 2

    def test_relations_all_pass(self, capsys):
        code, report, _ = run_json(["mcg", "relations"], capsys)
        assert code == 0
        assert report["records"]
        assert all(r["status"] == "pass" for r in report["records"])


class TestOrigami:
    def test_list_marks_stub(self, capsys):
        code, report, _ = run_json(["list"], capsys)
        assert code == 0
        stub = next(r for r in report["records"]
                    if r["name"] == "fig3b_16layer_S")
        assert stub["actual"] == "stub"

    def test_verify_single_entry(self, capsys):
        code, report, _ = run_json(["verify", "appB_8layer_S"], capsys)
        assert code == 0
        rec = report["records"][0]
        assert rec["status"] == "pass"
        assert rec["actual"] == [[0, 1], [-1, 0]]

    def test_verify_unknown_entry(self, capsys):
        code, _, err = run_json(["verify", "nonexistent"], capsys)
        assert code == 2

    def test_verify_stub_is_skipped_not_failed(self, capsys):
        code, report, _ = run_json(["verify", "fig3b_16layer_S"], capsys)
        assert code == 0
        assert report["records"][0]["status"] == "skipped"
        assert report["records"][0]["actual"]

    def test_verify_all_deterministic(self, capsys):
        args = ["verify", "all", "--seed", "7"]
        code1, out1, _ = run_cli(args + ["--format", "json"], capsys)
        code2, out2, _ = run_cli(args + ["--format", "json"], capsys)
        assert code1 == code2 == 0
        assert out1.encode("utf-8") == out2.encode("utf-8")
        assert out1.endswith("\n")

    def test_seed_does_not_change_verify(self, capsys):
        reports = [run_json(["verify", "all", "--seed", seed], capsys)[1]
                   for seed in ("0", "7")]
        assert reports[0]["records"] == reports[1]["records"]

    def test_format_changes_rendering_not_statuses(self, capsys):
        code_j, report, _ = run_json(["verify", "fig2_fold2_RaS"], capsys)
        code_t, out_t, _ = run_cli(
            ["verify", "fig2_fold2_RaS", "--format", "text"], capsys)
        assert code_j == code_t == 0
        assert "pass" in out_t


class TestStabilizer:
    def test_rotate_quarter_matches_oracle(self, capsys):
        code, report, _ = run_json(
            ["stabilizer", "verify", "--lattice", "2",
             "--move", "rotate_quarter"], capsys)
        assert code == 0
        assert report["records"][0]["status"] == "pass"

    def test_lattice_one_is_usage_error(self, capsys):
        code, _, err = run_json(
            ["stabilizer", "verify", "--lattice", "1",
             "--move", "reflect_diagonal"], capsys)
        assert code == 2
        assert "lattice" in err

    def test_unknown_move(self, capsys):
        code, _, err = run_json(
            ["stabilizer", "verify", "--lattice", "2",
             "--move", "sideways"], capsys)
        assert code == 2

    def test_genon_protocol_alias(self, capsys):
        code, report, _ = run_json(
            ["stabilizer", "genon", "--L", "6",
             "--protocol", "fig3a_i_ii"], capsys)
        assert code == 0
        assert report["records"][0]["status"] == "pass"

    @pytest.mark.parametrize("argv", [
        ["stabilizer", "verify", "--lattice", "3"],
        ["stabilizer", "genon", "--L", "6",
         "--protocol", "genon_mirror_swap_mirror"],
    ])
    def test_expected_action_is_not_rebuilt_per_job(self, argv, capsys,
                                                     monkeypatch):
        first = run_json(argv, capsys)

        def rebuilt(*args, **kwargs):
            raise AssertionError("expected action rebuilt for a job")

        monkeypatch.setattr(anyons, "rep_on_torus", rebuilt)
        assert run_json(argv, capsys) == first
        assert first[0] == 0

    def test_config_cap_override(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "caps.json"
        cfg.write_text(json.dumps({"stabilizer_max_lattice": 2}))
        monkeypatch.setenv("ORIGAMI_SIM_CONFIG", str(cfg))
        code, _, err = run_json(
            ["stabilizer", "verify", "--lattice", "3",
             "--move", "reflect_diagonal"], capsys)
        assert code == 2

    def test_bad_config_is_usage_error(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "caps.json"
        cfg.write_text(json.dumps({"unknown_cap": 5}))
        monkeypatch.setenv("ORIGAMI_SIM_CONFIG", str(cfg))
        code, _, err = run_json(
            ["stabilizer", "verify", "--lattice", "2",
             "--move", "reflect_diagonal"], capsys)
        assert code == 2

    @pytest.mark.parametrize("doc", [{"max_dim": "x"},
                                     {"stabilizer_max_lattice": 4.5},
                                     [["max_dim", 64]]])
    def test_malformed_config_is_usage_error(self, doc, tmp_path, capsys,
                                             monkeypatch):
        cfg = tmp_path / "caps.json"
        cfg.write_text(json.dumps(doc))
        monkeypatch.setenv("ORIGAMI_SIM_CONFIG", str(cfg))
        code, out, err = run_json(
            ["stabilizer", "verify", "--lattice", "2",
             "--move", "reflect_diagonal"], capsys)
        assert code == 2 and out is None
        assert "config" in json.loads(err)["error"]

    def test_caps_read_once_per_job_and_on_every_job(self, tmp_path, capsys,
                                                     monkeypatch):
        calls = []
        load = cli.load_caps
        monkeypatch.setattr(cli, "load_caps",
                            lambda: calls.append(1) or load())
        argv = ["stabilizer", "verify", "--lattice", "3",
                "--move", "reflect_diagonal"]
        assert run_json(argv, capsys)[0] == 0
        assert len(calls) == 1
        cfg = tmp_path / "caps.json"
        cfg.write_text(json.dumps({"stabilizer_max_lattice": 2}))
        monkeypatch.setenv("ORIGAMI_SIM_CONFIG", str(cfg))
        assert run_json(argv, capsys)[0] == 2
        assert len(calls) == 2


class TestMeasure:
    def test_identity_suite(self, capsys):
        code, report, _ = run_json(
            ["measure", "identity-suite", "--seed", "3"], capsys)
        assert code == 0
        names = {r["name"] for r in report["records"]}
        assert {"parity_swap_identity", "twist_identity_N2",
                "twist_identity_N3", "cswap_blocks",
                "four_beamsplitter"} <= names

    def test_violated_identity_is_a_fail_record(self, capsys):
        code, report, err = run_json(
            ["measure", "identity-suite", "--seed", "4", "--tolerance", "0"],
            capsys)
        assert code == 1 and err == ""
        assert report["overall"] == "fail"
        by_name = {r["name"]: r for r in report["records"]}
        for name in ("parity_swap_identity", "twist_identity_N2",
                     "twist_identity_N3", "four_beamsplitter"):
            rec = by_name[name]
            assert rec["status"] == "fail" and rec["tolerance"] == 0.0
            assert 0.0 < rec["actual"] < 1e-13
        # cswap keeps its own fixed tolerance.
        assert by_name["cswap_blocks"]["status"] == "pass"

    def test_violated_cswap_blocks_is_a_fail_record(self, monkeypatch,
                                                    capsys):
        cswap = interferometry.cswap
        monkeypatch.setattr(interferometry, "cswap",
                            lambda sys, tol: cswap(sys, tol=-1.0))
        code, report, err = run_json(["measure", "identity-suite"], capsys)
        assert code == 1 and err == ""
        assert report["overall"] == "fail"
        rec = {r["name"]: r for r in report["records"]}["cswap_blocks"]
        assert rec["status"] == "fail"
        assert rec["actual"].startswith(
            "ancilla-0 block is not the identity (defect ")

    def test_identity_suite_over_dimension_cap_is_usage_error(self, capsys):
        code, out, err = run_json(
            ["measure", "identity-suite", "--max-dim", "5"], capsys)
        assert code == 2 and out is None
        assert "exceeds the cap 5" in json.loads(err)["error"]

    def test_estimate_readout(self, tmp_path, capsys):
        path = tmp_path / "budget.json"
        path.write_text(json.dumps({"N": 50, "readout": 0.99}))
        code, report, _ = run_json(
            ["measure", "estimate", str(path)], capsys)
        assert code == 0
        readout = next(r for r in report["records"]
                       if r["name"] == "readout_fidelity")
        assert readout["actual"] == pytest.approx(0.605, abs=5e-4)

    def test_estimate_unknown_field(self, tmp_path, capsys):
        path = tmp_path / "budget.json"
        path.write_text(json.dumps({"N": 2, "bogus": 1}))
        code, _, err = run_json(["measure", "estimate", str(path)], capsys)
        assert code == 2

    def test_extract_round_trip(self, tmp_path, capsys):
        model = anyons.builtin_model("double_semion")
        meas = interferometry.synthetic_measurements(model)
        records = [interferometry.MeasurementRecord(k, v).to_dict()
                   for k, v in meas.items()]
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"model": "double_semion",
                                    "records": records}))
        code, report, _ = run_json(
            ["measure", "extract", str(path)], capsys)
        assert code == 0
        assert all(r["status"] == "pass" for r in report["records"])

    def test_extract_missing_rows(self, tmp_path, capsys):
        model = anyons.builtin_model("double_semion")
        meas = interferometry.synthetic_measurements(model)
        meas.pop("imag:0,1")
        records = [interferometry.MeasurementRecord(k, v).to_dict()
                   for k, v in meas.items()]
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"model": "double_semion",
                                    "records": records}))
        code, _, err = run_json(["measure", "extract", str(path)], capsys)
        assert code == 2
        assert "missing" in err

    @pytest.mark.parametrize("field", ["re", "im"])
    def test_extract_record_without_value_is_usage_error(
            self, field, tmp_path, capsys):
        model = anyons.builtin_model("toric_code")
        meas = interferometry.synthetic_measurements(model)
        records = [interferometry.MeasurementRecord(k, v).to_dict()
                   for k, v in meas.items()]
        del records[0][field]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"model": "toric_code",
                                    "records": records}))
        code, out, err = run_json(["measure", "extract", str(path)], capsys)
        assert code == 2 and out is None
        assert field in json.loads(err)["error"]

    def test_missing_input_file(self, capsys):
        code, _, err = run_json(
            ["measure", "extract", "/nonexistent/input.json"], capsys)
        assert code == 2


class TestReportShape:
    def test_json_report_has_stable_key_order(self, capsys):
        code, out, _ = run_cli(["mcg", "relations", "--format", "json"],
                               capsys)
        doc = json.loads(out)
        assert list(doc) == sorted(doc)
        for rec in doc["records"]:
            assert list(rec) == sorted(rec)

    def test_exit_one_iff_any_fail(self, tmp_path, capsys):
        model = anyons.builtin_model("toric_code")
        doc = json.loads(model.to_json())
        doc["s_real"][0][0] = 0.9
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(["models", "verify", str(path)], capsys)
        assert code == 1
        assert report["overall"] == "fail"


_TORIC_DOC = json.loads(anyons.builtin_model("toric_code").to_json())
_BAD_MODELS = [({**_TORIC_DOC, "dims": ["a"] * 4}, "'dims'", "str-dims"),
               ({**_TORIC_DOC, "theta_real": ["a"] * 4}, "'theta_real'",
                "str-theta"),
               ([_TORIC_DOC], "JSON object", "list")]


@pytest.mark.parametrize("argv, doc, message", [
    pytest.param(["measure", "estimate"], [1, 2], "JSON object",
                 id="estimate-list"),
    pytest.param(["measure", "estimate"], "ab", "JSON object",
                 id="estimate-string"),
    pytest.param(["measure", "extract"], "ab", "JSON object",
                 id="extract-string"),
    pytest.param(["measure", "extract"], {"model": 5, "records": []},
                 "'model'", id="extract-int-model"),
    pytest.param(["measure", "extract"],
                 {"model": "laughlin", "k": "x", "records": []}, "'k'",
                 id="extract-str-k"),
    *[pytest.param(["models", action], doc, message, id=f"{action}-{name}")
      for action in ("verify", "show") for doc, message, name in _BAD_MODELS],
])
def test_malformed_input_document_is_usage_error(argv, doc, message,
                                                 tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_json(argv + [str(path)], capsys)
    assert code == 2 and out is None
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("argv, doc", [
    pytest.param(["models", "verify", "laughlin", "--k", "1000000"], None,
                 id="models"),
    pytest.param(["measure", "extract"],
                 {"model": "laughlin", "k": 10 ** 6, "records": []},
                 id="extract"),
    pytest.param(["models", "verify", "laughlin", "--k", "65"], None,
                 id="above-default"),
    pytest.param(["models", "show", "laughlin", "--k", "5", "--max-dim",
                  "24"], None, id="above-max_dim"),
    pytest.param(["models", "show", "laughlin", "--k", "2", "--max-dim",
                  "-100"], None, id="negative-max_dim"),
])
def test_laughlin_level_is_capped_before_the_model_is_built(
        argv, doc, tmp_path, capsys):
    if doc is not None:
        path = tmp_path / "extract.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    code, out, err = run_json(argv, capsys)
    assert code == 2 and out is None
    assert "max_dim" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    pytest.param(["models", "verify"], id="models-verify"),
    pytest.param(["models", "show"], id="models-show"),
    pytest.param(["measure", "extract"], id="measure-extract")])
@pytest.mark.parametrize("k, max_dim", [(65, None), (65, 8), (3, 8)])
def test_model_file_anyon_count_is_capped_before_any_check(
        argv, k, max_dim, tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(anyons, "verify_modular_data", unreachable)
    monkeypatch.setattr(interferometry, "extract_matrix_elements",
                        unreachable)
    path = tmp_path / "model.json"
    path.write_text(anyons.builtin_model("laughlin", k).to_json())
    target = str(path)
    if argv[0] == "measure":
        target = tmp_path / "extract.json"
        target.write_text(json.dumps({"model": str(path), "records": []}))
    argv = argv + [str(target)]
    if max_dim is not None:
        argv += ["--max-dim", str(max_dim)]
    code, out, err = run_json(argv, capsys)
    assert code == 2 and out is None
    cap = (4096 if max_dim is None else max_dim) ** 2
    assert json.loads(err)["error"] == (
        f"model file {path} anyon count n = {k} exceeds the max_dim cap: "
        f"n^4 must be at most max_dim^2 = {cap}")


@pytest.mark.parametrize("argv", [
    pytest.param(["models", "verify", "laughlin", "--k", "64"],
                 id="default"),
    pytest.param(["models", "show", "laughlin", "--k", "5", "--max-dim",
                  "25"], id="max_dim"),
])
def test_laughlin_level_at_the_cap_is_built(argv, capsys):
    # 64^4 = 4096^2 and 5^4 = 25^2: the cap admits both.
    code, report, _ = run_json(argv, capsys)
    assert code == 0
    assert report["overall"] == "pass"


@pytest.mark.parametrize("text, message", [
    pytest.param('{"N": 1e400}', "finite", id="1e400"),
    pytest.param('{"dt": NaN}', "finite", id="NaN"),
    pytest.param('{"J": Infinity, "dt": 0.1}', "finite", id="Infinity"),
    pytest.param('{"distance": -Infinity}', "finite", id="-Infinity"),
    pytest.param('{"N": 1' + "0" * 400 + "}", "too large", id="10**400"),
])
def test_non_finite_budget_is_usage_error(text, message, tmp_path, capsys):
    path = tmp_path / "budget.json"
    path.write_text(text)
    code, out, err = run_json(["measure", "estimate", str(path)], capsys)
    assert code == 2 and out is None
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["mcg", "eval", "S T"],
    ["mcg", "eval", "Q"],
    ["verify", "fig2_fold2_RaS", "--format", "json"],
    ["models", "bogus"],
    ["list", "--help"],
    [],
])
def test_parser_is_built_once_and_reused(argv, capsys):
    assert cli.build_parser() is cli.build_parser()
    first = run_cli(argv, capsys)
    assert run_cli(argv, capsys) == first


def _source_env():
    """The environment with this checkout's package first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qorigami.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point_runs_main():
    proc = subprocess.run(
        [sys.executable, "-m", "qorigami.cli", "list", "--format", "json"],
        capture_output=True, text=True, env=_source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert json.loads(proc.stdout)["overall"] == "pass"


def _extract_input(tmp_path, model="toric_code"):
    meas = interferometry.synthetic_measurements(anyons.builtin_model(model))
    path = tmp_path / "extract.json"
    path.write_text(json.dumps({"model": model, "records": [
        interferometry.MeasurementRecord(k, v).to_dict()
        for k, v in meas.items()]}))
    return str(path)


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import qorigami
from qorigami.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + ["--format", "json"])
             for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""


def test_no_command_loads_scipy(tmp_path):
    budget = tmp_path / "budget.json"
    budget.write_text(json.dumps({"N": 2, "dt": 0.01}))
    jobs = [["verify", "all"], ["models", "verify", "ising"],
            ["mcg", "eval", "Rb S"],
            ["stabilizer", "verify", "--lattice", "3"],
            ["stabilizer", "genon", "--L", "6"],
            ["measure", "identity-suite"],
            ["measure", "extract", _extract_input(tmp_path)],
            ["measure", "estimate", str(budget)]]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(jobs)],
        capture_output=True, text=True, env=_source_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * len(jobs),
                                       "scipy": []}


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1",
                                       "-1e-300"])
@pytest.mark.parametrize("argv", [
    pytest.param(["models", "verify", "ising"], id="models-verify"),
    pytest.param(["measure", "identity-suite"], id="identity-suite"),
    pytest.param(["measure", "extract"], id="extract"),
])
def test_bad_tolerance_is_usage_error(argv, tolerance, tmp_path, capsys):
    if argv[-1] == "extract":
        argv = argv + [_extract_input(tmp_path)]
    code, out, err = run_json(argv + [f"--tolerance={tolerance}"], capsys)
    assert code == 2 and out is None
    assert "tolerance" in json.loads(err)["error"]


@pytest.mark.parametrize("cap", [15, 30, 44])
def test_identity_suite_caps_every_system_before_any_check(
        cap, monkeypatch, capsys):
    def check_ran(*args, **kwargs):
        raise AssertionError("a check ran before every cap was checked")

    monkeypatch.setattr(interferometry, "swap_expectation_via_parity",
                        check_ran)
    code, out, err = run_json(
        ["measure", "identity-suite", "--max-dim", str(cap)], capsys)
    assert code == 2 and out is None
    assert f"dimension 45 exceeds the cap {cap}" in json.loads(err)["error"]


def test_identity_suite_at_the_largest_dimension_passes(capsys):
    code, report, _ = run_json(
        ["measure", "identity-suite", "--max-dim", "45"], capsys)
    assert code == 0 and report["overall"] == "pass"


@pytest.mark.parametrize("doc, key", [
    pytest.param({"N": 2.5}, "'N'", id="N-float"),
    pytest.param({"N": 2.0}, "'N'", id="N-integral-float"),
    pytest.param({"N": True}, "'N'", id="N-true"),
    pytest.param({"N": 2, "distance": 3.5}, "'distance'", id="distance-float"),
    pytest.param({"distance": False}, "'distance'", id="distance-false"),
])
def test_estimate_non_integer_count_is_usage_error(doc, key, tmp_path,
                                                   capsys):
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_json(["measure", "estimate", str(path)], capsys)
    assert code == 2 and out is None
    assert key in json.loads(err)["error"]


@pytest.mark.parametrize("doc", [{"N": 3, "distance": 5},
                                 {"N": 3, "distance": None}])
def test_estimate_integer_counts_are_accepted(doc, tmp_path, capsys):
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(["measure", "estimate", str(path)], capsys)
    assert code == 0 and report["overall"] == "pass"


@pytest.mark.parametrize("head, operand, options", [
    pytest.param(("models", "verify"), "laughlin", ["--k", "5"], id="models"),
    pytest.param(("mcg", "eval"), "S T", ["--seed", "3"], id="mcg"),
    pytest.param(("measure", "estimate"), None, ["--tolerance", "1e-6"],
                 id="measure"),
])
def test_options_may_stand_before_or_after_the_operand(
        head, operand, options, tmp_path, capsys):
    if operand is None:
        path = tmp_path / "budget.json"
        path.write_text(json.dumps({"N": 50, "readout": 0.99}))
        operand = str(path)
    command, action = head
    orders = ([command, action, operand, *options],
              [command, action, *options, operand],
              [command, *options, action, operand])
    records = []
    for argv in orders:
        code, report, err = run_json(list(argv), capsys)
        assert code == 0, err
        assert report["command"] == " ".join([*argv, "--format", "json"])
        records.append(report["records"])
    assert records[0] == records[1] == records[2]


@pytest.mark.parametrize("argv", [
    ["models", "verify", "--k", "5", "laughlin", "ising"],
    ["models", "verify", "--k", "5", "--bogus", "laughlin"],
    ["mcg", "eval", "--seed", "1", "S", "T"],
    ["measure", "extract", "--seed", "1", "a.json", "b.json"],
    ["verify", "all", "extra"],
])
def test_left_over_arguments_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err

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


def test_module_entry_point_runs_main():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qorigami.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "qorigami.cli", "list", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert json.loads(proc.stdout)["overall"] == "pass"

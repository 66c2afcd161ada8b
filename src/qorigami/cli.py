"""Batch command-line front end.

Runs catalog verifications, model checks, stabilizer oracle comparisons,
and measurement pipelines, emitting deterministic machine-readable
reports.  Exit codes: 0 all checks pass, 1 at least one check failed,
2 usage or input error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, anyons, interferometry, mcg, origami, stabilizer


class CliError(ValueError):
    """Usage or input error: maps to exit code 2."""


DEFAULT_CAPS = {"stabilizer_max_lattice": 8, "max_dim": 4096}

MOVE_ALIASES = {
    "rotate_quarter": "rotate_quarter_about_vertex",
}

PROTOCOL_ALIASES = {
    "fig3a_i_ii": "genon_mirror_swap",
    "fig3a_i_iii": "genon_mirror_swap_mirror",
}

TORUS_MOVE_WORDS = {
    "reflect_diagonal": "Ra S",
    "reflect_vertical": "",
    "rotate_quarter_about_vertex": "Ra S",
    "rotate_quarter_about_plaquette": "Ra S",
}

GENON_PROTOCOL_WORDS = {
    "genon_mirror_swap": "Ra S",
    "genon_mirror_swap_mirror": "S",
    "layer_swap_only": "",
}


def load_caps() -> dict:
    caps = dict(DEFAULT_CAPS)
    path = os.environ.get("ORIGAMI_SIM_CONFIG")
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise CliError(f"cannot read config {path}: {err}") from err
        if not isinstance(overrides, dict):
            raise CliError(f"config {path} must be a JSON object")
        for key, value in overrides.items():
            if key not in caps:
                raise CliError(f"unknown config key {key!r}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise CliError(
                    f"config value for {key!r} must be an integer, "
                    f"got {value!r}")
            caps[key] = value
    return caps


def jsonable(value):
    if isinstance(value, complex):
        return {"im": value.imag, "re": value.real}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def record(name, status, expected=None, actual=None, tolerance=None):
    return {
        "name": name,
        "status": status,
        "expected": jsonable(expected),
        "actual": jsonable(actual),
        "tolerance": tolerance,
        "elapsed": None,
    }


# -- command handlers -----------------------------------------------------


def cmd_models(args, caps) -> list:
    records = []
    if args.action == "list":
        for name in anyons.MODEL_NAMES:
            needs_k = " (needs --k)" if name == "laughlin" else ""
            records.append(record(name, "pass", actual=f"available{needs_k}"))
        return records
    model = _load_model(args.target, args.k, args.max_dim)
    if args.action == "show":
        trace_s = complex(np.trace(model.s_matrix))
        records.append(record(f"{model.name}:labels", "pass",
                              actual=list(model.labels)))
        records.append(record(f"{model.name}:dims", "pass",
                              actual=list(model.dims)))
        records.append(record(f"{model.name}:trace_s", "pass",
                              actual=trace_s))
        records.append(record(f"{model.name}:gauss_sum", "pass",
                              actual=model.gauss_sum()))
        return records
    report = anyons.verify_modular_data(model, tol=args.tolerance)
    for check, ok in sorted(report["checks"].items()):
        records.append(record(f"{model.name}:{check}",
                              "pass" if ok else "fail",
                              actual=report["defects"][check],
                              tolerance=args.tolerance))
    return records


def _load_model(target: str, k: int | None,
                max_dim: int) -> anyons.ModularData:
    if target.endswith(".json") or os.path.sep in target:
        try:
            with open(target, encoding="utf-8") as fh:
                model = anyons.ModularData.from_json(fh.read())
        except OSError as err:
            raise CliError(f"cannot read model file {target}: {err}") from err
        except (json.JSONDecodeError, anyons.AnyonError) as err:
            raise CliError(f"malformed model file {target}: {err}") from err
        _check_verlinde_cap(f"model file {target} anyon count n", "n",
                            model.n, max_dim)
        return model
    if target == "laughlin" and k is not None:
        _check_verlinde_cap("laughlin level k", "k", k, max_dim)
    try:
        return anyons.builtin_model(target, k=k)
    except anyons.AnyonError as err:
        raise CliError(str(err)) from err


def _check_verlinde_cap(what: str, symbol: str, n: int, max_dim: int) -> None:
    """The Verlinde sum of an n-anyon model has n^4 terms.  It may do as
    much work as one pass over the largest dense matrix the caps allow,
    max_dim^2 entries (none for a max_dim below 1)."""
    cap = max(max_dim, 0) ** 2
    if n ** 4 > cap:
        raise CliError(f"{what} = {n} exceeds the max_dim cap: "
                       f"{symbol}^4 must be at most max_dim^2 = {cap}")


def cmd_mcg(args, caps) -> list:
    if args.action == "relations":
        return [record(f"relation:{name}", "pass" if ok else "fail")
                for name, ok in mcg.verify_group_relations()]
    try:
        matrix = mcg.word_to_matrix(args.word or "")
    except mcg.MCGError as err:
        raise CliError(str(err)) from err
    return [
        record("matrix", "pass", actual=matrix.entries()),
        record("det", "pass", actual=matrix.det()),
        record("alpha_image", "pass", actual=matrix.act((1, 0))),
        record("beta_image", "pass", actual=matrix.act((0, 1))),
    ]


def cmd_origami_list(args, caps) -> list:
    records = []
    for name in origami.catalog_names():
        entry = origami.builtin_protocol(name)
        kind = "stub" if entry.is_stub else "ready"
        records.append(record(name, "pass", actual=kind))
    return records


def cmd_origami_verify(args, caps) -> list:
    if args.target == "all":
        names = origami.catalog_names()
    else:
        names = [args.target]
    records = []
    for name in names:
        try:
            entry = origami.builtin_protocol(name)
        except origami.OrigamiError as err:
            raise CliError(str(err)) from err
        report = origami.verify_protocol(entry)
        if report.get("skipped"):
            records.append(record(name, "skipped",
                                  actual=report["reason"]))
            continue
        ok = (report["transversal"] and report["closed"] and report["match"])
        records.append(record(
            name, "pass" if ok else "fail",
            expected=report["expected"], actual=report["trace"],
            tolerance=0))
    return records


def cmd_stabilizer(args, caps) -> list:
    if args.action == "verify":
        lattice = args.lattice
        if lattice is None:
            raise CliError("--lattice is required")
        if lattice < 2 or lattice > caps["stabilizer_max_lattice"]:
            raise CliError(
                f"lattice size {lattice} outside supported range "
                f"[2, {caps['stabilizer_max_lattice']}]")
        move = MOVE_ALIASES.get(args.move, args.move)
        if move not in TORUS_MOVE_WORDS:
            raise CliError(f"unknown move {args.move!r}; known: "
                           + ", ".join(sorted(TORUS_MOVE_WORDS)))
        code = stabilizer.build_toric_torus(lattice)
        perm = stabilizer.geometric_permutation(code, move)
        action = stabilizer.logical_action(code, perm)
        expected = _EXPECTED_SYMPLECTIC[TORUS_MOVE_WORDS[move]]
        ok = np.array_equal(action["symplectic"], expected)
        return [record(f"toric_L{lattice}:{move}",
                       "pass" if ok else "fail",
                       expected=expected, actual=action["symplectic"],
                       tolerance=0)]
    lattice = args.L
    if lattice is None:
        raise CliError("--L is required")
    if lattice < 6 or lattice % 2 or lattice > max(
            6, caps["stabilizer_max_lattice"]):
        raise CliError(
            f"genon lattice size must be even and within "
            f"[6, {max(6, caps['stabilizer_max_lattice'])}], got {lattice}")
    protocol = PROTOCOL_ALIASES.get(args.protocol, args.protocol)
    if protocol not in stabilizer.NAMED_PROTOCOLS:
        raise CliError(f"unknown protocol {args.protocol!r}; known: "
                       + ", ".join(sorted(stabilizer.NAMED_PROTOCOLS)))
    code = stabilizer.build_bilayer_genon_code(lattice)
    action = stabilizer.protocol_action(
        code, stabilizer.NAMED_PROTOCOLS[protocol])
    expected = _EXPECTED_SYMPLECTIC[GENON_PROTOCOL_WORDS[protocol]]
    ok = np.array_equal(action["symplectic"], expected)
    return [record(f"genon_L{lattice}:{protocol}",
                   "pass" if ok else "fail",
                   expected=expected, actual=action["symplectic"],
                   tolerance=0)]


def _expected_symplectic(word: str) -> np.ndarray:
    if not word:
        expected = np.eye(4, dtype=np.uint8)
    else:
        model = anyons.builtin_model("toric_code")
        expected = stabilizer.symplectic_from_unitary(
            anyons.rep_on_torus(model, word))
    expected.flags.writeable = False
    return expected


# Expected symplectic action of each move and protocol word, shared
# read-only.  Built at import rather than cached on first use, so that every
# job, the first included, does the same work.
_EXPECTED_SYMPLECTIC = {
    word: _expected_symplectic(word)
    for word in {*TORUS_MOVE_WORDS.values(), *GENON_PROTOCOL_WORDS.values()}}


def cmd_measure(args, caps) -> list:
    if args.action == "identity-suite":
        return _identity_suite(args.seed, args.tolerance, args.max_dim)
    if args.action == "estimate":
        return _estimate(args.path)
    return _extract(args.path, args.tolerance, args.max_dim)


def _identity_suite(seed: int, tol: float, max_dim: int) -> list:
    rng = np.random.default_rng(seed)
    records = []

    try:
        system = interferometry.FockSystem(
            sites=2, modes_per_site=2, cutoff=2, total_cap=2,
            max_dim=max_dim)
        twist_systems = {layers: interferometry.FockSystem(
            sites=1, modes_per_site=layers, cutoff=2, total_cap=2,
            max_dim=max_dim) for layers in (2, 3)}
        beamsplitter_system = interferometry.four_beamsplitter_system(max_dim)
    except interferometry.InterferometryError as err:
        raise CliError(str(err)) from err
    # Each check runs with an infinite tolerance so that a violated
    # identity becomes a "fail" record with its defect, not an exception.
    worst = max(interferometry.swap_expectation_via_parity(
        system, system.random_state(rng), tol=math.inf)["difference"]
        for _ in range(20))
    records.append(_defect_record("parity_swap_identity", worst, tol))

    for layers, twist_sys in twist_systems.items():
        worst = max(interferometry.twist_expectation(
            twist_sys, twist_sys.random_state(rng), tol=math.inf)["difference"]
            for _ in range(10))
        records.append(_defect_record(f"twist_identity_N{layers}", worst, tol))

    try:
        interferometry.cswap(system, tol=1e-10)
        records.append(record("cswap_blocks", "pass", tolerance=1e-10))
    except interferometry.InterferometryError as err:
        records.append(record("cswap_blocks", "fail", actual=str(err),
                              tolerance=1e-10))

    worst = interferometry.four_beamsplitter_check(
        seed=seed, tol=math.inf, system=beamsplitter_system)
    records.append(_defect_record("four_beamsplitter", worst, tol))
    return records


def _defect_record(name: str, worst: float, tol: float) -> dict:
    return record(name, "pass" if worst <= tol else "fail", actual=worst,
                  tolerance=tol)


def _estimate(path: str) -> list:
    doc = _read_json(path)
    known = {"N", "J", "dt", "gap", "temperature", "readout", "distance"}
    bad = set(doc) - known
    if bad:
        raise CliError(f"unknown budget fields: {', '.join(sorted(bad))}")
    try:
        budget = interferometry.ErrorBudget(**doc)
    except (TypeError, OverflowError,
            interferometry.InterferometryError) as err:
        raise CliError(f"invalid budget: {err}") from err
    for key in ("N", "distance"):
        if doc.get(key) is not None and type(doc[key]) is not int:
            raise CliError(f"budget field {key!r} must be an integer")
    records = [
        record("readout_fidelity", "pass",
               actual=interferometry.readout_fidelity(budget)),
        record("timing_overlap", "pass",
               actual=interferometry.timing_error_overlap(budget)),
        record("thermal_fidelity", "pass",
               actual=interferometry.thermal_fidelity(budget)),
    ]
    for warning in interferometry.validity_warnings(budget):
        records.append(record("validity", "warn", actual=warning))
    return records


def _extract(path: str, tol: float, max_dim: int) -> list:
    doc = _read_json(path)
    if "model" not in doc or "records" not in doc:
        raise CliError("extraction input needs 'model' and 'records' keys")
    if not isinstance(doc["model"], str):
        raise CliError("'model' must be a model name or file path")
    if doc.get("k") is not None and type(doc["k"]) is not int:
        raise CliError("'k' must be an integer")
    model = _load_model(doc["model"], doc.get("k"), max_dim)
    try:
        measured = interferometry.records_from_docs(doc["records"])
        result = interferometry.extract_matrix_elements(
            {r.name: r.value for r in measured}, model.conj, tol=tol)
    except interferometry.InterferometryError as err:
        raise CliError(str(err)) from err
    defect = float(np.max(np.abs(result["s_matrix"] - model.s_matrix)))
    return [record("extracted_matrix", "pass" if defect <= tol else "fail",
                   expected=model.s_matrix, actual=result["s_matrix"],
                   tolerance=tol),
            record("reconstruction_defect", "pass", actual=defect,
                   tolerance=tol)]


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise CliError(f"malformed JSON in {path}: {err}") from err
    if not isinstance(doc, dict):
        raise CliError(f"{path} must hold a JSON object")
    return doc


# -- report assembly ------------------------------------------------------


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True) + "\n"
    lines = [f"qorigami {report['version']}: {report['command']}"]
    for rec in report["records"]:
        line = f"  [{rec['status']:7s}] {rec['name']}"
        if rec["actual"] is not None:
            line += f"  actual={rec['actual']}"
        lines.append(line)
    lines.append(f"overall: {report['overall']} "
                 f"({report['elapsed']:.2f}s)")
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="origami",
        description="Verification toolbox for folded-layer protocols")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tolerance", type=float, default=1e-9)
    common.add_argument("--max-dim", dest="max_dim", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", parents=[common])
    p.add_argument("action", choices=("list", "show", "verify"))
    p.add_argument("target", nargs="?")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(handler=cmd_models)

    p = sub.add_parser("mcg", parents=[common])
    p.add_argument("action", choices=("eval", "relations"))
    p.add_argument("word", nargs="?", default="")
    p.set_defaults(handler=cmd_mcg)

    p = sub.add_parser("list", parents=[common])
    p.set_defaults(handler=cmd_origami_list)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("target")
    p.set_defaults(handler=cmd_origami_verify)

    p = sub.add_parser("stabilizer", parents=[common])
    p.add_argument("action", choices=("verify", "genon"))
    p.add_argument("--lattice", type=int, default=None)
    p.add_argument("--move", default="reflect_diagonal")
    p.add_argument("--L", dest="L", type=int, default=None)
    p.add_argument("--protocol", default="genon_mirror_swap")
    p.set_defaults(handler=cmd_stabilizer)

    p = sub.add_parser("measure", parents=[common])
    p.add_argument("action", choices=("identity-suite", "estimate",
                                      "extract"))
    p.add_argument("path", nargs="?")
    p.set_defaults(handler=cmd_measure)
    return parser


# The optional positional operand of each command that has one.  argparse
# fills it, with nothing, as soon as it reads the action, so an operand
# given after an option (`models verify --k 5 laughlin`) is left over.
_OPERANDS = {"models": "target", "mcg": "word", "measure": "path"}


def _parse_args(parser: argparse.ArgumentParser, argv):
    """parser.parse_args, except that a command's operand may follow its
    options: a single left-over argument fills an empty operand."""
    args, extra = parser.parse_known_args(argv)
    operand = _OPERANDS.get(args.command)
    if (operand and not getattr(args, operand) and len(extra) == 1
            and not extra[0].startswith("-")):
        setattr(args, operand, extra.pop())
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    start = time.monotonic()
    try:
        if args.command in ("models",) and args.action != "list" \
                and not args.target:
            raise CliError(f"models {args.action} needs a target")
        if args.command == "measure" and args.action != "identity-suite" \
                and not args.path:
            raise CliError(f"measure {args.action} needs an input file")
        if not 0 <= args.tolerance < math.inf:
            raise CliError(f"tolerance {args.tolerance} is not finite >= 0")
        caps = load_caps()
        if args.max_dim is None:
            args.max_dim = caps["max_dim"]
        records = args.handler(args, caps)
    except CliError as err:
        print(json.dumps({"error": str(err)}, sort_keys=True),
              file=sys.stderr)
        return 2
    overall = "fail" if any(r["status"] == "fail" for r in records) \
        else "pass"
    report = {
        "version": __version__,
        "command": " ".join(argv if argv is not None else sys.argv[1:]),
        "records": records,
        "overall": overall,
        "elapsed": round(time.monotonic() - start, 2),
    }
    if args.format == "json":
        report["elapsed"] = None
    sys.stdout.write(render(report, args.format))
    return 0 if overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())

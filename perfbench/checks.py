"""Output checks, one per job kind.

Each check takes the job's parameters and the raw output the program gave
and returns True only when the output agrees with `reference` or has a
property the method must have.  A job whose check returns False counts as
failed.  CLI outputs arrive as (exit code, stdout text) and are parsed
here, so that a malformed report is a failed job rather than a crash.
"""
from __future__ import annotations

import json

import numpy as np

import reference

TOL = 1e-9

IDENTITY_SUITE_RECORDS = {"parity_swap_identity", "twist_identity_N2",
                          "twist_identity_N3", "cswap_blocks",
                          "four_beamsplitter"}

MODEL_CHECKS = {"s_unitary", "s_symmetric", "s_squared_is_conj",
                "first_column_dims", "fusion_integral",
                "gauss_unit_modulus", "st_cubed_relation"}


def cli_records(output):
    """Records of a passing JSON report, or None."""
    code, text = output
    if code != 0:
        return None
    try:
        report = json.loads(text)
    except ValueError:
        return None
    if report.get("overall") != "pass":
        return None
    records = report.get("records") or []
    if any(rec.get("status") != "pass" for rec in records):
        return None
    return records


def _as_int_matrix(value):
    return tuple(tuple(int(x) for x in row) for row in value)


def _as_complex_matrix(value) -> np.ndarray:
    return np.array([[complex(x["re"], x["im"]) for x in row]
                     for row in value])


def catalog(name: str, output) -> bool:
    """`origami verify <name>`: trace equals the paper's word."""
    records = cli_records(output)
    if not records or len(records) != 1 or records[0]["name"] != name:
        return False
    expected = reference.word_matrix(reference.CATALOG_WORDS[name])
    return _as_int_matrix(records[0]["actual"]) == expected


def catalog_trace(output):
    """The traced matrix of a passing `origami verify` report, or None."""
    records = cli_records(output)
    if not records:
        return None
    return _as_int_matrix(records[0]["actual"])


def composed(parts: tuple, part_traces: dict, report: dict) -> bool:
    """Composite p1*p2: trace equals the word p1 + p2 and the product of
    the two parts' separately traced matrices (p2 runs first)."""
    if report.get("skipped") or not (report.get("transversal")
                                     and report.get("closed")
                                     and report.get("match")):
        return False
    first, second = parts
    trace = _as_int_matrix(report["trace"])
    word = reference.CATALOG_WORDS[first] + reference.CATALOG_WORDS[second]
    if trace != reference.word_matrix(word):
        return False
    if first not in part_traces or second not in part_traces:
        return False
    return trace == reference.matmul2(part_traces[first],
                                      part_traces[second])


def symplectic(word, label: str, output) -> bool:
    """`stabilizer verify|genon`: action equals the reference Clifford's
    and is symplectic over GF(2)."""
    records = cli_records(output)
    if not records or len(records) != 1 or records[0]["name"] != label:
        return False
    actual = np.asarray(records[0]["actual"], dtype=np.int64)
    if actual.shape != (4, 4):
        return False
    expected = reference.expected_symplectic(word)
    return (np.array_equal(actual, expected)
            and reference.is_symplectic(actual))


def identity_suite(output) -> bool:
    """`measure identity-suite`: every identity holds within tolerance."""
    records = cli_records(output)
    if not records or {r["name"] for r in records} != IDENTITY_SUITE_RECORDS:
        return False
    for rec in records:
        actual, tol = rec["actual"], rec["tolerance"]
        if actual is not None and not abs(actual) <= tol:
            return False
    return True


def extract(model: str, k, output) -> bool:
    """`measure extract`: S equals the closed form and is unitary."""
    records = cli_records(output)
    if not records:
        return False
    by_name = {r["name"]: r for r in records}
    if "extracted_matrix" not in by_name:
        return False
    s = _as_complex_matrix(by_name["extracted_matrix"]["actual"])
    expected = reference.s_matrix(model, k)
    return (s.shape == expected.shape
            and float(np.max(np.abs(s - expected))) <= TOL
            and reference.is_unitary(s))


def model_battery(output) -> bool:
    """`models verify`: the full consistency battery passes."""
    records = cli_records(output)
    if not records:
        return False
    names = {r["name"].split(":", 1)[1] for r in records}
    return names == MODEL_CHECKS


def parity(expected: complex, out: dict) -> bool:
    """SWAP via antisymmetric-mode parity equals <SWAP> by permutation."""
    return (abs(out["parity"] - expected) <= TOL
            and abs(out["direct"] - expected) <= TOL)


def twist(expected: complex, out: dict) -> bool:
    """Fourier twist formula equals the cyclic-permutation expectation."""
    return (abs(out["fourier"] - expected) <= TOL
            and abs(out["direct"] - expected) <= TOL)


def cswap(swap: np.ndarray, u: np.ndarray) -> bool:
    """Controlled SWAP: unitary, identity block on |0>, SWAP on |1>."""
    d = swap.shape[0]
    if u.shape != (2 * d, 2 * d) or not reference.is_unitary(u):
        return False
    return (float(np.max(np.abs(u[:d, :d] - np.eye(d)))) <= TOL
            and float(np.max(np.abs(u[d:, d:] - swap))) <= TOL)


def timing_exponent(value: float) -> bool:
    """Residual of the timing estimator scales as (J dt)^4."""
    return abs(value - 4.0) <= 0.05

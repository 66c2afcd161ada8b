#!/usr/bin/env python3
"""Run the whole verification portfolio and print a one-line-per-check
summary: catalog traces, model batteries, stabilizer oracles, the
interferometric identity suite and S extraction from its preparations."""
import time

import numpy as np

from qorigami import anyons, interferometry as itf, origami, stabilizer
from qorigami.cli import GENON_PROTOCOL_WORDS, TORUS_MOVE_WORDS


def main() -> int:
    failures = 0

    print("== origami catalog ==")
    start = time.monotonic()
    for name in origami.catalog_names():
        report = origami.verify_protocol(origami.builtin_protocol(name))
        if report.get("skipped"):
            print(f"  {name:22s} skipped ({report['reason']})")
            continue
        ok = report["transversal"] and report["closed"] and report["match"]
        failures += not ok
        print(f"  {name:22s} {'ok' if ok else 'FAIL'}  trace={report['trace']}")
    print(f"  catalog time {time.monotonic() - start:.1f}s")

    print("== modular data ==")
    models = [anyons.builtin_model(name) for name in
              ("toric_code", "double_semion", "ising", "fibonacci")]
    models.append(anyons.builtin_model("laughlin", k=3))
    for model in models:
        report = anyons.verify_modular_data(model)
        ok = all(report["checks"].values())
        failures += not ok
        print(f"  {model.name:22s} {'ok' if ok else 'FAIL'}")

    print("== stabilizer oracle ==")
    toric = anyons.builtin_model("toric_code")

    def target(word):
        if not word:
            return np.eye(4, dtype=np.uint8)
        return stabilizer.symplectic_from_unitary(
            anyons.rep_on_torus(toric, word))

    torus_jobs = [(L, "reflect_diagonal") for L in (2, 3, 4)]
    torus_jobs += [(L, move) for L in (6, 8) for move in TORUS_MOVE_WORDS]
    for L, move in torus_jobs:
        code = stabilizer.build_toric_torus(L)
        perm = stabilizer.geometric_permutation(code, move)
        act = stabilizer.logical_action(code, perm)
        ok = np.array_equal(act["symplectic"],
                            target(TORUS_MOVE_WORDS[move]))
        failures += not ok
        print(f"  torus L={L} {move:30s} {'ok' if ok else 'FAIL'}")
    genon_jobs = [(6, "genon_mirror_swap"), (6, "genon_mirror_swap_mirror"),
                  (8, "genon_mirror_swap")]
    for L, protocol in genon_jobs:
        act = stabilizer.protocol_action(
            stabilizer.build_bilayer_genon_code(L),
            stabilizer.NAMED_PROTOCOLS[protocol])
        ok = np.array_equal(act["symplectic"],
                            target(GENON_PROTOCOL_WORDS[protocol]))
        failures += not ok
        print(f"  genon L={L} {protocol:26s} {'ok' if ok else 'FAIL'}")

    print("== interferometry ==")
    worst = itf.four_beamsplitter_check(seed=0, samples=50)
    print(f"  four-beamsplitter worst defect {worst:.1e}")
    exponent = itf.timing_scaling_exponent()
    print(f"  timing residual exponent {exponent:.2f}")
    failures += exponent < 2.7

    print("== S extraction ==")
    for model in models:
        try:
            out = itf.extract_matrix_elements(
                itf.synthetic_measurements(model), model.conj)
            defect = np.max(np.abs(out["s_matrix"] - model.s_matrix))
            ok = defect <= 1e-10
        except itf.InterferometryError:
            ok = False
        failures += not ok
        print(f"  {model.name:22s} {'ok' if ok else 'FAIL'}")

    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Job lists of the three workloads, and how each job is run and checked.

A job is one request a user of `origami` makes: a CLI invocation through
`cli.main`, or one library call.  A workload is built from a seed into one
round, a fixed list of jobs; a run repeats whole rounds.  The seed picks
parameters only among options of equal cost (the move of a torus job, the
pair of a composed protocol within one geometry, the Laughlin level within
a range) and the order, so every seed gives rounds of the same cost mix and
runs with different seeds stay comparable.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass

import numpy as np

import checks
import reference


@dataclass(frozen=True)
class Job:
    kind: str
    label: str
    args: tuple


@dataclass
class Workload:
    tail_percentile: int
    round_jobs: list
    warmup: list
    run: object          # Job -> raw output
    check: object        # (Job, raw output) -> bool
    post_check: object = None  # () -> list of failure messages


def run_cli(cli, argv) -> tuple:
    """Call cli.main in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 30))


# -- catalog_trace ----------------------------------------------------------

# Catalog entries grouped by the geometry they act on, with the number of
# composed jobs per round drawn from each group; composing two entries
# needs a shared geometry.  All ordered pairs within a group: 43.  The
# four-layer genon group is drawn three times so that the tail percentile
# falls inside a run of composed jobs of equal cost.
GEOMETRY_GROUPS = (
    (("appB_8layer_RaS", "appB_8layer_S"), 1),
    (("appC_hexagon_RaS", "appC_hexagon_TRb"), 1),
    (("appC_hexagon_RbS",), 1),
    (("appD_4layer_C", "appE_4layer_RaS", "appE_4layer_RbS",
      "fig3_genon4_RaS"), 3),
    (("appD_bilayer_C",), 1),
    (("appE_12layer_C", "appE_12layer_RaS", "appE_12layer_RbS",
      "appE_12layer_TRb"), 1),
    (("fig2_fold2_RaS",), 1),
)

CATALOG_REPEATS = 2


def catalog_trace(q, seed: int, workdir: str) -> Workload:
    """Warm catalog lookups by name (the median) beside composed protocols
    on fresh geometries, whose cold probe paths set the tail."""
    rng = random.Random(seed)
    ready = sorted(reference.CATALOG_WORDS)
    jobs = [Job("catalog", name, (name, _seed(rng)))
            for name in ready for _ in range(CATALOG_REPEATS)]
    for group, count in GEOMETRY_GROUPS:
        pairs = rng.sample([(a, b) for a in group for b in group], count)
        for first, second in pairs:
            text = q.origami.compose_protocols(
                q.origami.builtin_protocol(first),
                q.origami.builtin_protocol(second)).to_json()
            jobs.append(Job("composed", f"{first}*{second}",
                            (text, (first, second),
                             rng.randrange(1 << 30))))
    rng.shuffle(jobs)
    warmup = [Job("catalog", name, (name, "0")) for name in ready]
    part_traces = {}   # entry -> trace, filled by the warm-up's checks
    parsed = []

    def run(job):
        if job.kind == "catalog":
            name, job_seed = job.args
            return run_cli(q.cli, ["verify", name, "--seed", job_seed,
                                   "--format", "json"])
        text, _, job_seed = job.args
        protocol = q.origami.Protocol.from_json(text)
        # The probe caches are keyed by id(geometry); keeping every parsed
        # protocol alive stops a freed geometry's id from being reused by
        # the next one, which would serve it stale probe paths.
        parsed.append(protocol)
        return q.origami.verify_protocol(protocol,
                                         rng=random.Random(job_seed))

    def check(job, output):
        if job.kind == "catalog":
            ok = checks.catalog(job.args[0], output)
            if ok and job.args[0] not in part_traces:
                part_traces[job.args[0]] = checks.catalog_trace(output)
            return ok
        return checks.composed(job.args[1], part_traces, output)

    return Workload(85, jobs, warmup, run, check)


# -- stabilizer_oracle ------------------------------------------------------

TORUS_MOVES = ("reflect_diagonal", "reflect_vertical",
               "rotate_quarter_about_vertex",
               "rotate_quarter_about_plaquette")
# Small lattices once per move (the median); large ones with a drawn move,
# L = 6 four times so that the tail percentile falls inside a run of jobs
# of equal cost.
TORUS_SIZES_PER_MOVE = (2, 2, 3, 3, 3, 4, 5)
TORUS_SIZES_DRAWN = (6, 6, 6, 6, 7, 8)
# (L, protocols of equal cost to draw from)
GENON_SLOTS = ((6, ("genon_mirror_swap_mirror", "layer_swap_only")),
               (8, ("genon_mirror_swap",)))


def stabilizer_oracle(q, seed: int, workdir: str) -> Workload:
    """Toric-code moves on small to large tori beside bilayer genon
    protocols, whose repeated GF(2) row reductions dominate the run."""
    rng = random.Random(seed)
    jobs = []
    for move in TORUS_MOVES:
        for size in TORUS_SIZES_PER_MOVE:
            jobs.append(_torus_job(size, move, rng))
    for size in TORUS_SIZES_DRAWN:
        jobs.append(_torus_job(size, rng.choice(TORUS_MOVES), rng))
    for size, protocols in GENON_SLOTS:
        protocol = rng.choice(protocols)
        jobs.append(Job("genon", f"genon_L{size}:{protocol}",
                        (["stabilizer", "genon", "--L", str(size),
                          "--protocol", protocol, "--seed", _seed(rng),
                          "--format", "json"],
                         reference.GENON_PROTOCOL_WORDS[protocol], size)))
    rng.shuffle(jobs)
    warmup = [_torus_job(2, move, rng) for move in TORUS_MOVES]

    def run(job):
        return run_cli(q.cli, job.args[0])

    def check(job, output):
        return checks.symplectic(job.args[1], job.label, output)

    def post_check():
        """Reference GF(2) rank gives k = 2 on every code size used."""
        failures = []
        for kind, size in sorted({(job.kind, job.args[2]) for job in jobs}):
            code = (q.stabilizer.build_toric_torus(size) if kind == "torus"
                    else q.stabilizer.build_bilayer_genon_code(size))
            k = code.n - reference.gf2_rank(
                reference.pack_rows(code.generator_matrix))
            if k != 2:
                failures.append(f"{kind} L={size}: k = {k}")
        return failures

    return Workload(80, jobs, warmup, run, check,
                    post_check)


def _torus_job(size: int, move: str, rng: random.Random) -> Job:
    return Job("torus", f"toric_L{size}:{move}",
               (["stabilizer", "verify", "--lattice", str(size),
                 "--move", move, "--seed", _seed(rng), "--format", "json"],
                reference.TORUS_MOVE_WORDS[move], size))


# -- measurement ------------------------------------------------------------

FIXED_MODELS = ("toric_code", "double_semion", "ising", "fibonacci")
# Enough short jobs of seed-independent cost that the median falls among
# them whatever Laughlin levels the seed draws.
FIXED_MODEL_REPEATS = 2
LAUGHLIN_LEVELS = ((2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12),
                   (13, 14, 15, 16))
# Dense Fock systems larger than the CLI's identity suite.  The identities
# are exact only with total cap <= cutoff.
PAIR_SYSTEM = {"sites": 3, "modes_per_site": 2, "cutoff": 3, "total_cap": 3}
TWIST_LAYERS = (2, 3, 4, 5)
TWIST_CUTOFF = 3
COUNTS = {"identity_suite": 2, "timing": 1, "cswap": 2, "parity": 4}


def measurement(q, seed: int, workdir: str) -> Workload:
    """Many short modular-data and extraction jobs beside fewer heavy dense
    Fock-space checks built on expm / logm."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(COUNTS["identity_suite"]):
        jobs.append(Job("identity_suite", "identity-suite",
                        (["measure", "identity-suite", "--seed", _seed(rng),
                          "--format", "json"],)))
    for _ in range(COUNTS["timing"]):
        jobs.append(Job("timing", "timing_scaling_exponent", ()))

    pair_basis = reference.fock_basis(
        PAIR_SYSTEM["sites"] * PAIR_SYSTEM["modes_per_site"],
        PAIR_SYSTEM["cutoff"], PAIR_SYSTEM["total_cap"])
    swap_perm = reference.layer_swap_perm(PAIR_SYSTEM["sites"],
                                          PAIR_SYSTEM["modes_per_site"])
    swap = reference.permutation_matrix(pair_basis, swap_perm)
    for _ in range(COUNTS["cswap"]):
        jobs.append(Job("cswap", "cswap", (dict(PAIR_SYSTEM), swap)))
    for _ in range(COUNTS["parity"]):
        state = _random_state(np_rng, len(pair_basis))
        expected = reference.mode_permutation_expectation(
            state, pair_basis, swap_perm)
        jobs.append(Job("parity", "swap_expectation_via_parity",
                        (dict(PAIR_SYSTEM), state, expected)))
    for layers in TWIST_LAYERS:
        system = {"sites": 1, "modes_per_site": layers,
                  "cutoff": TWIST_CUTOFF, "total_cap": TWIST_CUTOFF}
        basis = reference.fock_basis(layers, TWIST_CUTOFF, TWIST_CUTOFF)
        state = _random_state(np_rng, len(basis))
        expected = reference.mode_permutation_expectation(
            state, basis, reference.cyclic_layer_perm(layers))
        jobs.append(Job("twist", f"twist_N{layers}",
                        (system, state, expected)))

    files = {}
    for kind in ("extract", "models"):
        models = [(m, None) for m in FIXED_MODELS * FIXED_MODEL_REPEATS]
        models += [("laughlin", rng.choice(levels))
                   for levels in LAUGHLIN_LEVELS]
        for model, k in models:
            label = model if k is None else f"{model}_{k}"
            if kind == "extract":
                path = files.get(label)
                if path is None:
                    path = os.path.join(workdir, f"records-{label}.json")
                    reference.write_records_file(path, model, k)
                    files[label] = path
                argv = ["measure", "extract", path, "--format", "json"]
            else:
                argv = ["models", "verify", model, "--format", "json"]
                if k is not None:
                    argv += ["--k", str(k)]
            jobs.append(Job(kind, f"{kind}:{label}", (argv, model, k)))
    rng.shuffle(jobs)

    warm_kinds = {}
    for job in jobs:
        warm_kinds.setdefault(job.kind, job)
    warmup = list(warm_kinds.values())

    def run(job):
        kind = job.kind
        if kind in ("identity_suite", "extract", "models"):
            return run_cli(q.cli, job.args[0])
        if kind == "timing":
            return q.interferometry.timing_scaling_exponent()
        if kind == "cswap":
            return q.interferometry.cswap(
                q.interferometry.FockSystem(**job.args[0]))
        system, state, _ = job.args
        if kind == "parity":
            return q.interferometry.swap_expectation_via_parity(
                q.interferometry.FockSystem(**system), state)
        return q.interferometry.twist_expectation(
            q.interferometry.FockSystem(**system), state)

    def check(job, output):
        kind = job.kind
        if kind == "identity_suite":
            return checks.identity_suite(output)
        if kind == "extract":
            return checks.extract(job.args[1], job.args[2], output)
        if kind == "models":
            return checks.model_battery(output)
        if kind == "timing":
            return checks.timing_exponent(output)
        if kind == "cswap":
            return checks.cswap(job.args[1], output)
        if kind == "parity":
            return checks.parity(job.args[2], output)
        return checks.twist(job.args[2], output)

    return Workload(97, jobs, warmup, run, check)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


WORKLOADS = {
    "catalog_trace": catalog_trace,
    "stabilizer_oracle": stabilizer_oracle,
    "measurement": measurement,
}

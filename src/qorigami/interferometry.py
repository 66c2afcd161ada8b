"""Bosonic interferometry identities on truncated Fock spaces.

Dense verification of the measurement toolbox: tunneling-pulse SWAP,
beamsplitters, SWAP-as-parity in the antisymmetric mode, twist operators
via mode Fourier transform, controlled-SWAP, the analytic error
estimators, and the closed-form read-out of a modular S matrix from its
superposition measurements.

All identities are number conserving, so they are exact on the subspace
with total occupation at most the per-mode cutoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import anyons
from ._unitary import InterferometryError, expm, logm


# -- truncated Fock systems ----------------------------------------------


@dataclass(frozen=True)
class FockSystem:
    """Dense bosonic system: `sites` x `modes_per_site` modes, occupation
    capped per mode at `cutoff` and optionally in total at `total_cap`."""

    sites: int
    modes_per_site: int
    cutoff: int = 2
    total_cap: int | None = None
    max_dim: int = 4096

    def __post_init__(self) -> None:
        if self.sites < 1 or self.modes_per_site < 1 or self.cutoff < 1:
            raise InterferometryError("sites, modes and cutoff must be >= 1")
        if self.dim > self.max_dim:
            raise InterferometryError(
                f"dimension {self.dim} exceeds the cap {self.max_dim}")

    @property
    def n_modes(self) -> int:
        return self.sites * self.modes_per_site

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return self._basis

    @cached_property
    def _basis(self) -> tuple[tuple[int, ...], ...]:
        """Occupations within both caps, in lexicographic order: each mode
        extends every prefix by the occupations its remaining budget
        allows, so no over-cap tuple is ever formed."""
        budget = (self.n_modes * self.cutoff if self.total_cap is None
                  else self.total_cap)
        prefixes = [((), budget)]
        for _ in range(self.n_modes):
            prefixes = [(occ + (k,), left - k) for occ, left in prefixes
                        for k in range(min(self.cutoff, left) + 1)]
        return tuple(occ for occ, _ in prefixes)

    @cached_property
    def dim(self) -> int:
        """Basis size in closed form, so that the cap is checked before the
        basis is enumerated.  With a total cap T, inclusion-exclusion over
        the j modes forced above the cutoff c counts the occupations of
        sum <= T: sum_j (-1)^j C(n, j) C(T - j(c + 1) + n, n)."""
        n, c, cap = self.n_modes, self.cutoff, self.total_cap
        if cap is None:
            return (c + 1) ** n
        return sum((-1) ** j * math.comb(n, j)
                   * math.comb(cap - j * (c + 1) + n, n)
                   for j in range(n + 1) if cap >= j * (c + 1))

    def index(self) -> dict:
        """Basis position of each occupation tuple; shared, do not mutate."""
        return self._index

    @cached_property
    def _index(self) -> dict:
        return {occ: i for i, occ in enumerate(self.basis)}

    @cached_property
    def _occupations(self) -> np.ndarray:
        """The basis as a read-only (dim, n_modes) integer array."""
        occ = np.array(self.basis, dtype=int).reshape(self.dim, self.n_modes)
        occ.flags.writeable = False
        return occ

    @cached_property
    def _totals(self) -> np.ndarray:
        return self._occupations.sum(axis=1)

    @cached_property
    def _sectors(self) -> tuple:
        """Total-occupation sectors, the blocks of every number-conserving
        operator (see `sector_expm`)."""
        return conserved_sectors(self._totals)

    @cached_property
    def _operators(self) -> dict:
        return {}

    def _operator(self, key, build):
        """State-independent operator `key` of this system, built once."""
        ops = self._operators
        if key not in ops:
            ops[key] = build()
        return ops[key]

    def mode(self, site: int, layer: int) -> int:
        if not (0 <= site < self.sites and 0 <= layer < self.modes_per_site):
            raise InterferometryError(f"no mode (site {site}, layer {layer})")
        return site * self.modes_per_site + layer

    def annihilation(self, m: int) -> np.ndarray:
        basis = self.basis
        idx = self.index()
        a = np.zeros((len(basis), len(basis)), dtype=complex)
        for i, occ in enumerate(basis):
            if occ[m] == 0:
                continue
            target = list(occ)
            target[m] -= 1
            j = idx.get(tuple(target))
            if j is not None:
                a[j, i] = math.sqrt(occ[m])
        return a

    def creation(self, m: int) -> np.ndarray:
        return self.annihilation(m).conj().T

    def number(self, m: int) -> np.ndarray:
        return np.diag(self._occupations[:, m].astype(complex))

    def vacuum(self) -> np.ndarray:
        state = np.zeros(self.dim, dtype=complex)
        state[self.index()[(0,) * self.n_modes]] = 1.0
        return state

    def basis_state(self, occ) -> np.ndarray:
        state = np.zeros(self.dim, dtype=complex)
        state[self.index()[tuple(occ)]] = 1.0
        return state

    def random_state(self, rng: np.random.Generator,
                     max_total: int | None = None) -> np.ndarray:
        """Normalized random state, optionally capped in total occupation."""
        amps = rng.normal(size=self.dim) + 1j * rng.normal(size=self.dim)
        if max_total is not None:
            amps[self._totals > max_total] = 0.0
        return amps / np.linalg.norm(amps)

    def occupation_projector(self, max_total: int) -> np.ndarray:
        return np.diag((self._totals <= max_total).astype(complex))


def conserved_sectors(labels: np.ndarray) -> tuple:
    """Sectors of a conserved label, one per distinct value: an `np.ix_`
    index pair for each sector's block, and the mask of matrix entries
    joining two sectors."""
    blocks = tuple(np.ix_(idx, idx) for idx in (
        np.flatnonzero(labels == value) for value in np.unique(labels)))
    return blocks, labels[:, None] != labels[None, :]


def sector_expm(gen: np.ndarray, sectors: tuple) -> np.ndarray:
    """exp(gen), one `expm` per sector block of `conserved_sectors`.

    Conservation is checked exactly: any nonzero entry of gen between two
    sectors raises, however small.  A diagonal gen needs no `expm`."""
    blocks, cross = sectors
    if gen[cross].any():
        raise InterferometryError("generator couples conserved sectors")
    diag = np.diagonal(gen)
    if np.count_nonzero(gen) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    out = np.zeros(gen.shape, dtype=complex)
    for block in blocks:
        out[block] = expm(gen[block])
    return out


def permutation_unitary(sys: FockSystem, mode_perm: dict) -> np.ndarray:
    """Unitary permuting mode occupations per the given mode mapping."""
    idx = sys.index()
    u = np.zeros((sys.dim, sys.dim), dtype=complex)
    for i, occ in enumerate(sys.basis):
        target = list(occ)
        for src, dst in mode_perm.items():
            target[dst] = occ[src]
        j = idx.get(tuple(target))
        if j is None:
            raise InterferometryError("mode permutation leaves the basis")
        u[j, i] = 1.0
    return u


def swap_unitary(sys: FockSystem, m1: int, m2: int) -> np.ndarray:
    return permutation_unitary(sys, {m1: m2, m2: m1})


# -- tunneling pulses -----------------------------------------------------


def _tunneling_generator(sys: FockSystem, m1: int, m2: int) -> np.ndarray:
    a, b = sys.annihilation(m1), sys.annihilation(m2)
    return a.conj().T @ b + b.conj().T @ a


def tunneling_swap(sys: FockSystem, site: int,
                   layers: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Half tunneling pulse plus phase correction; equals the mode SWAP."""
    m1, m2 = sys.mode(site, layers[0]), sys.mode(site, layers[1])
    h = _tunneling_generator(sys, m1, m2)
    u1 = expm(-1j * (math.pi / 2) * h)
    u2 = expm(1j * (math.pi / 2) * (sys.number(m1) + sys.number(m2)))
    u = u2 @ u1
    p = sys.occupation_projector(sys.cutoff)
    defect = np.max(np.abs(p @ (u - swap_unitary(sys, m1, m2)) @ p))
    if defect > 1e-9:
        raise InterferometryError(
            f"tunneling pulse fails to realize SWAP (defect {defect:.2e})")
    return u


def beamsplitter(sys: FockSystem, site: int,
                 layers: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Quarter tunneling pulse plus phase correction.

    Conjugation sends a1 to (a1 + a2)/sqrt(2) and a2 to (a2 - a1)/sqrt(2):
    the second output port carries the antisymmetric combination.
    """
    m1, m2 = sys.mode(site, layers[0]), sys.mode(site, layers[1])
    h = _tunneling_generator(sys, m1, m2)
    u1 = sector_expm(-1j * (math.pi / 4) * h, sys._sectors)
    phase = sector_expm(1j * (math.pi / 2) * sys.number(m2), sys._sectors)
    return phase.conj().T @ u1 @ phase


def antisymmetric_number(sys: FockSystem, site: int,
                         layers: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Number operator of the antisymmetric combination of two layers."""
    m1, m2 = sys.mode(site, layers[0]), sys.mode(site, layers[1])
    a, b = sys.annihilation(m1), sys.annihilation(m2)
    d = (a - b) / math.sqrt(2.0)
    return d.conj().T @ d


def _antisymmetric_total(sys: FockSystem) -> np.ndarray:
    """Sum over sites of the antisymmetric number of layers 0 and 1."""
    return sum(antisymmetric_number(sys, site) for site in range(sys.sites))


def _layer_swap(sys: FockSystem) -> np.ndarray:
    """SWAP of layers 0 and 1 on every site, as one mode permutation."""
    perm = {}
    for site in range(sys.sites):
        m1, m2 = sys.mode(site, 0), sys.mode(site, 1)
        perm.update({m1: m2, m2: m1})
    return permutation_unitary(sys, perm)


def swap_expectation_via_parity(sys: FockSystem, state: np.ndarray,
                                tol: float = 1e-9) -> dict:
    """SWAP expectation as antisymmetric-mode parity, with a direct check.

    The parity exp(i pi sum_j n_tilde_j) and the direct SWAP are built once
    per system and reused for every state."""
    if sys.modes_per_site < 2:
        raise InterferometryError("need two layers per site")
    state = np.asarray(state, dtype=complex)
    parity, direct = sys._operator("parity_swap", lambda: (
        sector_expm(1j * math.pi * _antisymmetric_total(sys), sys._sectors),
        _layer_swap(sys)))
    val_parity = complex(state.conj() @ parity @ state)
    val_direct = complex(state.conj() @ direct @ state)
    diff = abs(val_parity - val_direct)
    if diff > tol:
        raise InterferometryError(
            f"parity identity violated by {diff:.2e}")
    return {"parity": val_parity, "direct": val_direct, "difference": diff}


# -- twist operators ------------------------------------------------------


def _mode_transform_unitary(sys: FockSystem, single: np.ndarray,
                            modes: list[int]) -> np.ndarray:
    """Many-body unitary realizing a single-particle mode transform."""
    h = logm(single)
    gen = np.zeros((sys.dim, sys.dim), dtype=complex)
    ops = [sys.annihilation(m) for m in modes]
    for k in range(len(modes)):
        for l in range(len(modes)):
            if abs(h[k, l]) > 1e-15:
                gen += h[k, l] * ops[k].conj().T @ ops[l]
    return sector_expm(gen, sys._sectors)


def twist_expectation(sys: FockSystem, state: np.ndarray, site: int = 0,
                      tol: float = 1e-9) -> dict:
    """Twist (cyclic layer permutation) expectation, two ways.

    Direct: permutation operator on layer occupations.  Fourier: transform
    the site's layers with the unitary DFT, then evaluate the phase-weighted
    number formula prod_k exp(i 2 pi k n_k / N).  Both operators are
    built once per (system, site) and reused for every state.
    """
    n = sys.modes_per_site
    if n < 2:
        raise InterferometryError("twist needs at least two layers")
    state = np.asarray(state, dtype=complex)
    direct_op, fourier_op = sys._operator(
        ("twist", site), lambda: _twist_operators(sys, site))
    direct = complex(state.conj() @ direct_op @ state)
    fourier = complex(state.conj() @ fourier_op @ state)
    diff = abs(direct - fourier)
    if diff > tol:
        raise InterferometryError(f"twist identity violated by {diff:.2e}")
    return {"direct": direct, "fourier": fourier, "difference": diff}


def _twist_operators(sys: FockSystem,
                     site: int) -> tuple[np.ndarray, np.ndarray]:
    """(direct, Fourier) operators of the twist on one site."""
    n = sys.modes_per_site
    modes = [sys.mode(site, layer) for layer in range(n)]
    perm = {modes[k]: modes[(k + 1) % n] for k in range(n)}
    direct_op = permutation_unitary(sys, perm)
    dft = np.array([[np.exp(2j * np.pi * k * l / n) for l in range(n)]
                    for k in range(n)]) / math.sqrt(n)
    f = _mode_transform_unitary(sys, dft, modes)
    phases = sum((2j * np.pi * k / n) * sys.number(m)
                 for k, m in enumerate(modes))
    fourier_op = f.conj().T @ sector_expm(phases, sys._sectors) @ f
    return direct_op, fourier_op


# -- controlled SWAP ------------------------------------------------------


def cswap(sys: FockSystem, ancilla_dim: int = 2,
          tol: float = 1e-10) -> np.ndarray:
    """exp(-i pi n_C sum_j n_tilde_j), block I on |0>, SWAP on |1>.

    The generator conserves the pair (ancilla level, total occupation), so
    it is exponentiated one such sector at a time."""
    if ancilla_dim < 2:
        raise InterferometryError("ancilla needs at least two levels")
    d = sys.dim
    n_c = np.diag(np.arange(ancilla_dim)).astype(complex)
    labels = (np.repeat(np.arange(ancilla_dim), d)
              * (sys.n_modes * sys.cutoff + 1)
              + np.tile(sys._totals, ancilla_dim))
    u = sector_expm(-1j * math.pi * np.kron(n_c, _antisymmetric_total(sys)),
                    conserved_sectors(labels))
    defect0 = np.max(np.abs(u[:d, :d] - np.eye(d)))
    if defect0 > tol:
        raise InterferometryError(
            f"ancilla-0 block is not the identity (defect {defect0:.2e})")
    defect1 = np.max(np.abs(u[d:2 * d, d:2 * d] - _layer_swap(sys)))
    if defect1 > tol:
        raise InterferometryError(
            f"ancilla-1 block is not SWAP (defect {defect1:.2e})")
    return u


# -- error estimators -----------------------------------------------------


@dataclass(frozen=True)
class ErrorBudget:
    N: int = 1
    J: float = 1.0
    dt: float = 0.0
    gap: float = 1.0
    temperature: float = 0.0
    readout: float = 1.0
    distance: int | None = None

    def __post_init__(self) -> None:
        numbers = (self.N, self.J, self.dt, self.gap, self.temperature,
                   self.readout, 0 if self.distance is None else self.distance)
        if not all(map(math.isfinite, numbers)):
            raise InterferometryError("budget fields must be finite")
        if self.N < 1 or self.J < 0 or self.dt < 0 or self.gap < 0 \
                or self.temperature < 0:
            raise InterferometryError("physical parameters must be nonnegative")
        if not (0 < self.readout <= 1):
            raise InterferometryError("readout fidelity must be in (0, 1]")


def timing_error_overlap(budget: ErrorBudget) -> float:
    """First-order overlap 1 - 2 N^2 J^2 dt^2 for a mistimed half pulse."""
    jdt = budget.J * budget.dt
    return 1.0 - 2.0 * (budget.N ** 2) * (jdt ** 2)


def thermal_fidelity(budget: ErrorBudget) -> float:
    if budget.temperature == 0:
        return 1.0
    return 1.0 - (budget.N ** 2) * math.exp(-budget.gap / budget.temperature)


def readout_fidelity(budget: ErrorBudget) -> float:
    return budget.readout ** budget.N


def validity_warnings(budget: ErrorBudget) -> list[str]:
    warnings = []
    if budget.N * budget.J * budget.dt >= 0.5:
        warnings.append("timing expansion outside validity (N J dt >= 0.5)")
    if thermal_fidelity(budget) < 0:
        warnings.append("thermal estimate negative: regime break")
    return warnings


def timing_error_brute_force(j_dt: float, sites: int = 2) -> float:
    """Dense overlap of a mistimed SWAP on an entangled two-quanta state.

    The probe is a GHZ-type state over `sites` sites, superposing two
    symmetric quanta against two antisymmetric quanta per site.  The two
    branches pick up opposite timing phases, so the overlap with the ideal
    outcome is cos(2 N J dt) = 1 - 2 N^2 (J dt)^2 + O(dt^4).
    """
    sys = FockSystem(sites=sites, modes_per_site=2, cutoff=2,
                     total_cap=2 * sites, max_dim=8000)
    # Each branch is prod_site (a1^dag +- a2^dag)^2 |0>, normalized.
    ghz = np.zeros(sys.dim, dtype=complex)
    for sign in (+1, -1):
        branch = sys.vacuum()
        for site in range(sites):
            d_dag = (sys.creation(sys.mode(site, 0))
                     + sign * sys.creation(sys.mode(site, 1)))
            branch = d_dag @ (d_dag @ branch)
        ghz += branch / np.linalg.norm(branch)
    ghz = ghz / np.linalg.norm(ghz)

    u_err = np.eye(sys.dim, dtype=complex)
    for site in range(sites):
        m1, m2 = sys.mode(site, 0), sys.mode(site, 1)
        h = _tunneling_generator(sys, m1, m2)
        u1 = sector_expm(-1j * (math.pi / 2 + j_dt) * h, sys._sectors)
        n12 = sys.number(m1) + sys.number(m2)
        u2 = sector_expm(1j * (math.pi / 2) * n12, sys._sectors)
        u_err = u_err @ u2 @ u1
    return abs(complex(ghz.conj() @ u_err @ ghz))


def timing_scaling_exponent(j_dts=(0.02, 0.01, 0.005), sites: int = 2) -> float:
    """Fitted power of the residual between brute force and the estimator."""
    residuals = []
    for j_dt in j_dts:
        brute = timing_error_brute_force(j_dt, sites=sites)
        est = timing_error_overlap(ErrorBudget(N=sites, J=1.0, dt=j_dt))
        residuals.append(abs(brute - est))
    logs_x = np.log(np.asarray(j_dts, dtype=float))
    logs_y = np.log(np.maximum(np.asarray(residuals), 1e-300))
    slope = np.polyfit(logs_x, logs_y, 1)[0]
    return float(slope)


# -- four-beamsplitter composition ----------------------------------------


def four_beamsplitter_system(max_dim: int = 4096) -> FockSystem:
    return FockSystem(sites=2, modes_per_site=4, cutoff=2, total_cap=2,
                      max_dim=max_dim)


def four_beamsplitter_check(seed: int = 0, samples: int = 20,
                            tol: float = 1e-9, system=None) -> float:
    """Product-parity observable after four beamsplitters versus the
    double-SWAP expectation, on `system` or `four_beamsplitter_system()`."""
    sys = system or four_beamsplitter_system()
    pairs = {0: [(0, 3), (2, 1)], 1: [(2, 3), (0, 1)]}
    bm = np.eye(sys.dim, dtype=complex)
    parity = np.eye(sys.dim, dtype=complex)
    direct = np.eye(sys.dim, dtype=complex)
    for site, site_pairs in pairs.items():
        for la, lb in site_pairs:
            bm = beamsplitter(sys, site, (la, lb)) @ bm
            parity = parity @ sector_expm(
                1j * math.pi * sys.number(sys.mode(site, lb)), sys._sectors)
            direct = direct @ swap_unitary(
                sys, sys.mode(site, la), sys.mode(site, lb))
    observable = bm.conj().T @ parity @ bm
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        state = sys.random_state(rng)
        lhs = complex(state.conj() @ observable @ state)
        rhs = complex(state.conj() @ direct @ state)
        worst = max(worst, abs(lhs - rhs))
    if worst > tol:
        raise InterferometryError(
            f"four-beamsplitter composition violated by {worst:.2e}")
    return worst


# -- measurement records and S-matrix extraction ---------------------------


@dataclass(frozen=True)
class MeasurementRecord:
    name: str
    value: complex
    variance: float | None = None
    provenance: str = "analytic"

    def to_dict(self) -> dict:
        return {"name": self.name, "re": self.value.real,
                "im": self.value.imag, "variance": self.variance,
                "provenance": self.provenance}


def records_from_docs(docs):
    """Build records from parsed dicts; each needs name, re and im."""
    try:
        return [MeasurementRecord(d["name"], complex(d["re"], d["im"]),
                                  d.get("variance"),
                                  d.get("provenance", "file"))
                for d in docs]
    except (KeyError, TypeError, ValueError) as err:
        raise InterferometryError(
            f"malformed measurement record: {err!r}") from err


def forward_measurements(s: np.ndarray, conj: tuple[int, ...]) -> dict:
    """Noiseless forward map: every preparation's exact <psi|S|psi>.

    diag:a prepares |a>, plus:a,b (|a> + |b>)/sqrt 2 and imag:a,b
    (|a> + i|b>)/sqrt 2; unless C = 1, conj_diag:a reads (S + C S)_aa.
    """
    n = len(conj)
    out = {f"diag:{a}": complex(s[a, a]) for a in range(n)}
    for a, b in combinations(range(n), 2):
        both = s[a, a] + s[b, b]
        out[f"plus:{a},{b}"] = complex((both + s[a, b] + s[b, a]) / 2.0)
        out[f"imag:{a},{b}"] = complex(
            (both + 1j * s[a, b] - 1j * s[b, a]) / 2.0)
    if not all(c == i for i, c in enumerate(conj)):
        for a in range(n):
            out[f"conj_diag:{a}"] = complex(s[a, a] + s[conj[a], a])
    return out


def synthetic_measurements(model: anyons.ModularData) -> dict:
    """The forward map of a model's own S matrix."""
    return forward_measurements(model.s_matrix, model.conj)


def extract_matrix_elements(measurements: dict, conj: tuple[int, ...],
                            tol: float = 1e-10) -> dict:
    """Read S off its superposition measurements in closed form.

    S_aa = diag_a, S_ab + S_ba = 2 plus_ab - S_aa - S_bb and
    S_ab - S_ba = -i (2 imag_ab - S_aa - S_bb).  The residual compares
    the measured values with the forward map of that S over these records
    and, unless C = 1, the conj_diag records present: they are checked,
    not solved for.  Missing preparations raise with an explicit list.
    """
    n = len(conj)
    pairs = list(combinations(range(n), 2))
    needed = [f"diag:{a}" for a in range(n)] + [
        f"{kind}:{a},{b}" for a, b in pairs for kind in ("plus", "imag")]
    missing = [k for k in needed if k not in measurements]
    if missing:
        raise InterferometryError(
            "insufficient measurements; missing preparations: "
            + ", ".join(missing))

    s = np.diag([complex(measurements[f"diag:{a}"]) for a in range(n)])
    for a, b in pairs:
        both = s[a, a] + s[b, b]
        total = 2 * measurements[f"plus:{a},{b}"] - both
        diff = -1j * (2 * measurements[f"imag:{a},{b}"] - both)
        s[a, b], s[b, a] = (total + diff) / 2, (total - diff) / 2
    predicted = forward_measurements(s, conj)
    residual = float(np.linalg.norm(
        [predicted[k] - measurements[k] for k in predicted
         if k in measurements]))
    if not residual <= tol:  # a NaN record fails too
        raise InterferometryError(
            f"extraction residual {residual:.2e} exceeds {tol:.1e}")
    return {"s_matrix": s, "residual": residual}

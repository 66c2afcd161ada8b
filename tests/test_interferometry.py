"""Tests for the truncated-Fock interferometry identities."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from qorigami import anyons, cli, interferometry as itf


FIXED_MODELS = ("toric_code", "double_semion", "ising", "fibonacci")


def small_pair_system():
    return itf.FockSystem(sites=2, modes_per_site=2, cutoff=2, total_cap=2)


class TestFockSystem:
    def test_dimensions(self):
        sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=2)
        assert sys.dim == 9
        capped = small_pair_system()
        assert capped.dim == len(capped.basis)
        assert all(sum(occ) <= 2 for occ in capped.basis)

    def test_dim_cap_enforced(self):
        with pytest.raises(itf.InterferometryError):
            itf.FockSystem(sites=4, modes_per_site=4, cutoff=2)

    def test_closed_form_dim_counts_the_basis(self):
        for sites in (1, 2):
            for modes in (1, 2, 3):
                for cutoff in (1, 2, 3):
                    for total_cap in (None, -1, 0, 1, 2, 3, 4, 7, 20):
                        sys = itf.FockSystem(
                            sites=sites, modes_per_site=modes, cutoff=cutoff,
                            total_cap=total_cap, max_dim=10 ** 6)
                        assert sys.dim == len(sys.basis), (
                            sites, modes, cutoff, total_cap)

    def test_dim_cap_checked_before_enumeration(self, monkeypatch):
        def enumerate_basis(self):
            raise AssertionError("basis enumerated before the cap check")

        monkeypatch.setattr(itf.FockSystem, "_basis",
                            property(enumerate_basis))
        # The patch is on the enumeration path: reading a basis trips it.
        with pytest.raises(AssertionError, match="basis enumerated"):
            itf.FockSystem(sites=1, modes_per_site=2, cutoff=1).basis
        with pytest.raises(itf.InterferometryError, match="exceeds the cap"):
            itf.FockSystem(sites=3, modes_per_site=4, cutoff=3, total_cap=3,
                           max_dim=10)

    def test_basis_is_the_filtered_product_in_order(self):
        for sites in (1, 2):
            for modes in (1, 2, 3):
                for cutoff in (1, 2, 3):
                    n = sites * modes
                    caps = (None, -1, 0, cutoff - 1, cutoff, cutoff + 1,
                            n * cutoff, n * cutoff + 1)
                    for total_cap in caps:
                        sys = itf.FockSystem(
                            sites=sites, modes_per_site=modes, cutoff=cutoff,
                            total_cap=total_cap, max_dim=10 ** 6)
                        expected = tuple(
                            occ for occ in itertools.product(
                                range(cutoff + 1), repeat=n)
                            if total_cap is None or sum(occ) <= total_cap)
                        assert sys.basis == expected, (
                            sites, modes, cutoff, total_cap)

    def test_commutator_on_safe_subspace(self):
        sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=3)
        a = sys.annihilation(0)
        comm = a @ a.conj().T - a.conj().T @ a
        p = sys.occupation_projector(2)
        assert np.max(np.abs(p @ (comm - np.eye(sys.dim)) @ p)) < 1e-12

    def test_number_operator(self):
        sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=2)
        state = sys.basis_state((2, 1))
        assert abs(state.conj() @ sys.number(0) @ state - 2) < 1e-12

    def test_vacuum_and_random_norm(self):
        sys = small_pair_system()
        assert abs(np.linalg.norm(sys.vacuum()) - 1) < 1e-12
        rng = np.random.default_rng(0)
        state = sys.random_state(rng)
        assert abs(np.linalg.norm(state) - 1) < 1e-12


def random_number_conserving_generator(sys, rng):
    """-i sum_kl h_kl a_k^dag a_l for a random Hermitian h, plus i times a
    random real function of the occupations: an anti-Hermitian generator
    that commutes with the total number."""
    ops = [sys.annihilation(m) for m in range(sys.n_modes)]
    h = rng.normal(size=(sys.n_modes,) * 2) \
        + 1j * rng.normal(size=(sys.n_modes,) * 2)
    h = (h + h.conj().T) / 2
    gen = sum(h[k, l] * ops[k].conj().T @ ops[l]
              for k in range(sys.n_modes) for l in range(sys.n_modes))
    gen = -1j * gen + 1j * np.diag(rng.normal(size=sys.dim))
    return 0.3 * gen


class TestSectorExpm:
    @pytest.mark.parametrize("kwargs", [
        dict(sites=1, modes_per_site=2, cutoff=2),
        dict(sites=1, modes_per_site=3, cutoff=2, total_cap=2),
        dict(sites=2, modes_per_site=2, cutoff=2, total_cap=2),
        dict(sites=1, modes_per_site=4, cutoff=3, total_cap=3),
        dict(sites=3, modes_per_site=2, cutoff=3, total_cap=3),
        dict(sites=2, modes_per_site=2, cutoff=1),
    ])
    def test_equals_full_expm(self, kwargs):
        sys = itf.FockSystem(**kwargs)
        rng = np.random.default_rng(sys.dim)
        for _ in range(3):
            gen = random_number_conserving_generator(sys, rng)
            blocked = itf.sector_expm(gen, sys._sectors)
            assert np.max(np.abs(blocked - scipy_expm(gen))) < 1e-12

    def test_blocks_are_the_total_occupation_sectors(self):
        sys = itf.FockSystem(sites=3, modes_per_site=2, cutoff=3,
                             total_cap=3)
        blocks, _ = sys._sectors
        rows = [block[0].ravel() for block in blocks]
        assert [len(r) for r in rows] == [1, 6, 21, 56]
        for total, block in enumerate(rows):
            assert all(sum(sys.basis[i]) == total for i in block)

    def test_sector_coupling_rejected(self):
        sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=2)
        a = sys.annihilation(0)
        with pytest.raises(itf.InterferometryError, match="couples"):
            itf.sector_expm(a + a.conj().T, sys._sectors)
        tiny = np.zeros((sys.dim, sys.dim), dtype=complex)
        tiny[0, 1] = 1e-300
        with pytest.raises(itf.InterferometryError, match="couples"):
            itf.sector_expm(tiny, sys._sectors)


def unitary_dft(n):
    return np.array([[np.exp(2j * np.pi * k * l / n) for l in range(n)]
                     for k in range(n)]) / math.sqrt(n)


class TestUnitaryKernels:
    """`expm` and `logm` against scipy.linalg, which shares no code with
    them."""

    @pytest.mark.parametrize("gen", [
        pytest.param(np.array([[0, 1], [1, 0]], dtype=complex),
                     id="hermitian"),
        pytest.param(np.array([[1j, 1], [0, -1j]]), id="non-normal"),
        pytest.param(np.array([[1e-6]], dtype=complex), id="real-1x1"),
    ])
    def test_non_anti_hermitian_generator_raises(self, gen):
        with pytest.raises(itf.InterferometryError,
                           match="not anti-Hermitian"):
            itf.expm(gen)

    def test_sector_expm_rejects_a_hermitian_block(self):
        sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=2)
        h = itf._tunneling_generator(sys, 0, 1)
        with pytest.raises(itf.InterferometryError,
                           match="not anti-Hermitian"):
            itf.sector_expm(h, sys._sectors)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_logm_of_dft_exponentiates_back(self, n):
        # n = 10, 14 and 15 have a degenerate eigenvalue -1 whose computed
        # copies straddle the branch cut.
        dft = unitary_dft(n)
        h = itf.logm(dft)
        assert np.max(np.abs(scipy_expm(h) - dft)) < 1e-13
        assert np.max(np.abs(h + h.conj().T)) < 1e-13

    def test_logm_is_principal(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        h *= 3.0 / np.max(np.abs(np.linalg.eigvalsh(h)))
        assert np.max(np.abs(itf.logm(scipy_expm(-1j * h)) + 1j * h)) < 1e-12


def count_sector_expm(monkeypatch):
    calls = []
    sector_expm = itf.sector_expm

    def counting(*args):
        calls.append(1)
        return sector_expm(*args)

    monkeypatch.setattr(itf, "sector_expm", counting)
    return calls


class TestOperatorsOncePerSystem:
    def test_parity_operator(self, monkeypatch):
        calls = count_sector_expm(monkeypatch)
        rng = np.random.default_rng(3)
        for sys in (small_pair_system(), small_pair_system()):
            for _ in range(5):
                itf.swap_expectation_via_parity(sys, sys.random_state(rng))
        assert len(calls) == 2

    def test_twist_operators_per_site(self, monkeypatch):
        calls = count_sector_expm(monkeypatch)
        rng = np.random.default_rng(4)
        sys = itf.FockSystem(sites=2, modes_per_site=3, cutoff=2,
                             total_cap=2)
        for site in (0, 1, 0, 1):
            for _ in range(3):
                out = itf.twist_expectation(sys, sys.random_state(rng),
                                            site=site)
                assert out["difference"] < 1e-9
        # The mode transform and the phase operator, once per site.
        assert len(calls) == 4

    def test_identity_suite_takes_one_logm_per_twist_system(self, monkeypatch):
        calls = []
        logm = itf.logm

        def counting_logm(*args, **kwargs):
            calls.append(1)
            return logm(*args, **kwargs)

        monkeypatch.setattr(itf, "logm", counting_logm)
        assert cli.main(["measure", "identity-suite", "--format",
                         "json"]) == 0
        assert len(calls) == 2


class TestTunnelingPulses:
    def test_half_pulse_is_swap(self):
        sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=2)
        u = itf.tunneling_swap(sys, 0)
        p = sys.occupation_projector(sys.cutoff)
        diff = p @ (u - itf.swap_unitary(sys, 0, 1)) @ p
        assert np.max(np.abs(diff)) < 1e-9

    def test_leakage_tiny_at_matched_cap(self):
        sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=2)
        assert itf.leakage(sys, itf.tunneling_swap(sys, 0)) < 1e-12

    def test_beamsplitter_mode_mixing(self):
        sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=3)
        bs = itf.beamsplitter(sys, 0)
        a1, a2 = sys.annihilation(0), sys.annihilation(1)
        p = sys.occupation_projector(2)
        sym = (a1 + a2) / math.sqrt(2.0)
        anti = (a2 - a1) / math.sqrt(2.0)
        assert np.max(np.abs(p @ (bs.conj().T @ a1 @ bs - sym) @ p)) < 1e-10
        assert np.max(np.abs(p @ (bs.conj().T @ a2 @ bs - anti) @ p)) < 1e-10


class TestSwapAsParity:
    def test_hundred_random_states(self):
        sys = small_pair_system()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            state = sys.random_state(rng)
            out = itf.swap_expectation_via_parity(sys, state)
            worst = max(worst, out["difference"])
        assert worst < 1e-9

    def test_beamsplit_then_count_route(self):
        sys = small_pair_system()
        bm = np.eye(sys.dim, dtype=complex)
        parity = np.eye(sys.dim, dtype=complex)
        direct = np.eye(sys.dim, dtype=complex)
        from scipy.linalg import expm
        for site in range(sys.sites):
            bm = itf.beamsplitter(sys, site) @ bm
            parity = parity @ expm(
                1j * math.pi * sys.number(sys.mode(site, 1)))
            direct = direct @ itf.swap_unitary(
                sys, sys.mode(site, 0), sys.mode(site, 1))
        obs = bm.conj().T @ parity @ bm
        rng = np.random.default_rng(5)
        for _ in range(25):
            state = sys.random_state(rng)
            lhs = state.conj() @ obs @ state
            rhs = state.conj() @ direct @ state
            assert abs(lhs - rhs) < 1e-9

    def test_product_state_factorizes(self):
        sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=2)
        state = sys.basis_state((1, 1))
        out = itf.swap_expectation_via_parity(sys, state)
        assert abs(out["direct"] - 1.0) < 1e-12


class TestTwist:
    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_fourier_route_matches_direct(self, n_layers):
        sys = itf.FockSystem(sites=1, modes_per_site=n_layers, cutoff=2,
                             total_cap=2)
        rng = np.random.default_rng(7 + n_layers)
        worst = 0.0
        for _ in range(40):
            state = sys.random_state(rng)
            out = itf.twist_expectation(sys, state)
            worst = max(worst, out["difference"])
        assert worst < 1e-9

    def test_single_layer_rejected(self):
        sys = itf.FockSystem(sites=1, modes_per_site=1, cutoff=2)
        with pytest.raises(itf.InterferometryError):
            itf.twist_expectation(sys, sys.vacuum())


class TestCswap:
    def test_block_structure(self):
        sys = small_pair_system()
        u = itf.cswap(sys)
        d = sys.dim
        swap_all = np.eye(d, dtype=complex)
        for site in range(sys.sites):
            swap_all = swap_all @ itf.swap_unitary(
                sys, sys.mode(site, 0), sys.mode(site, 1))
        assert np.max(np.abs(u[:d, :d] - np.eye(d))) < 1e-10
        assert np.max(np.abs(u[d:2 * d, d:2 * d] - swap_all)) < 1e-10
        assert np.max(np.abs(u[:d, d:2 * d])) < 1e-12

    def test_ancilla_validation(self):
        with pytest.raises(itf.InterferometryError):
            itf.cswap(small_pair_system(), ancilla_dim=1)


class TestHadamardTest:
    def test_toric_em_twist(self):
        model = anyons.builtin_model("toric_code")
        x, y = itf.hadamard_test(model, ["T"], "em")
        assert abs(x - (-1.0)) < 1e-10 and abs(y) < 1e-10

    def test_toric_s_vacuum(self):
        model = anyons.builtin_model("toric_code")
        x, y = itf.hadamard_test(model, ["S"], "1")
        assert abs(x - 0.5) < 1e-10 and abs(y) < 1e-10

    def test_superposition_state(self):
        model = anyons.builtin_model("ising")
        x, y = itf.hadamard_test(model, ["T"], {"1": 1.0, "psi": 1.0})
        assert abs(complex(x, y)) <= 1.0 + 1e-12

    def test_zero_state_rejected(self):
        model = anyons.builtin_model("toric_code")
        with pytest.raises(itf.InterferometryError):
            itf.hadamard_test(model, ["S"], {"1": 0.0})


class TestEstimators:
    def test_timing_overlap_numbers(self):
        budget = itf.ErrorBudget(N=50, J=1.0, dt=0.001)
        expected = 1.0 - 2.0 * 50 ** 2 * 0.001 ** 2
        assert abs(itf.timing_error_overlap(budget) - expected) < 1e-12
        reduced = 1.0 - itf.timing_error_overlap(budget)
        full = 1.0 - itf.timing_error_overlap(
            itf.ErrorBudget(N=50, J=1.0, dt=0.002))
        assert abs(reduced / full - 0.25) < 1e-12

    def test_readout_numbers(self):
        assert abs(itf.readout_fidelity(
            itf.ErrorBudget(N=50, readout=0.99)) - 0.605) < 5e-4
        assert abs(itf.readout_fidelity(
            itf.ErrorBudget(N=100, readout=0.9993)) - 0.932) < 5e-4

    def test_thermal(self):
        budget = itf.ErrorBudget(N=2, gap=1.0, temperature=0.1)
        expected = 1.0 - 4.0 * math.exp(-10.0)
        assert abs(itf.thermal_fidelity(budget) - expected) < 1e-12
        assert itf.thermal_fidelity(itf.ErrorBudget(N=2)) == 1.0

    def test_warnings(self):
        assert itf.validity_warnings(
            itf.ErrorBudget(N=2, J=1.0, dt=0.001)) == []
        warns = itf.validity_warnings(itf.ErrorBudget(N=100, J=1.0, dt=0.1))
        assert any("validity" in w for w in warns)
        warns = itf.validity_warnings(
            itf.ErrorBudget(N=10, gap=0.1, temperature=10.0))
        assert any("thermal" in w for w in warns)

    def test_budget_validation(self):
        with pytest.raises(itf.InterferometryError):
            itf.ErrorBudget(N=0)
        with pytest.raises(itf.InterferometryError):
            itf.ErrorBudget(readout=0.0)


class TestTimingBruteForce:
    def test_matches_cosine(self):
        for j_dt in (0.02, 0.01):
            brute = itf.timing_error_brute_force(j_dt, sites=2)
            assert abs(brute - math.cos(4.0 * j_dt)) < 1e-12

    def test_scaling_exponent(self):
        exponent = itf.timing_scaling_exponent((0.02, 0.01, 0.005), sites=2)
        assert exponent >= 2.7


class TestFourBeamsplitter:
    def test_composition(self):
        assert itf.four_beamsplitter_check(seed=0, samples=20) < 1e-9


class TestExtraction:
    @pytest.mark.parametrize("name,k", [
        ("double_semion", None), ("toric_code", None), ("laughlin", 3)])
    def test_round_trip(self, name, k):
        model = anyons.builtin_model(name, k=k) if k else \
            anyons.builtin_model(name)
        meas = itf.synthetic_measurements(model)
        out = itf.extract_matrix_elements(meas, model.conj)
        assert out["residual"] < 1e-10
        assert np.max(np.abs(out["s_matrix"] - model.s_matrix)) < 1e-10

    def test_extraction_runs_no_solver(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("linear solver called")

        for name in ("lstsq", "solve", "pinv", "svd", "matrix_rank"):
            monkeypatch.setattr(np.linalg, name, no_solver)
        for k in range(2, 17):
            model = anyons.builtin_model("laughlin", k=k)
            meas = itf.synthetic_measurements(model)
            out = itf.extract_matrix_elements(meas, model.conj)
            assert out["residual"] < 1e-10
            assert np.max(np.abs(out["s_matrix"] - model.s_matrix)) < 1e-10

    @pytest.mark.parametrize("name,k", [
        (name, None) for name in FIXED_MODELS] + [
        ("laughlin", k) for k in range(2, 17)])
    def test_recovers_s_to_rounding(self, name, k):
        model = anyons.builtin_model(name, k=k)
        meas = itf.synthetic_measurements(model)
        out = itf.extract_matrix_elements(meas, model.conj)
        assert np.max(np.abs(out["s_matrix"] - model.s_matrix)) <= 1e-15

    def test_conj_diag_records_are_checked(self):
        model = anyons.builtin_model("laughlin", k=3)
        meas = itf.synthetic_measurements(model)
        meas["conj_diag:1"] += 1e-6
        with pytest.raises(itf.InterferometryError,
                           match="extraction residual"):
            itf.extract_matrix_elements(meas, model.conj)

    @pytest.mark.parametrize("key", ["diag:0", "plus:0,1", "imag:1,2"])
    def test_nan_record_fails_the_residual(self, key):
        model = anyons.builtin_model("toric_code")
        meas = itf.synthetic_measurements(model)
        meas[key] = complex(float("nan"), 0.0)
        with pytest.raises(itf.InterferometryError,
                           match="extraction residual nan"):
            itf.extract_matrix_elements(meas, model.conj)

    def test_self_conjugate_model_ignores_conj_diag(self):
        model = anyons.builtin_model("toric_code")
        meas = itf.synthetic_measurements(model)
        assert not any(k.startswith("conj") for k in meas)
        meas["conj_diag:0"] = 5.0
        out = itf.extract_matrix_elements(meas, model.conj)
        assert out["residual"] < 1e-12

    def test_no_conj_plus_records(self):
        model = anyons.builtin_model("laughlin", k=4)
        names = set(itf.synthetic_measurements(model))
        assert {f"conj_diag:{a}" for a in range(4)} <= names
        assert not any(k.startswith("conj_plus") for k in names)

    def test_missing_preparation_listed(self):
        model = anyons.builtin_model("toric_code")
        meas = itf.synthetic_measurements(model)
        del meas["imag:1,2"]
        with pytest.raises(itf.InterferometryError, match="imag:1,2"):
            itf.extract_matrix_elements(meas, model.conj)

    def test_records_json_round_trip(self):
        records = [itf.MeasurementRecord("diag:0", 0.5 + 0.25j, 1e-4)]
        text = itf.records_to_json(records)
        back = itf.records_from_json(text)
        assert back[0].name == "diag:0"
        assert abs(back[0].value - (0.5 + 0.25j)) < 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_parity_identity_property(seed):
    sys = itf.FockSystem(sites=1, modes_per_site=2, cutoff=2)
    rng = np.random.default_rng(seed)
    state = sys.random_state(rng, max_total=2)
    out = itf.swap_expectation_via_parity(sys, state)
    assert out["difference"] < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_twist_identity_property(seed):
    sys = itf.FockSystem(sites=1, modes_per_site=3, cutoff=2, total_cap=2)
    rng = np.random.default_rng(seed)
    state = sys.random_state(rng)
    out = itf.twist_expectation(sys, state)
    assert out["difference"] < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10 ** 6))
def test_extraction_inverts_forward_map(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    conj = list(range(n))
    order = rng.permutation(n)
    for i in range(rng.integers(0, n // 2 + 1)):
        a, b = order[2 * i], order[2 * i + 1]
        conj[a], conj[b] = b, a
    conj = tuple(int(c) for c in conj)
    out = itf.extract_matrix_elements(itf.forward_measurements(s, conj), conj)
    assert out["residual"] <= 1e-12
    assert np.max(np.abs(out["s_matrix"] - s)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=10 ** 6))
def test_expm_of_hermitian_matches_scipy(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    u = itf.expm(-1j * h)
    assert np.max(np.abs(u - scipy_expm(-1j * h))) < 1e-12
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12

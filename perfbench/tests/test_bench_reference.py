"""The reference module against independent derivations."""
import itertools
import math

import numpy as np
import pytest

import reference


def test_generator_relations():
    eye = reference.IDENTITY2
    s, t = reference.GENERATORS["S"], reference.GENERATORS["T"]
    assert reference.word_matrix(["S"] * 4) == eye
    assert reference.word_matrix(["S", "S"]) == reference.GENERATORS["C"]
    assert reference.word_matrix(["Ra", "Rb"]) == reference.GENERATORS["C"]
    st = reference.matmul2(s, t)
    assert reference.matmul2(reference.matmul2(st, st), st) == \
        reference.matmul2(s, s)
    assert reference.word_matrix([]) == eye


def test_words_act_left_to_right():
    # Ra S: the reflection is the left factor.
    assert reference.word_matrix(["Ra", "S"]) == ((0, -1), (-1, 0))
    assert reference.word_matrix(["T", "Rb"]) == ((1, 0), (1, -1))


def test_every_catalog_word_has_unit_determinant():
    for word in reference.CATALOG_WORDS.values():
        (a, b), (c, d) = reference.word_matrix(word)
        assert a * d - b * c in (1, -1)


def test_toric_s_is_a_symplectic_clifford_of_order_two():
    u = reference.toric_s_unitary()
    assert reference.is_unitary(u)
    a = reference.symplectic_action(u)
    # X1 -> Z2, Z1 -> X2, X2 -> Z1, Z2 -> X1.
    assert np.array_equal(a, np.fliplr(np.eye(4, dtype=np.uint8)))
    assert reference.is_symplectic(a)
    assert np.array_equal(reference.symplectic_action(u @ u),
                          np.eye(4, dtype=np.uint8))


def test_symplectic_action_of_cnot():
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    a = reference.symplectic_action(cnot)
    # X1 -> X1 X2, Z2 -> Z1 Z2.
    assert list(a[:, 0]) == [1, 0, 1, 0]
    assert list(a[:, 3]) == [0, 1, 0, 1]
    assert reference.is_symplectic(a)


def test_expected_symplectic_words():
    s = reference.expected_symplectic(["S"])
    assert np.array_equal(reference.expected_symplectic(["Ra", "S"]), s)
    assert np.array_equal(reference.expected_symplectic([]),
                          np.eye(4, dtype=np.uint8))


def test_non_symplectic_matrix_is_detected():
    a = np.eye(4, dtype=np.uint8)
    a[0, 2] = 1
    assert not reference.is_symplectic(a)


def _span_size(rows, width):
    seen = set()
    for coeffs in itertools.product((0, 1), repeat=len(rows)):
        value = 0
        for c, r in zip(coeffs, rows):
            if c:
                value ^= r
        seen.add(value)
    return len(seen)


def test_gf2_rank_matches_span_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(40):
        mat = rng.integers(0, 2, size=(int(rng.integers(1, 8)), 9))
        rows = reference.pack_rows(mat)
        assert 2 ** reference.gf2_rank(rows) == _span_size(rows, 9)


def test_gf2_rank_of_toric_code_leaves_two_qubits():
    # Stars and plaquettes of a 3 x 3 toric code, built by hand.
    L = 3

    def edge(x, y, o):
        return (o * L + y % L) * L + x % L

    n = 2 * L * L
    rows = []
    for x in range(L):
        for y in range(L):
            star = (edge(x, y, 0), edge(x - 1, y, 0), edge(x, y, 1),
                    edge(x, y - 1, 1))
            plaq = (edge(x, y, 0), edge(x, y + 1, 0), edge(x, y, 1),
                    edge(x + 1, y, 1))
            rows.append(sum(1 << e for e in star))
            rows.append(sum(1 << (n + e) for e in plaq))
    assert n - reference.gf2_rank(rows) == 2


@pytest.mark.parametrize("model,k", [("toric_code", None),
                                     ("double_semion", None),
                                     ("ising", None), ("fibonacci", None),
                                     ("laughlin", 2), ("laughlin", 7),
                                     ("laughlin", 16)])
def test_closed_form_s_matrices(model, k):
    s = reference.s_matrix(model, k)
    n = s.shape[0]
    assert reference.is_unitary(s)
    assert np.allclose(s, s.T)
    conj = np.zeros((n, n))
    for a, abar in enumerate(reference.conjugation(model, k)):
        conj[abar, a] = 1.0
    assert np.allclose(s @ s, conj)
    assert np.all(s[:, 0].real > 0)


@pytest.mark.parametrize("model,k", [("ising", None), ("laughlin", 5)])
def test_forward_records_determine_s(model, k):
    s = reference.s_matrix(model, k)
    values = {r["name"]: complex(r["re"], r["im"])
              for r in reference.forward_records(
                  s, reference.conjugation(model, k))}
    n = s.shape[0]
    solved = np.zeros((n, n), dtype=complex)
    for a in range(n):
        solved[a, a] = values[f"diag:{a}"]
    for a in range(n):
        for b in range(a + 1, n):
            base = solved[a, a] + solved[b, b]
            total = 2 * values[f"plus:{a},{b}"] - base      # s_ab + s_ba
            diff = (2 * values[f"imag:{a},{b}"] - base) / 1j  # s_ab - s_ba
            solved[a, b] = (total + diff) / 2
            solved[b, a] = (total - diff) / 2
    assert np.allclose(solved, s, atol=1e-12)
    has_conj = any(name.startswith("conj_diag") for name in values)
    assert has_conj == (model == "laughlin")


def test_fock_basis_size_and_order():
    basis = reference.fock_basis(4, 3, 3)
    assert len(basis) == math.comb(4 + 3, 3)
    assert basis == sorted(basis)
    assert len(reference.fock_basis(2, 2, None)) == 9


def test_permutation_expectations():
    basis = reference.fock_basis(4, 2, 2)
    rng = np.random.default_rng(0)
    state = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    state /= np.linalg.norm(state)
    swap = reference.layer_swap_perm(2, 2)
    value = reference.mode_permutation_expectation(state, basis, swap)
    matrix = reference.permutation_matrix(basis, swap)
    assert np.isclose(value, np.vdot(state, matrix @ state))
    assert np.allclose(matrix @ matrix, np.eye(len(basis)))
    vacuum = np.zeros(len(basis), dtype=complex)
    vacuum[0] = 1.0
    cyc = reference.cyclic_layer_perm(4)
    assert np.isclose(
        reference.mode_permutation_expectation(vacuum, basis, cyc), 1.0)

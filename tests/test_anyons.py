import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qorigami import anyons
from qorigami.anyons import (
    AnyonError,
    UnsupportedReflectionError,
    builtin_model,
    fusion_tensor,
    rep_on_torus,
    verify_modular_data,
)

ALL_MODELS = [
    builtin_model("toric_code"),
    builtin_model("double_semion"),
    builtin_model("double_semion_doubled"),
    builtin_model("ising"),
    builtin_model("fibonacci"),
    builtin_model("laughlin", 2),
    builtin_model("laughlin", 3),
    builtin_model("laughlin", 5),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_consistency_battery(model):
    report = verify_modular_data(model)
    assert all(report["checks"].values()), report


@pytest.mark.parametrize("entry, value, reason", [
    pytest.param((0, 1), 0.0, "vanishing S_{0x}", id="vanishing-S0x"),
    pytest.param((1, 1), np.nan, "non-finite", id="nan"),
])
def test_battery_defects_are_numbers_or_reasons(entry, value, reason):
    model = builtin_model("ising")
    s = model.s_matrix.copy()
    s[entry] = value
    report = verify_modular_data(dataclasses.replace(model, s_matrix=s))
    assert report["checks"].keys() == report["defects"].keys()
    # Valid JSON: each defect is a finite float or a string reason.
    assert all(isinstance(d, str) or (isinstance(d, float)
                                      and math.isfinite(d))
               for d in report["defects"].values())
    assert reason in report["defects"]["fusion_integral"]
    assert not report["checks"]["fusion_integral"]


def test_toric_code_anchors():
    m = builtin_model("toric_code")
    s = m.s_matrix
    # S = (H x H) SWAP; entries (1/2)(-1)^{ne*nm' + nm*ne'}.
    for a in range(4):
        for b in range(4):
            ne, nm = divmod(a, 2)
            nep, nmp = divmod(b, 2)
            want = 0.5 * (-1) ** (ne * nmp + nm * nep)
            assert abs(s[a, b] - want) < 1e-12
    assert abs(np.trace(s) - 2.0) < 1e-12
    assert np.allclose(m.t_matrix, np.diag([1, 1, 1, -1]))
    assert abs(m.gauss_sum() - 1.0) < 1e-12


def test_double_semion_anchors():
    m = builtin_model("double_semion")
    assert np.allclose(m.s_matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    assert abs(np.trace(m.s_matrix)) < 1e-12
    assert m.theta == (1, 1j)
    assert abs(m.gauss_sum() - cmath.exp(1j * cmath.pi / 4)) < 1e-12


def test_double_semion_doubled_is_achiral():
    m = builtin_model("double_semion_doubled")
    assert abs(m.gauss_sum() - 1.0) < 1e-12
    assert sorted(np.angle(m.theta)) == sorted(
        np.angle([1, 1j, -1j, 1])
    )


def test_ising_anchors():
    m = builtin_model("ising")
    r = math.sqrt(2)
    want = np.array([[1, r, 1], [r, 0, -r], [1, -r, 1]]) / 2
    assert np.allclose(m.s_matrix, want)
    assert abs(m.theta[1] - cmath.exp(1j * cmath.pi / 8)) < 1e-12
    assert m.theta[2] == -1
    assert abs(m.gauss_sum() - cmath.exp(1j * cmath.pi / 8)) < 1e-12


def test_fibonacci_anchors():
    m = builtin_model("fibonacci")
    phi = (1 + math.sqrt(5)) / 2
    assert abs(m.dims[1] - phi) < 1e-12
    assert abs(m.s_matrix[0, 0] - 1 / math.sqrt(2 + phi)) < 1e-12
    assert abs(m.theta[1] - cmath.exp(4j * cmath.pi / 5)) < 1e-12
    n = fusion_tensor(m)
    # tau x tau = 1 + tau.
    assert n[1, 1, 0] == 1 and n[1, 1, 1] == 1


def test_laughlin_anchors():
    m2 = builtin_model("laughlin", 2)
    assert np.allclose(m2.t_matrix, np.diag([1, 1j]))
    m3 = builtin_model("laughlin", 3)
    assert abs(m3.gauss_sum() + 1j) < 1e-12
    for k in (2, 3, 4, 5):
        m = builtin_model("laughlin", k)
        for a in range(k):
            for b in range(k):
                want = cmath.exp(2j * cmath.pi * a * b / k) / math.sqrt(k)
                assert abs(m.s_matrix[a, b] - want) < 1e-12
        assert abs(abs(m.gauss_sum()) - 1) < 1e-12


def test_laughlin_mutual_statistics():
    for k in (2, 3, 4, 5, 6):
        m = builtin_model("laughlin", k)
        for a in range(k):
            for b in range(k):
                mutual = m.theta[(a + b) % k] / (m.theta[a] * m.theta[b])
                assert abs(mutual - cmath.exp(2j * cmath.pi * a * b / k)) < 1e-9


def fusion_loop_oracle(model, tol=1e-9):
    """The Verlinde sum entry by entry, in (a, b, c) loop order."""
    s = model.s_matrix
    d_row = s[0]
    out = np.zeros((model.n,) * 3, dtype=int)
    for a, b, c in itertools.product(range(model.n), repeat=3):
        val = np.sum(s[a] * s[b] * s[c].conj() / d_row)
        nearest = round(val.real)
        if abs(val - nearest) > tol or nearest < 0:
            raise AnyonError(
                f"fusion N_{{{model.labels[a]},{model.labels[b]}}}^"
                f"{model.labels[c]} = {val} is not a nonnegative integer")
        out[a, b, c] = nearest
    return out


def fusion_outcome(fn, model):
    try:
        return fn(model)
    except AnyonError as err:
        return str(err)


FUSION_MODELS = [builtin_model(name) for name in anyons._BUILDERS] + [
    builtin_model("laughlin", k) for k in range(2, 17)]


@pytest.mark.parametrize("model", FUSION_MODELS, ids=lambda m: m.name)
def test_fusion_tensor_matches_loop_oracle(model):
    expected = fusion_loop_oracle(model)
    got = fusion_tensor(model)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("model", FUSION_MODELS, ids=lambda m: m.name)
def test_fusion_tensor_reports_first_bad_entry(model):
    rng = np.random.default_rng(model.n)
    perturbed = []
    for scale in (1e-2, 1e-5, 1e-8):
        noise = rng.normal(size=model.s_matrix.shape) \
            + 1j * rng.normal(size=model.s_matrix.shape)
        perturbed.append(model.s_matrix + scale * noise)
    # Negating a row keeps every sum integral but makes some negative.
    flipped = model.s_matrix.copy()
    flipped[-1] *= -1
    perturbed.append(flipped)
    raised = 0
    for s in perturbed:
        bad = dataclasses.replace(model, s_matrix=s)
        expected = fusion_outcome(fusion_loop_oracle, bad)
        got = fusion_outcome(fusion_tensor, bad)
        if isinstance(expected, str):
            raised += 1
            assert got == expected
        else:
            assert np.array_equal(got, expected)
    assert raised >= 2


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_fusion_group_structure(model):
    n = fusion_tensor(model)
    k = model.n
    # Vacuum is the unit and conjugates annihilate into it.
    for a in range(k):
        assert n[0, a, a] == 1 and n[a, 0, a] == 1
        assert n[a, model.conj[a], 0] == 1
    # Commutativity.
    assert np.array_equal(n, n.transpose(1, 0, 2))
    # Dimension sum rule d_a d_b = sum_c N_ab^c d_c.
    dims = np.array(model.dims)
    for a in range(k):
        for b in range(k):
            assert abs(dims[a] * dims[b] - n[a, b] @ dims) < 1e-8


def test_rep_word_is_product():
    m = builtin_model("ising")
    got = rep_on_torus(m, "S T S")
    want = m.s_matrix @ m.t_matrix @ m.s_matrix
    assert np.allclose(got, want)
    assert np.allclose(rep_on_torus(m, "S S^-1"), np.eye(3))


def test_rep_c_is_conjugation_permutation():
    m = builtin_model("laughlin", 5)
    c = rep_on_torus(m, "C")
    assert np.allclose(c, m.conj_matrix)
    assert np.allclose(rep_on_torus(m, "S S"), c, atol=1e-12)


def test_reflections_trivial_on_toric_code():
    m = builtin_model("toric_code")
    assert np.allclose(rep_on_torus(m, "Ra"), np.eye(4))
    assert np.allclose(rep_on_torus(m, "Ra S Ra"), m.s_matrix.conj().T)


def test_reflections_on_double_semion_need_even_count():
    m = builtin_model("double_semion")
    with pytest.raises(UnsupportedReflectionError):
        rep_on_torus(m, "Ra")
    got = rep_on_torus(m, "Rb T Rb")
    assert np.allclose(got, m.t_matrix.conj())


def test_reflections_rejected_for_chiral_models():
    for m in (builtin_model("ising"), builtin_model("fibonacci"),
              builtin_model("laughlin", 3)):
        with pytest.raises(UnsupportedReflectionError):
            rep_on_torus(m, "Ra")


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_json_roundtrip(model):
    back = anyons.ModularData.from_json(model.to_json())
    assert back.labels == model.labels
    assert np.allclose(back.s_matrix, model.s_matrix)
    assert back.conj == model.conj


def test_bad_requests():
    with pytest.raises(AnyonError):
        builtin_model("laughlin")
    with pytest.raises(AnyonError):
        builtin_model("ising", k=3)
    with pytest.raises(AnyonError):
        builtin_model("nope")
    with pytest.raises(AnyonError):
        builtin_model("ising").index("zeta")


_mcg_words = st.lists(
    st.sampled_from(["S", "T", "C", "S^-1", "T^-1"]), min_size=0, max_size=8
)


@given(_mcg_words)
def test_rep_is_unitary(word):
    m = builtin_model("ising")
    u = rep_on_torus(m, word)
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-9


@given(_mcg_words, _mcg_words)
def test_rep_is_a_homomorphism(w1, w2):
    m = builtin_model("laughlin", 3)
    lhs = rep_on_torus(m, list(w1) + list(w2))
    rhs = rep_on_torus(m, w1) @ rep_on_torus(m, w2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9

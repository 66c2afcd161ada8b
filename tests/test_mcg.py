import pytest
from hypothesis import given, strategies as st

from qorigami import mcg
from qorigami.mcg import C, RA, RB, S, T, MCGError, MCGMatrix


def test_generator_matrices():
    assert S.entries() == ((0, 1), (-1, 0))
    assert T.entries() == ((1, 0), (1, 1))
    assert RA.entries() == ((-1, 0), (0, 1))
    assert RB.entries() == ((1, 0), (0, -1))
    assert C.entries() == ((-1, 0), (0, -1))


def test_group_relations_all_hold():
    for name, ok in mcg.verify_group_relations():
        assert ok, name


def test_determinant_split():
    assert S.det() == T.det() == C.det() == 1
    assert RA.det() == RB.det() == -1


def test_act_on_loops():
    # S sends alpha to -beta and beta to alpha.
    assert S.act((1, 0)) == (0, -1)
    assert S.act((0, 1)) == (1, 0)
    # T is the Dehn twist adding beta to alpha.
    assert T.act((1, 0)) == (1, 1)
    assert T.act((0, 1)) == (0, 1)


def test_word_evaluation_is_left_to_right():
    assert mcg.word_to_matrix("T Rb") == T @ RB
    assert mcg.word_to_matrix("T Rb").entries() == ((1, 0), (1, -1))
    assert mcg.word_to_matrix("Rb S").entries() == ((0, 1), (1, 0))
    assert mcg.word_to_matrix("Ra S").entries() == ((0, -1), (-1, 0))
    assert mcg.word_to_matrix("T Ra").entries() == ((-1, 0), (-1, 1))


def test_inverse_tokens():
    assert mcg.word_to_matrix("S S^-1") == MCGMatrix.identity()
    assert mcg.word_to_matrix("T^-1") == T.inverse()
    assert mcg.word_to_matrix(["Ra", "Ra"]) == MCGMatrix.identity()


def test_rejects_bad_tokens():
    with pytest.raises(MCGError):
        mcg.parse_word("S Q")
    with pytest.raises(MCGError):
        mcg.word_to_matrix("s")


def test_non_unimodular_rejected():
    with pytest.raises(MCGError):
        MCGMatrix(2, 0, 0, 1)


def test_powers():
    assert S ** 4 == MCGMatrix.identity()
    assert S ** 2 == C
    assert (S ** -1) @ S == MCGMatrix.identity()
    assert T ** 5 == MCGMatrix(1, 0, 5, 1)


def test_json_roundtrip():
    for m in (S, T, RA, RB, C, T @ S @ RB):
        assert MCGMatrix.from_json(m.to_json()) == m


_words = st.lists(
    st.sampled_from(["S", "T", "Ra", "Rb", "C", "S^-1", "T^-1"]),
    min_size=0,
    max_size=12,
)


@given(_words, _words)
def test_concatenation_multiplies(w1, w2):
    m1 = mcg.word_to_matrix(w1)
    m2 = mcg.word_to_matrix(w2)
    assert mcg.word_to_matrix(list(w1) + list(w2)) == m1 @ m2


@given(_words)
def test_det_counts_reflection_parity(word):
    refl = sum(tok.split("^")[0] in ("Ra", "Rb") for tok in word)
    assert mcg.word_to_matrix(word).det() == (-1) ** refl


@given(_words, st.integers(-5, 5), st.integers(-5, 5))
def test_act_matches_matrix_vector_product(word, p, q):
    m = mcg.word_to_matrix(word)
    (a, b), (c, d) = m.entries()
    assert m.act((p, q)) == (a * p + b * q, c * p + d * q)

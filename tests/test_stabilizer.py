import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qorigami import anyons, cli
from qorigami import stabilizer as stab
from qorigami.stabilizer import (
    PauliOp,
    QubitPermutation,
    StabilizerError,
    build_bilayer_genon_code,
    build_toric_torus,
    diagonal_fold_map,
    exact_z_distance,
    folded_view,
    genon_double_loop,
    geometric_permutation,
    gf2_rank,
    logical_action,
    min_logical_weight_upper_bound,
    protocol_action,
    symplectic_from_unitary,
)


def _target_hh_swap() -> np.ndarray:
    model = anyons.builtin_model("toric_code")
    return symplectic_from_unitary(anyons.rep_on_torus(model, "Ra S"))


# -- GF(2) and Pauli basics ----------------------------------------------


def test_gf2_rank_and_span():
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert gf2_rank(m) == 2
    echelon = stab.gf2_row_reduce(m)
    inside, outside = stab._residue_words(
        echelon, np.array([[1, 0, 1], [1, 1, 1]], dtype=np.uint8))
    assert inside == 0
    assert outside != 0


def _unpack(words, cols):
    """uint8 rows of bitset words, bit j of a word in column j."""
    words = list(words)
    return np.array([[(w >> j) & 1 for j in range(cols)] for w in words],
                    dtype=np.uint8).reshape(len(words), cols)


def _pivot_columns(echelon):
    """Pivot columns of a bitset echelon, after checking that each key
    is the lowest set bit of its row."""
    assert all(bit == row & -row for bit, row in echelon.items())
    return [bit.bit_length() - 1 for bit in echelon]


def _reference_rank(rows) -> int:
    """GF(2) rank by a basis of Python-int bit masks keyed by leading bit."""
    basis = {}
    for row in rows:
        word = int("".join(str(int(b) % 2) for b in row) or "0", 2)
        while word:
            lead = word.bit_length() - 1
            if lead not in basis:
                basis[lead] = word
                break
            word ^= basis[lead]
    return len(basis)


_matrices = st.integers(1, 6).flatmap(lambda cols: st.tuples(
    st.lists(st.lists(st.integers(0, 3), min_size=cols, max_size=cols),
             max_size=6),
    st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
             min_size=1, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(_matrices)
def test_gf2_paths_agree_with_rank_comparison(data):
    rows, vecs = data
    cols = len(vecs[0])
    mat = np.array(rows, dtype=np.uint8).reshape(len(rows), cols)
    vecs = np.array(vecs, dtype=np.uint8)
    base = _reference_rank(mat)
    # Definition: vec is in the row span iff appending it keeps the rank.
    want = [_reference_rank(list(mat) + [v]) == base for v in vecs]
    assert gf2_rank(mat) == base
    resid = stab._residue_words(stab.gf2_row_reduce(mat), vecs)
    assert [r == 0 for r in resid] == want
    # Each residue differs from its vector by an element of the span.
    for v, r in zip(vecs, _unpack(resid, cols)):
        assert _reference_rank(list(mat) + [v ^ r]) == base
    # The kernel: cols - rank independent words, each orthogonal to
    # every row.
    kernel = _unpack(stab._gf2_nullspace(mat), cols)
    assert kernel.shape[0] == cols - base
    assert _reference_rank(kernel) == cols - base
    assert not ((mat.astype(np.int64) % 2) @ kernel.T % 2).any()


def _masked_xor_row_reduce(mat):
    """Reference row reduction sharing no code with the bitset kernel:
    Gauss-Jordan on a uint8 matrix, one masked XOR per pivot column."""
    m = (np.asarray(mat, dtype=np.uint8) % 2).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + hits[0]
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        mask = m[:, c].copy()
        mask[r] = 0
        m[mask == 1] ^= m[r]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _masked_xor_residues(rows, pivots, vecs):
    out = np.asarray(vecs, dtype=np.uint8) % 2
    for row, col in zip(rows, pivots):
        out[out[:, col] == 1] ^= row
    return out


# Widths around the byte and word edges; entries 0-3 so that a kernel
# packing bits before reducing mod 2 reads a 2 as a 1.
_widths = st.sampled_from([1, 3, 7, 9, 15, 17, 63, 65, 70])
_wide_matrices = _widths.flatmap(lambda cols: st.tuples(
    st.lists(st.lists(st.integers(0, 3), min_size=cols, max_size=cols)
             | st.just([0] * cols), max_size=12),
    st.lists(st.lists(st.integers(0, 3), min_size=cols, max_size=cols),
             min_size=1, max_size=5),
    st.just(cols)))


@settings(max_examples=300, deadline=None)
@given(_wide_matrices)
@example(([], [[1] * 8], 8))
@example(([[0] * 64] * 5, [[3] * 64], 64))
@example(([[2] * 65] * 3, [[0] * 65], 65))
def test_row_reduce_and_residues_match_masked_xor(data):
    rows, vecs, cols = data
    mat = np.array(rows, dtype=np.uint8).reshape(len(rows), cols)
    vecs = np.array(vecs, dtype=np.uint8)
    want_rows, want_pivots = _masked_xor_row_reduce(mat)
    echelon = stab.gf2_row_reduce(mat)
    assert _pivot_columns(echelon) == want_pivots
    got_rows = _unpack(echelon.values(), cols)
    assert got_rows.shape == want_rows.shape
    assert got_rows.tobytes() == want_rows.tobytes()
    want = _masked_xor_residues(want_rows, want_pivots, vecs)
    got = _unpack(stab._residue_words(echelon, vecs), cols)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("build", [lambda: build_toric_torus(6),
                                   lambda: build_bilayer_genon_code(8)])
def test_code_echelon_matches_masked_xor(build):
    code = build()
    rows, pivots = _masked_xor_row_reduce(code.generator_matrix)
    echelon = stab.gf2_row_reduce(code.generator_matrix)
    assert _pivot_columns(echelon) == pivots
    assert np.array_equal(_unpack(echelon.values(), 2 * code.n), rows)
    assert code._echelon == echelon
    assert code.k == code.n - len(pivots)
    rng = np.random.default_rng(5)
    vecs = np.vstack([rng.integers(0, 2, (20, 2 * code.n), dtype=np.uint8),
                      code.generator_matrix[::7]])
    want = _masked_xor_residues(rows, pivots, vecs)
    assert [bool(w.any()) for w in want] == [bool(w)
                                             for w in code._residues(vecs)]
    assert np.array_equal(
        _unpack(stab._residue_words(echelon, vecs), 2 * code.n), want)


def test_pauli_string_roundtrip():
    op = PauliOp.from_string("XIZY")
    assert op.to_string() == "XIZY"
    assert op.weight() == 3


def test_pauli_products():
    x = PauliOp.from_string("X")
    z = PauliOp.from_string("Z")
    y = PauliOp.from_string("Y")
    assert not x.commutes_with(z)
    xz = x * z
    assert xz.to_string() == "Y"
    # Y = i XZ, so XZ carries phase i^3 relative to Y's i^1.
    assert (x * z).phase != y.phase or (x * z) == y
    sq = xz * xz
    assert sq.to_string() == "I"
    assert sq.phase == 2  # XZXZ = -1


_bits = st.lists(st.integers(0, 1), min_size=4, max_size=4)


@given(_bits, _bits, _bits, _bits)
def test_commutation_is_symplectic_form(x1, z1, x2, z2):
    a = PauliOp(np.array(x1), np.array(z1))
    b = PauliOp(np.array(x2), np.array(z2))
    form = (np.dot(x1, z2) + np.dot(z1, x2)) % 2
    assert a.commutes_with(b) == (form == 0)


def test_permute_bits_applies_hadamard_tags_after_the_permutation():
    bits = PauliOp.from_string("XZI").symplectic_bits()[None, :]
    perm = QubitPermutation([1, 2, 0], tags={2: "H"})
    out = perm.permute_bits(bits)[0]
    assert PauliOp(out[:3], out[3:]).to_string() == "IXX"
    with pytest.raises(StabilizerError, match="unsupported Clifford tag"):
        QubitPermutation([0, 1, 2], tags={0: "S"}).permute_bits(bits)


def test_permutation_validation():
    with pytest.raises(StabilizerError):
        QubitPermutation(np.array([0, 0, 1]))


# -- toric torus ----------------------------------------------------------


@pytest.mark.parametrize("L", [2, 3, 4])
def test_torus_parameters(L):
    code = build_toric_torus(L)
    assert code.n == 2 * L * L
    assert code.k == 2
    (x1, z1), (x2, z2) = code.logical_pairs
    assert not x1.commutes_with(z1)
    assert not x2.commutes_with(z2)
    assert x1.commutes_with(z2) and x2.commutes_with(z1)


def test_torus_rejects_small_lattice():
    with pytest.raises(StabilizerError):
        build_toric_torus(1)


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("move", ["reflect_diagonal",
                                  "rotate_quarter_about_vertex"])
def test_torus_oracle_matches_anyon_rep(L, move):
    code = build_toric_torus(L)
    act = logical_action(code, geometric_permutation(code, move))
    assert np.array_equal(act["symplectic"], _target_hh_swap())


def test_reflect_vertical_is_logically_trivial():
    code = build_toric_torus(4)
    act = logical_action(code, geometric_permutation(code, "reflect_vertical"))
    assert np.array_equal(act["symplectic"], np.eye(4, dtype=np.uint8))


def test_reflection_action_is_involutive():
    code = build_toric_torus(3)
    p = geometric_permutation(code, "reflect_diagonal")
    act = logical_action(code, p.compose(p))
    assert np.array_equal(act["symplectic"], np.eye(4, dtype=np.uint8))


def test_quarter_rotation_has_order_four():
    code = build_toric_torus(4)
    p = geometric_permutation(code, "rotate_quarter_about_vertex")
    p4 = p.compose(p).compose(p).compose(p)
    act = logical_action(code, p4)
    assert np.array_equal(act["symplectic"], np.eye(4, dtype=np.uint8))


def test_plaquette_rotation_is_also_an_automorphism():
    # A quarter turn about a face center still maps vertices to vertices on
    # the square lattice, so it permutes stars among themselves.
    code = build_toric_torus(4)
    act = logical_action(
        code, geometric_permutation(code, "rotate_quarter_about_plaquette"))
    assert np.array_equal(act["symplectic"], _target_hh_swap())


def test_half_translation_swaps_charge_types():
    code = build_toric_torus(4)
    p = geometric_permutation(code, "half_translation")
    assert p.tags and all(t == "H" for t in p.tags.values())
    act = logical_action(code, p)
    want = np.zeros((4, 4), dtype=np.uint8)
    want[0, 2] = want[2, 0] = want[1, 3] = want[3, 1] = 1
    assert np.array_equal(act["symplectic"], want)


def test_action_is_a_homomorphism_on_moves():
    code = build_toric_torus(3)
    p1 = geometric_permutation(code, "reflect_diagonal")
    p2 = geometric_permutation(code, "reflect_vertical")
    a12 = logical_action(code, p1.compose(p2))["symplectic"]
    a1 = logical_action(code, p1)["symplectic"]
    a2 = logical_action(code, p2)["symplectic"]
    assert np.array_equal(a12, (a1 @ a2) % 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 17), st.integers(0, 17))
def test_random_transposition_is_not_an_automorphism(a, b):
    code = build_toric_torus(3)
    image = np.arange(code.n)
    image[[a, b]] = image[[b, a]]
    perm = QubitPermutation(image, name="transposition")
    if a == b:
        assert logical_action(code, perm)["k"] == 2
        return
    with pytest.raises(StabilizerError, match="does not normalize"):
        logical_action(code, perm)


@pytest.mark.parametrize("position", ["first", "last"])
def test_non_commuting_generators_rejected_with_first_index(position):
    torus = build_toric_torus(3)
    n = torus.n
    bad = np.zeros((1, 2 * n), dtype=np.uint8)
    bad[0, n + 4] = 1
    rows = ((bad, torus.generator_matrix) if position == "first"
            else (torus.generator_matrix, bad))
    gens = np.vstack(rows)
    ops = [PauliOp(row[:n], row[n:]) for row in gens]
    # The first generator that fails to commute with a later one.
    first = next(i for i, g in enumerate(ops)
                 if any(not g.commutes_with(h) for h in ops[i + 1:]))
    with pytest.raises(StabilizerError,
                       match=f"generators do not commute: {first}$"):
        stab.StabilizerCode(n, gens, torus.logical_pairs,
                            torus.qubit_coords)
    assert (first == 0) == (position == "first")


def _single_qubit_row(gens, n, start):
    """An X or Z on one qubit whose anticommuting generators all sit at
    index >= start, the earliest such partner being nearest to start."""
    best = None
    for col in range(2 * n):
        partners = np.nonzero(gens[:, (col + n) % (2 * n)])[0]
        if partners.size and partners[0] >= start:
            if best is None or partners[0] < best[0]:
                best = (partners[0], col)
    row = np.zeros((1, 2 * n), dtype=np.uint8)
    row[0, best[1]] = 1
    return row


def _first_clash_dense(gens, n):
    g = gens.astype(np.int64)
    gram = (g[:, :n] @ g[:, n:].T + g[:, n:] @ g[:, :n].T) % 2
    return next((i for i in range(len(g)) if gram[i, i + 1:].any()), None)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, 1), min_size=2 * n,
                                  max_size=2 * n), max_size=7))))
def test_sparse_commutation_check_matches_dense_gram(data):
    # Small supports, so that Y entries, repeated pairs and rows that
    # commute through two clashes all occur.
    n, rows = data
    gens = np.array(rows, dtype=np.uint8).reshape(len(rows), 2 * n)
    assert stab._first_clash(gens, n) == _first_clash_dense(gens, n)


@pytest.mark.parametrize("build", [lambda: build_toric_torus(6),
                                   lambda: build_bilayer_genon_code(8)],
                         ids=["torus6", "genon8"])
@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.6])
def test_planted_clash_reports_its_row(build, fraction):
    code = build()
    gens, n = code.generator_matrix, code.n
    first = int(fraction * len(gens))
    later = len(gens) - 3
    # Two planted rows, each clashing only with generators after it: the
    # one planted at `first` must be reported, not the later one.
    bad_late = _single_qubit_row(gens, n, later)
    bad_first = _single_qubit_row(gens, n, first)
    planted = np.vstack([gens[:first], bad_first, gens[first:later],
                         bad_late, gens[later:]])
    assert _first_clash_dense(planted, n) == first
    with pytest.raises(StabilizerError,
                       match=f"generators do not commute: {first}$"):
        stab.StabilizerCode(n, planted, code.logical_pairs,
                            code.qubit_coords)


@pytest.mark.parametrize("pairs, message", [
    ((("x1", "x2"), ("z1", "z2")), "logical pair 0 commutes"),
    ((("x1", "z1"), ("x2", "x2")), "logical pair 1 commutes"),
    # Pair 1 also commutes, but pair 0 is scanned first.
    ((("x1", "z1"), ("z1", "z1")), "cross-pair logicals do not commute"),
    ((("x1", "z1"), ("z1", "x1")), "cross-pair logicals do not commute"),
    ((("x1", "z1"), ("bad", "z2")), "logical fails to commute with group"),
    ((("x1", "z1"),), "rank gives k=2, but 1 logical pairs supplied"),
])
def test_invalid_logicals_rejected_in_pair_order(pairs, message):
    torus = build_toric_torus(3)
    (x1, z1), (x2, z2) = torus.logical_pairs
    bad = np.zeros(torus.n, dtype=np.uint8)
    bad[0] = 1
    ops = {"x1": x1, "z1": z1, "x2": x2, "z2": z2,
           "bad": PauliOp(np.zeros(torus.n, dtype=np.uint8), bad)}
    logicals = tuple((ops[a], ops[b]) for a, b in pairs)
    with pytest.raises(StabilizerError, match=f"^{message}$"):
        stab.StabilizerCode(torus.n, torus.generator_matrix, logicals,
                            torus.qubit_coords)


@pytest.mark.parametrize("argv", [
    ["stabilizer", "verify", "--lattice", "4"],
    ["stabilizer", "genon", "--L", "6"],
])
def test_one_row_reduction_per_job(argv, monkeypatch, capsys):
    calls = []
    reduce_ = stab.gf2_row_reduce
    monkeypatch.setattr(stab, "gf2_row_reduce",
                        lambda mat: calls.append(mat.shape) or reduce_(mat))
    assert cli.main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["stabilizer", "verify", "--lattice", "4"],
    ["stabilizer", "genon", "--L", "6",
     "--protocol", "genon_mirror_swap_mirror"],
    ["stabilizer", "genon", "--L", "6", "--protocol", "layer_swap_only"],
])
def test_one_automorphism_check_per_job(argv, monkeypatch, capsys):
    calls = []
    check = stab._assert_automorphism
    monkeypatch.setattr(stab, "_assert_automorphism",
                        lambda *args: calls.append(args[2]) or check(*args))
    assert cli.main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_unknown_move_rejected():
    code = build_toric_torus(2)
    with pytest.raises(StabilizerError):
        geometric_permutation(code, "reflect_everything")


# -- bilayer genon code ---------------------------------------------------


def test_genon_code_parameters():
    code = build_bilayer_genon_code(6)
    assert code.n == 4 * 6 * 7
    assert code.k == 2
    (x1, z1), (x2, z2) = code.logical_pairs
    assert not x1.commutes_with(z1)
    assert not x2.commutes_with(z2)


def test_genon_cut_validation():
    with pytest.raises(StabilizerError):
        build_bilayer_genon_code(6, cuts=((2, 2, 4), (2, 2, 4)))
    with pytest.raises(StabilizerError):
        build_bilayer_genon_code(6, cuts=((0, 2, 4), (4, 2, 4)))
    with pytest.raises(StabilizerError):
        build_bilayer_genon_code(6, cuts=((2, 0, 4), (4, 0, 4)))
    with pytest.raises(StabilizerError):
        build_bilayer_genon_code(6, cuts=((2, 2, 3), (4, 2, 3)))


def test_double_genon_loop_is_a_stabilizer():
    code = build_bilayer_genon_code(6)
    for cut_index in (0, 1):
        for endpoint in (0, 1):
            loop = genon_double_loop(code, cut_index, endpoint)
            assert loop.weight() == 8
            assert code.contains(loop)


def test_merged_endpoint_stars_have_weight_eight():
    code = build_bilayer_genon_code(6)
    n = code.n
    gens = code.generator_matrix
    weights = sorted(PauliOp(row[:n], row[n:]).weight() for row in gens)
    assert weights.count(8) >= 4


def test_layer_swap_trivial_on_logicals():
    code = build_bilayer_genon_code(6)
    act = protocol_action(code, ["layer_swap"])
    assert np.array_equal(act["symplectic"], np.eye(4, dtype=np.uint8))


def test_mirror_swap_protocol_gives_ras():
    code = build_bilayer_genon_code(6)
    act = protocol_action(code, ["reflect_antidiagonal", "patch_layer_swap"])
    assert np.array_equal(act["symplectic"], _target_hh_swap())


def test_mirror_swap_mirror_protocol_gives_s():
    code = build_bilayer_genon_code(6)
    act = protocol_action(
        code, ["reflect_antidiagonal", "patch_layer_swap", "reflect_vertical"])
    assert np.array_equal(act["symplectic"], _target_hh_swap())


def test_mirror_alone_moves_the_cuts():
    code = build_bilayer_genon_code(6)
    with pytest.raises(StabilizerError):
        protocol_action(code, ["reflect_antidiagonal"])


def test_patch_swap_alone_does_not_normalize():
    code = build_bilayer_genon_code(6)
    with pytest.raises(StabilizerError, match="does not normalize"):
        protocol_action(code, ["patch_layer_swap"])


def test_empty_protocol_is_identity():
    code = build_bilayer_genon_code(6)
    act = protocol_action(code, [])
    assert np.array_equal(act["symplectic"], np.eye(4, dtype=np.uint8))


def test_k_is_invariant_under_automorphisms():
    code = build_bilayer_genon_code(6)
    for move in ("layer_swap", "reflect_vertical"):
        perm = geometric_permutation(code, move)
        assert logical_action(code, perm)["k"] == 2
        assert gf2_rank(perm.permute_bits(code.generator_matrix)) \
            == code.n - 2


# -- folded views ---------------------------------------------------------


def test_diagonal_fold_certificate():
    code = build_toric_torus(4)
    fmap = diagonal_fold_map(code)
    perm = geometric_permutation(code, "reflect_diagonal")
    cert = folded_view(code, fmap, perm)
    assert cert["transversal"]
    for site_perm in cert["per_site"].values():
        assert site_perm == {1: 2, 2: 1}


def test_vertical_reflection_is_not_transversal_for_diagonal_fold():
    code = build_toric_torus(4)
    fmap = diagonal_fold_map(code)
    perm = geometric_permutation(code, "reflect_vertical")
    with pytest.raises(StabilizerError, match="not transversal"):
        folded_view(code, fmap, perm)


def test_identity_is_transversal():
    code = build_toric_torus(2)
    fmap = diagonal_fold_map(code)
    ident = QubitPermutation(np.arange(code.n), name="identity")
    cert = folded_view(code, fmap, ident)
    assert cert["transversal"]


# -- distances ------------------------------------------------------------


@pytest.mark.parametrize("L", [2, 3, 4])
def test_torus_distance_is_L(L):
    assert exact_z_distance(build_toric_torus(L)) == L


def test_distance_limit_is_checked_before_enumeration(monkeypatch):
    code = build_toric_torus(4)         # Z-kernel dimension 32 - 15 = 17
    packed = []
    pack = stab._pack_rows
    monkeypatch.setattr(stab, "_pack_rows",
                        lambda mat: packed.append(mat.shape) or pack(mat))
    with pytest.raises(StabilizerError,
                       match="^kernel dimension 17 exceeds limit 16$"):
        exact_z_distance(code, limit_dim=16)
    # Only the X checks were packed, to find the kernel; enumeration
    # starts by packing the logicals, which never happened.
    assert packed == [(code.generator_matrix.shape[0], code.n)]
    assert exact_z_distance(code, limit_dim=17) == 4


def test_distance_bound_grows_with_cut_separation():
    near = build_bilayer_genon_code(10, cuts=((4, 2, 8), (5, 2, 8)))
    far = build_bilayer_genon_code(10, cuts=((3, 2, 8), (6, 2, 8)))
    ub_near = min_logical_weight_upper_bound(near, seed=3, sweeps=400)
    ub_far = min_logical_weight_upper_bound(far, seed=3, sweeps=400)
    assert ub_near < ub_far


# -- exports --------------------------------------------------------------


def test_text_export_shape():
    code = build_toric_torus(2)
    lines = code.export_text().strip().split("\n")
    assert len(lines) == len(code.generator_matrix)
    assert all(len(line) == code.n for line in lines)
    assert set("".join(lines)) <= set("IXYZ")


def test_symplectic_json_export():
    import json

    code = build_toric_torus(2)
    act = logical_action(code, geometric_permutation(code, "reflect_diagonal"))
    doc = json.loads(stab.export_symplectic_json(act))
    assert doc["k"] == 2
    assert np.array_equal(np.array(doc["symplectic"]), act["symplectic"])


def test_symplectic_from_unitary_rejects_non_clifford():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(mat)
    with pytest.raises(StabilizerError):
        symplectic_from_unitary(q)

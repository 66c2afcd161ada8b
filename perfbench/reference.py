"""Expected results computed without qorigami.

Every check the benchmark makes compares a job's output with a value
derived here from the paper's definitions, never with a stored copy of an
earlier run's output:

- the generator matrices S, T, Ra, Rb and C of the extended mapping class
  group, and exact 2x2 integer products of words in them;
- the toric-code Clifford S = (H x H) SWAP and its GF(2) symplectic action,
  derived from this module's own Pauli matrices;
- a GF(2) rank over Python-int bitsets;
- the closed-form modular S matrices of the five models, and the noiseless
  forward map that writes the records files read by `measure extract`;
- truncated Fock bases and SWAP / cyclic-permutation expectations obtained
  by permuting amplitudes directly.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math

import numpy as np

# -- mapping class group --------------------------------------------------

# Action on homology vectors (p, q): S is the quarter rotation, T the Dehn
# twist along alpha, Ra / Rb the reflections inverting alpha / beta, and C
# the central inversion.
GENERATORS = {
    "S": ((0, 1), (-1, 0)),
    "T": ((1, 0), (1, 1)),
    "Ra": ((-1, 0), (0, 1)),
    "Rb": ((1, 0), (0, -1)),
    "C": ((-1, 0), (0, -1)),
}

IDENTITY2 = ((1, 0), (0, 1))

# The word each catalog protocol realizes according to the paper (figure
# or appendix named in the entry).  Words act left to right as matrix
# products.
CATALOG_WORDS = {
    "fig2_fold2_RaS": ("Ra", "S"),
    "appB_8layer_RaS": ("Ra", "S"),
    "appB_8layer_S": ("S",),
    "fig3_genon4_RaS": ("Ra", "S"),
    "appE_4layer_RaS": ("Ra", "S"),
    "appE_4layer_RbS": ("Rb", "S"),
    "appD_4layer_C": ("C",),
    "appD_bilayer_C": ("C",),
    "appC_hexagon_TRb": ("T", "Rb"),
    "appC_hexagon_RbS": ("Rb", "S"),
    "appC_hexagon_RaS": ("Ra", "S"),
    "appE_12layer_TRb": ("T", "Rb"),
    "appE_12layer_RbS": ("Rb", "S"),
    "appE_12layer_RaS": ("Ra", "S"),
    "appE_12layer_C": ("C",),
}


def matmul2(m, n):
    """Exact product of two 2x2 integer matrices given as nested tuples."""
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def word_matrix(word) -> tuple:
    """Matrix of a word in the generators, leftmost token the left factor."""
    out = IDENTITY2
    for token in word:
        out = matmul2(out, GENERATORS[token])
    return out


# -- toric-code Clifford and GF(2) symplectic algebra ----------------------

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Logical basis order of the 4x4 symplectic matrices: (X1, Z1, X2, Z2).
_SYMPLECTIC_BASIS = ("XI", "ZI", "IX", "IZ")
_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def two_qubit_swap() -> np.ndarray:
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[2 * a + b, 2 * b + a] = 1.0
    return swap


def toric_s_unitary() -> np.ndarray:
    """Toric-code logical S move: (H x H) SWAP on the two encoded qubits."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    return np.kron(h, h) @ two_qubit_swap()


def symplectic_action(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """GF(2) matrix whose column j holds the bits of u P_j u^dagger."""
    paulis = {a + b: np.kron(PAULI[a], PAULI[b])
              for a in "IXYZ" for b in "IXYZ"}
    out = np.zeros((4, 4), dtype=np.uint8)
    for col, gen in enumerate(_SYMPLECTIC_BASIS):
        image = u @ paulis[gen] @ u.conj().T
        label = next(lab for lab, p in paulis.items()
                     if any(np.max(np.abs(image - ph * p)) < tol
                            for ph in (1, -1, 1j, -1j)))
        bits = _BITS[label[0]] + _BITS[label[1]]
        out[:, col] = bits
    return out


def symplectic_form(twok: int = 4) -> np.ndarray:
    lam = np.zeros((twok, twok), dtype=np.int64)
    for i in range(0, twok, 2):
        lam[i, i + 1] = lam[i + 1, i] = 1
    return lam


def is_symplectic(a) -> bool:
    """A^T Lambda A = Lambda over GF(2)."""
    a = np.asarray(a, dtype=np.int64)
    lam = symplectic_form(a.shape[0])
    return bool(np.array_equal((a.T @ lam @ a) % 2, lam))


# The logical word each torus move and genon protocol realizes on the toric
# code (reflections act trivially on the toric-code anyon basis, so "Ra S"
# and "S" give the same Clifford).
TORUS_MOVE_WORDS = {
    "reflect_diagonal": ("Ra", "S"),
    "reflect_vertical": (),
    "rotate_quarter_about_vertex": ("Ra", "S"),
    "rotate_quarter_about_plaquette": ("Ra", "S"),
}

GENON_PROTOCOL_WORDS = {
    "genon_mirror_swap": ("Ra", "S"),
    "genon_mirror_swap_mirror": ("S",),
    "layer_swap_only": (),
}


def expected_symplectic(word) -> np.ndarray:
    """Toric-code symplectic action of a word over {S, Ra, Rb}."""
    u = np.eye(4, dtype=complex)
    for token in word:
        if token == "S":
            u = u @ toric_s_unitary()
        elif token not in ("Ra", "Rb"):
            raise ValueError(f"no toric-code Clifford for {token!r}")
    return symplectic_action(u)


def pack_rows(mat) -> list:
    """Rows of a 0/1 matrix as Python-int bitsets (bit j = column j)."""
    out = []
    for row in np.asarray(mat):
        value = 0
        for j in np.flatnonzero(row):
            value |= 1 << int(j)
        out.append(value)
    return out


def gf2_rank(rows) -> int:
    """Rank over GF(2) of bitset rows, by elimination on leading bits."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                rank += 1
                break
            row ^= pivots[lead]
    return rank


# -- modular data ---------------------------------------------------------


def s_matrix(model: str, k: int | None = None) -> np.ndarray:
    """Closed-form modular S matrix of a model (Laughlin needs the level)."""
    if model == "toric_code":
        return toric_s_unitary()
    if model == "double_semion":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if model == "ising":
        r = math.sqrt(2.0)
        return np.array([[1, r, 1], [r, 0, -r], [1, -r, 1]],
                        dtype=complex) / 2.0
    if model == "fibonacci":
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        return np.array([[1, phi], [phi, -1]],
                        dtype=complex) / math.sqrt(2.0 + phi)
    if model == "laughlin":
        omega = cmath.exp(2j * cmath.pi / k)
        return np.array([[omega ** (a * b) for b in range(k)]
                         for a in range(k)], dtype=complex) / math.sqrt(k)
    raise ValueError(f"unknown model {model!r}")


def conjugation(model: str, k: int | None = None) -> tuple:
    """Charge conjugation a -> a-bar; only the Z_k ladder is nontrivial."""
    if model == "laughlin":
        return tuple((-a) % k for a in range(k))
    return tuple(range(s_matrix(model).shape[0]))


def forward_records(s: np.ndarray, conj: tuple) -> list:
    """Noiseless <psi|S|psi> for every superposition preparation.

    diag:a uses |a>; plus:a,b uses (|a> + |b>)/sqrt 2; imag:a,b uses
    (|a> + i|b>)/sqrt 2; conj_diag:a measures S + C S on |a>.
    """
    n = s.shape[0]
    values = {}
    for a in range(n):
        values[f"diag:{a}"] = s[a, a]
    for a in range(n):
        for b in range(a + 1, n):
            values[f"plus:{a},{b}"] = (s[a, a] + s[b, b]
                                       + s[a, b] + s[b, a]) / 2.0
            values[f"imag:{a},{b}"] = (s[a, a] + s[b, b]
                                       + 1j * s[a, b] - 1j * s[b, a]) / 2.0
    if any(c != i for i, c in enumerate(conj)):
        for a in range(n):
            values[f"conj_diag:{a}"] = s[a, a] + s[conj[a], a]
    return [{"name": name, "re": float(complex(v).real),
             "im": float(complex(v).imag), "variance": None,
             "provenance": "reference"} for name, v in values.items()]


def write_records_file(path: str, model: str, k: int | None = None) -> None:
    """Write the `measure extract` input for a model from its closed form."""
    doc = {"model": model,
           "records": forward_records(s_matrix(model, k),
                                      conjugation(model, k))}
    if k is not None:
        doc["k"] = k
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def is_unitary(m: np.ndarray, tol: float = 1e-9) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= tol)


# -- truncated Fock spaces ------------------------------------------------


def fock_basis(n_modes: int, cutoff: int, total_cap: int | None) -> list:
    """Occupations in lexicographic product order, capped in total."""
    return [occ for occ in itertools.product(range(cutoff + 1),
                                             repeat=n_modes)
            if total_cap is None or sum(occ) <= total_cap]


def mode_permutation_expectation(state, basis, mode_perm: dict) -> complex:
    """<psi|P|psi> for the operator moving occupation of mode m to
    mode_perm[m], evaluated by permuting amplitudes."""
    index = {occ: i for i, occ in enumerate(basis)}
    image = np.zeros(len(basis), dtype=complex)
    for i, occ in enumerate(basis):
        target = list(occ)
        for src, dst in mode_perm.items():
            target[dst] = occ[src]
        image[index[tuple(target)]] = state[i]
    return complex(np.vdot(state, image))


def layer_swap_perm(sites: int, modes_per_site: int) -> dict:
    """Swap of layers 0 and 1 on every site (site-major mode order)."""
    perm = {}
    for site in range(sites):
        m0, m1 = site * modes_per_site, site * modes_per_site + 1
        perm[m0], perm[m1] = m1, m0
    return perm


def cyclic_layer_perm(modes_per_site: int, site: int = 0) -> dict:
    """Layer k -> k + 1 (mod N) on one site."""
    base = site * modes_per_site
    return {base + k: base + (k + 1) % modes_per_site
            for k in range(modes_per_site)}


def permutation_matrix(basis, mode_perm: dict) -> np.ndarray:
    index = {occ: i for i, occ in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, occ in enumerate(basis):
        target = list(occ)
        for src, dst in mode_perm.items():
            target[dst] = occ[src]
        out[index[tuple(target)], i] = 1.0
    return out

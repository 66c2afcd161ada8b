"""Modular data for the anyon models used by the logical-gate dictionary.

Each model stores its label set, quantum dimensions, modular S matrix,
topological spins (the diagonal of T), and the charge-conjugation
permutation.  Consistency checks (unitarity, Verlinde fusion integrality,
Gauss sum) are implemented against the stored data.

The abelian Z_k ladder models use the quadratic twist assignment
theta_a = exp(i pi a^2 / k) for even k and theta_a = exp(i pi a^2 (k+1) / k)
for odd k; both reproduce the mutual statistics exp(i 2 pi a a' / k) and a
unit-modulus Gauss sum, and the even case matches the semion spin i at
k = 2.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


class AnyonError(ValueError):
    """Raised for inconsistent modular data or unsupported requests."""


class UnsupportedReflectionError(AnyonError):
    """Raised when a reflection word has no action on the encoded space."""


@dataclass(frozen=True)
class ModularData:
    """Modular data of a single anyon model."""

    name: str
    labels: tuple[str, ...]
    dims: tuple[float, ...]
    s_matrix: np.ndarray
    theta: tuple[complex, ...]
    conj: tuple[int, ...]
    chiral: bool = True
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.labels)
        s = np.asarray(self.s_matrix, dtype=complex)
        if s.shape != (n, n):
            raise AnyonError(f"S matrix shape {s.shape} does not match {n} labels")
        if len(self.dims) != n or len(self.theta) != n or len(self.conj) != n:
            raise AnyonError("dims, theta and conj must match the label count")
        if sorted(self.conj) != list(range(n)):
            raise AnyonError(f"conj must be a permutation, got {self.conj}")
        object.__setattr__(self, "s_matrix", s)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def total_dim(self) -> float:
        return math.sqrt(sum(d * d for d in self.dims))

    @property
    def t_matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.theta, dtype=complex))

    @property
    def conj_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        for a, ab in enumerate(self.conj):
            m[ab, a] = 1.0
        return m

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise AnyonError(f"unknown label {label!r} in model {self.name}") from None

    def gauss_sum(self) -> complex:
        total = sum(d * d * t for d, t in zip(self.dims, self.theta))
        return total / self.total_dim

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        s = self.s_matrix
        payload = {
            "name": self.name,
            "labels": list(self.labels),
            "dims": list(self.dims),
            "s_real": s.real.tolist(),
            "s_imag": s.imag.tolist(),
            "theta_real": [t.real for t in self.theta],
            "theta_imag": [t.imag for t in self.theta],
            "conj": list(self.conj),
            "chiral": self.chiral,
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModularData":
        """Inverse of to_json; AnyonError for a malformed document."""
        d = json.loads(text)
        if not isinstance(d, dict) or not _JSON_FIELDS.keys() <= d.keys():
            raise AnyonError("a model document is a JSON object with keys "
                             + ", ".join(_JSON_FIELDS))
        for key, (ndim, kinds) in _JSON_FIELDS.items():
            try:
                arr = np.asarray(d[key])
            except ValueError:      # ragged nesting
                arr = None
            if arr is None or arr.ndim != ndim or arr.dtype.kind not in kinds:
                raise AnyonError(f"model field {key!r} is not a {ndim}-D "
                                 f"array of dtype kind {kinds!r}")
        s = np.array(d["s_real"]) + 1j * np.array(d["s_imag"])
        theta = tuple(map(complex, d["theta_real"], d["theta_imag"]))
        return ModularData(
            name=d["name"],
            labels=tuple(d["labels"]),
            dims=tuple(d["dims"]),
            s_matrix=s,
            theta=theta,
            conj=tuple(d["conj"]),
            chiral=bool(d["chiral"]),
        )


# Dimension and numpy dtype kinds of each field of a model document.
_JSON_FIELDS = {"name": (0, "U"), "labels": (1, "U"), "dims": (1, "iuf"),
                "s_real": (2, "iuf"), "s_imag": (2, "iuf"),
                "theta_real": (1, "iuf"), "theta_imag": (1, "iuf"),
                "conj": (1, "iu"), "chiral": (0, "b")}


# -- built-in models -----------------------------------------------------


def _toric_code() -> ModularData:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[2 * a + b, 2 * b + a] = 1.0
    s = np.kron(h, h) @ swap
    return ModularData(
        name="toric_code",
        labels=("1", "m", "e", "em"),
        dims=(1.0, 1.0, 1.0, 1.0),
        s_matrix=s.astype(complex),
        theta=(1, 1, 1, -1),
        conj=(0, 1, 2, 3),
        chiral=False,
        metadata={"basis": "|n_e n_m> with n_e the leading bit"},
    )


def _laughlin(k: int) -> ModularData:
    if k < 2:
        raise AnyonError("ladder models need k >= 2")
    omega = cmath.exp(2j * cmath.pi / k)
    s = np.array(
        [[omega ** (a * b) for b in range(k)] for a in range(k)], dtype=complex
    ) / math.sqrt(k)
    if k % 2 == 0:
        theta = tuple(cmath.exp(1j * cmath.pi * a * a / k) for a in range(k))
    else:
        theta = tuple(
            cmath.exp(1j * cmath.pi * a * a * (k + 1) / k) for a in range(k)
        )
    conj = tuple((-a) % k for a in range(k))
    return ModularData(
        name=f"laughlin_{k}",
        labels=tuple(str(a) for a in range(k)),
        dims=(1.0,) * k,
        s_matrix=s,
        theta=theta,
        conj=conj,
        chiral=True,
    )


def _double_semion() -> ModularData:
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    return ModularData(
        name="double_semion",
        labels=("1", "s"),
        dims=(1.0, 1.0),
        s_matrix=h,
        theta=(1, 1j),
        conj=(0, 1),
        chiral=False,
        metadata={"basis": "|n_s>; the anti-semion sector is tracked implicitly"},
    )


def _double_semion_doubled() -> ModularData:
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    s = np.kron(h, h.conj())
    return ModularData(
        name="double_semion_doubled",
        labels=("1", "sb", "s", "ssb"),
        dims=(1.0, 1.0, 1.0, 1.0),
        s_matrix=s,
        theta=(1, -1j, 1j, 1),
        conj=(0, 1, 2, 3),
        chiral=False,
        metadata={"basis": "|n_s n_sb>"},
    )


def _ising() -> ModularData:
    r = math.sqrt(2.0)
    s = np.array([[1, r, 1], [r, 0, -r], [1, -r, 1]], dtype=complex) / 2.0
    return ModularData(
        name="ising",
        labels=("1", "sigma", "psi"),
        dims=(1.0, r, 1.0),
        s_matrix=s,
        theta=(1, cmath.exp(1j * cmath.pi / 8), -1),
        conj=(0, 1, 2),
        chiral=True,
    )


def _fibonacci() -> ModularData:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    norm = math.sqrt(2.0 + phi)
    s = np.array([[1, phi], [phi, -1]], dtype=complex) / norm
    return ModularData(
        name="fibonacci",
        labels=("1", "tau"),
        dims=(1.0, phi),
        s_matrix=s,
        theta=(1, cmath.exp(4j * cmath.pi / 5)),
        conj=(0, 1),
        chiral=True,
    )


_BUILDERS = {
    "toric_code": _toric_code,
    "double_semion": _double_semion,
    "double_semion_doubled": _double_semion_doubled,
    "ising": _ising,
    "fibonacci": _fibonacci,
}

MODEL_NAMES = ("toric_code", "laughlin", "double_semion", "ising", "fibonacci")


def builtin_model(name: str, k: int | None = None) -> ModularData:
    """Return one of the built-in models; ``laughlin`` needs the level k."""
    if name == "laughlin":
        if k is None:
            raise AnyonError("laughlin requires the level k")
        return _laughlin(k)
    if name in _BUILDERS:
        if k is not None:
            raise AnyonError(f"model {name!r} takes no level parameter")
        return _BUILDERS[name]()
    raise AnyonError(f"unknown model {name!r}")


# -- consistency checks ---------------------------------------------------


def fusion_tensor(model: ModularData, tol: float = 1e-9) -> np.ndarray:
    """Verlinde fusion coefficients N_{ab}^c, rounded to exact integers."""
    s = model.s_matrix
    d_row = s[0]
    if np.any(np.abs(d_row) < 1e-12):
        raise AnyonError("vanishing S_{0x}; Verlinde formula undefined")
    vals = np.einsum("ax,bx,cx->abc", s / d_row, s, s.conj())
    nearest = np.round(vals.real)
    bad = (np.abs(vals - nearest) > tol) | (nearest < 0)
    if bad.any():
        a, b, c = np.argwhere(bad)[0]
        # Report the value summed term by term, so that the message does
        # not depend on the einsum's summation order.
        val = np.sum(s[a] * s[b] * s[c].conj() / d_row)
        raise AnyonError(
            f"fusion N_{{{model.labels[a]},{model.labels[b]}}}^"
            f"{model.labels[c]} = {val} is not a nonnegative integer")
    return nearest.astype(int)


def verify_modular_data(model: ModularData, tol: float = 1e-10) -> dict:
    """Run the full battery of consistency checks; returns a report dict."""
    s = model.s_matrix
    n = model.n
    eye = np.eye(n)
    checks: dict[str, bool] = {}
    details: dict[str, float | complex] = {}

    unitarity = np.max(np.abs(s @ s.conj().T - eye))
    checks["s_unitary"] = bool(unitarity <= tol)
    details["s_unitarity_defect"] = float(unitarity)

    symmetry = np.max(np.abs(s - s.T))
    checks["s_symmetric"] = bool(symmetry <= tol)
    details["s_symmetry_defect"] = float(symmetry)

    conj_defect = np.max(np.abs(s @ s - model.conj_matrix))
    checks["s_squared_is_conj"] = bool(conj_defect <= tol)
    details["s_squared_defect"] = float(conj_defect)

    dim_defect = max(
        abs(s[a, 0].real * model.total_dim - model.dims[a]) for a in range(n)
    )
    checks["first_column_dims"] = bool(dim_defect <= 1e-9)
    details["dim_defect"] = float(dim_defect)

    try:
        fusion_tensor(model)
        checks["fusion_integral"] = True
    except AnyonError:
        checks["fusion_integral"] = False

    gauss = model.gauss_sum()
    checks["gauss_unit_modulus"] = bool(abs(abs(gauss) - 1.0) <= tol)
    details["gauss_sum"] = gauss

    # (S T)^3 = Theta * S^2 * C with Theta the Gauss sum.  With the
    # positive-exponent Fourier convention for the abelian S matrices the
    # charge-conjugation factor cancels S^2 and the right side is Theta * 1;
    # for self-conjugate models the relation reduces to the familiar
    # (S T)^3 = Theta * S^2.
    st3 = np.linalg.matrix_power(s @ model.t_matrix, 3)
    rel_defect = np.max(np.abs(st3 - gauss * (s @ s @ model.conj_matrix)))
    checks["st_cubed_relation"] = bool(rel_defect <= 1e-9)
    details["st_cubed_defect"] = float(rel_defect)

    return {"model": model.name, "checks": checks, "details": details}


# -- representations ------------------------------------------------------


def rep_on_torus(model: ModularData, word: str | Iterable[str]) -> np.ndarray:
    """Matrix representing an extended-group word on the torus Hilbert space.

    Reflection tokens are supported for the non-chiral models only: the
    toric code represents them trivially, while the double-semion encoding
    swaps its semion and anti-semion sectors so that only words with an
    even number of reflections preserve the encoded space.
    """
    from . import mcg

    tokens = mcg.parse_word(word)
    reflections = sum(tok.startswith(("Ra", "Rb")) for tok in tokens)
    ds_like = model.name.startswith("double_semion")
    if reflections:
        if model.chiral:
            raise UnsupportedReflectionError(
                f"model {model.name} is chiral; reflections act between "
                "conjugate theories and have no single-theory matrix"
            )
        if ds_like and reflections % 2:
            raise UnsupportedReflectionError(
                "odd number of reflections maps the double-semion encoding "
                "onto the anti-semion sector"
            )

    out = np.eye(model.n, dtype=complex)
    mirrored = False
    for tok in tokens:
        inverse = tok.endswith("^-1")
        base = tok[:-3] if inverse else tok
        if base in ("Ra", "Rb"):
            if ds_like:
                mirrored = not mirrored
            # Toric code: reflections act trivially on the anyon basis.
            continue
        if base == "C":
            mat = model.conj_matrix.astype(complex)
        elif base == "S":
            mat = model.s_matrix
        elif base == "T":
            mat = model.t_matrix
        else:  # pragma: no cover - parse_word already validated
            raise AnyonError(f"unknown token {tok!r}")
        if mirrored:
            mat = mat.conj()
        if inverse:
            mat = mat.conj().T
        out = out @ mat
    return out


def sector_element(model: ModularData, word: str | Iterable[str],
                   bra: str, ket: str) -> complex:
    mat = rep_on_torus(model, word)
    return complex(mat[model.index(bra), model.index(ket)])


def mixed_state_expectation(model: ModularData, word: str | Iterable[str]) -> complex:
    """Expectation of the word's representation in the maximally mixed state."""
    mat = rep_on_torus(model, word)
    return complex(np.trace(mat) / model.n)


# -- logical gate dictionary ----------------------------------------------


def gate_dictionary(model: ModularData) -> dict[str, dict]:
    """Named logical gates realizing the S and T matrices of a model."""
    name = model.name
    entries: dict[str, dict] = {}
    if name == "toric_code":
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        swap = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                swap[2 * a + b, 2 * b + a] = 1.0
        entries["S"] = {"gate": "(H x H) SWAP", "matrix": np.kron(h, h) @ swap}
        entries["T"] = {"gate": "CZ", "matrix": np.diag([1, 1, 1, -1]).astype(complex)}
    elif name.startswith("laughlin"):
        entries["S"] = {"gate": f"fourier_{model.n}", "matrix": model.s_matrix}
        entries["T"] = {"gate": f"phase_{model.n}", "matrix": model.t_matrix}
    elif name == "double_semion":
        entries["S"] = {"gate": "H", "matrix": model.s_matrix}
        entries["T"] = {"gate": "P = diag(1, i)", "matrix": model.t_matrix}
    else:
        entries["S"] = {"gate": f"{name}_s", "matrix": model.s_matrix}
        entries["T"] = {"gate": f"{name}_t", "matrix": model.t_matrix}
    return entries


def verify_gate_dictionary(model: ModularData, tol: float = 1e-10) -> bool:
    """Each dictionary gate must equal the representation up to global phase."""
    for token, entry in gate_dictionary(model).items():
        rep = rep_on_torus(model, [token])
        gate = entry["matrix"]
        # Align global phase on the largest entry.
        idx = np.unravel_index(np.argmax(np.abs(rep)), rep.shape)
        if abs(gate[idx]) < 1e-12:
            return False
        phase = rep[idx] / gate[idx]
        if abs(abs(phase) - 1.0) > tol:
            return False
        if np.max(np.abs(rep - phase * gate)) > tol:
            return False
    return True

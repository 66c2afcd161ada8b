"""Microscopic stabilizer oracle.

Builds toric codes on an L x L torus and bilayer genon codes on a planar
patch with two interior branch cuts, applies lattice isometries and layer
permutations as qubit permutations, and extracts the induced logical
symplectic action for comparison with the anyon-level matrices.

Conventions: qubits live on lattice edges; a star is the X product over the
edges at a vertex, a plaquette the Z product over the edges of a face.  In
the bilayer code every patch edge exists once per layer; crossing one of
the two open branch-cut segments toggles the layer, objects sitting exactly
on a cut line are nudged west, and the four cut endpoints carry a single
merged weight-8 star because a walk around them closes only after two
turns.  The planar outer boundary is declared charge-free by promoting the
dual loop just inside each layer's boundary to a stabilizer.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class StabilizerError(ValueError):
    """Raised for invalid codes, moves, or non-automorphism permutations."""


# -- GF(2) linear algebra -------------------------------------------------


def _pack_rows(mat: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as an int whose bit j is column j."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width:(i + 1) * width], "little")
            for i in range(packed.shape[0])]


def gf2_row_reduce(mat: np.ndarray) -> dict[int, int]:
    """Reduced row echelon form over GF(2) as {pivot bit: row bitset},
    bit j of a row being column j; keys ascend.

    The rows are packed once into an XOR basis keyed by each row's lowest
    set bit, then back-substituted from the highest pivot down, so each
    row clears only the set bits it has at higher pivots.
    """
    basis: dict[int, int] = {}
    for w in _pack_rows(np.asarray(mat, dtype=np.uint8) % 2):
        while w:
            low = w & -w
            row = basis.get(low)
            if row is None:
                basis[low] = w
                break
            w ^= row
    reduced: dict[int, int] = {}
    above = 0
    for low in sorted(basis, reverse=True):
        w = basis[low]
        hits = w & above
        while hits:
            bit = hits & -hits
            w ^= reduced[bit]
            hits ^= bit
        reduced[low] = w
        above |= low
    return dict(reversed(reduced.items()))


def gf2_rank(mat: np.ndarray) -> int:
    return len(gf2_row_reduce(mat))


def _residue_words(echelon: dict[int, int], vecs: np.ndarray) -> list[int]:
    """Bitsets of the rows of vecs with the echelon span eliminated.

    The echelon rows are reduced, so a row carries no pivot bit but its
    own: XOR-ing the row of each pivot bit a vector has set clears them
    all, and the result is zero iff the vector lies in the span.
    """
    pivot_mask = sum(echelon)
    out = []
    for w in _pack_rows(np.asarray(vecs, dtype=np.uint8) % 2):
        hits = w & pivot_mask
        while hits:
            bit = hits & -hits
            w ^= echelon[bit]
            hits ^= bit
        out.append(w)
    return out


def _symplectic_products(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Symplectic form mod 2 between every row of a and every row of b.

    The uint8 sums wrap mod 256, which keeps their parity; einsum runs
    several times faster than matmul on integer operands.
    """
    return (np.einsum("ik,jk->ij", a[:, :n], b[:, n:])
            ^ np.einsum("ik,jk->ij", a[:, n:], b[:, :n])) & 1


def _first_clash(gens: np.ndarray, n: int) -> int | None:
    """Least i whose generator fails to commute with a later one, or None.

    Lists every pair (i, j) of rows sharing a qubit where row i has X and
    row j has Z; the symplectic product of {i, j} is the parity of how
    often the pair appears, in either order.  Work and memory follow the
    number of such pairs, not rows squared, and the pairs are counted
    without a sort, whose kernels would add to a short process's peak
    resident memory.
    """
    rows = gens.shape[0]
    # (qubit, row) of every X and every Z entry, qubit by qubit: a flat
    # scan of a transposed bool copy is several times faster than a 2-D
    # np.nonzero.
    xq, xr = np.divmod(np.flatnonzero(gens[:, :n].T.astype(bool)), rows)
    zq, zr = np.divmod(np.flatnonzero(gens[:, n:].T.astype(bool)), rows)
    z_per_qubit = np.bincount(zq, minlength=n)
    counts = z_per_qubit[xq]
    z_first = (np.cumsum(z_per_qubit) - z_per_qubit)[xq]
    pair_first = np.cumsum(counts) - counts
    i = np.repeat(xr, counts)
    j = zr[np.repeat(z_first - pair_first, counts) + np.arange(counts.sum())]
    keys = np.where(i < j, i * rows + j, j * rows + i)[i != j]
    odd = [key for key, times in Counter(keys.tolist()).items() if times % 2]
    return min(odd) // rows if odd else None


# -- Pauli operators ------------------------------------------------------


@dataclass(frozen=True)
class PauliOp:
    """n-qubit Pauli i^phase * X^x Z^z in binary-symplectic form."""

    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.uint8) % 2
        z = np.asarray(self.z, dtype=np.uint8) % 2
        if x.shape != z.shape or x.ndim != 1:
            raise StabilizerError("x and z bit vectors must be equal-length 1D")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase", int(self.phase) % 4)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @staticmethod
    def identity(n: int) -> "PauliOp":
        return PauliOp(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @staticmethod
    def from_string(text: str) -> "PauliOp":
        x = np.array([c in "XY" for c in text], dtype=np.uint8)
        z = np.array([c in "ZY" for c in text], dtype=np.uint8)
        if any(c not in "IXYZ" for c in text):
            raise StabilizerError(f"invalid Pauli string {text!r}")
        return PauliOp(x, z, phase=int(np.sum(x & z)))

    def to_string(self) -> str:
        letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
        return "".join(letters[(int(a), int(b))] for a, b in zip(self.x, self.z))

    def weight(self) -> int:
        return int(np.sum(self.x | self.z))

    def commutes_with(self, other: "PauliOp") -> bool:
        sym = int(np.sum(self.x & other.z) + np.sum(self.z & other.x)) % 2
        return sym == 0

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise StabilizerError("qubit count mismatch")
        cross = 2 * int(np.sum(self.z & other.x))
        return PauliOp(self.x ^ other.x, self.z ^ other.z,
                       self.phase + other.phase + cross)

    def symplectic_bits(self) -> np.ndarray:
        return np.concatenate([self.x, self.z])


@dataclass(frozen=True)
class QubitPermutation:
    """Bijection on qubit indices, optionally with per-qubit Hadamard tags."""

    image: np.ndarray
    tags: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        image = np.asarray(self.image, dtype=np.int64)
        if sorted(image.tolist()) != list(range(image.shape[0])):
            raise StabilizerError("image is not a permutation")
        object.__setattr__(self, "image", image)

    @property
    def n(self) -> int:
        return self.image.shape[0]

    def compose(self, first: "QubitPermutation") -> "QubitPermutation":
        """Permutation acting as self after first."""
        if self.tags or first.tags:
            raise StabilizerError("cannot compose tagged permutations")
        return QubitPermutation(self.image[first.image],
                                name=f"{self.name}*{first.name}")

    def inverse(self) -> "QubitPermutation":
        if self.tags:
            raise StabilizerError("cannot invert tagged permutations")
        inv = np.empty_like(self.image)
        inv[self.image] = np.arange(self.n)
        return QubitPermutation(inv, name=f"{self.name}^-1")

    def permute_bits(self, bits: np.ndarray) -> np.ndarray:
        """Conjugate each (x | z) row of bits by the permutation and tags."""
        n = self.n
        out = np.zeros_like(bits)
        out[:, self.image] = bits[:, :n]
        out[:, n + self.image] = bits[:, n:]
        for tag in self.tags.values():
            if tag != "H":
                raise StabilizerError(f"unsupported Clifford tag {tag!r}")
        if self.tags:
            tagged = np.fromiter(self.tags, dtype=np.int64)
            out[:, tagged], out[:, n + tagged] = \
                out[:, n + tagged], out[:, tagged]
        return out


# -- stabilizer codes -----------------------------------------------------


@dataclass(frozen=True)
class StabilizerCode:
    n: int
    generator_matrix: np.ndarray
    logical_pairs: tuple[tuple[PauliOp, PauliOp], ...]
    qubit_coords: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # (x | z) rows of the generators; read-only, as every check shares
        # this one copy.
        gens = np.asarray(self.generator_matrix, dtype=np.uint8) % 2
        if gens.ndim != 2 or gens.shape[1] != 2 * self.n:
            raise StabilizerError("generator size mismatch")
        gens.flags.writeable = False
        object.__setattr__(self, "generator_matrix", gens)
        clash = _first_clash(gens, self.n)
        if clash is not None:
            raise StabilizerError(f"generators do not commute: {clash}")
        logicals = self._logical_bits
        if _symplectic_products(logicals, gens, self.n).any():
            raise StabilizerError("logical fails to commute with group")
        # A set entry of defect at (2i, 2i + 1) means pair i commutes; one
        # between two pairs means they fail to commute.  Rows are scanned
        # in pair order, so the first defect found is reported.
        defect = (_symplectic_products(logicals, logicals, self.n)
                  ^ _symplectic_form(logicals.shape[0]))
        for i in range(len(self.logical_pairs)):
            if defect[2 * i, 2 * i + 1]:
                raise StabilizerError(f"logical pair {i} commutes")
            if defect[2 * i:2 * i + 2].any():
                raise StabilizerError("cross-pair logicals do not commute")
        if self.k != len(self.logical_pairs):
            raise StabilizerError(
                f"rank gives k={self.k}, but {len(self.logical_pairs)} "
                "logical pairs supplied")

    @cached_property
    def _logical_bits(self) -> np.ndarray:
        """(x | z) rows of the logicals in (X1, Z1, X2, Z2, ...) order;
        read-only, stacked once per code."""
        bits = np.array([op.symplectic_bits() for pair in self.logical_pairs
                         for op in pair], dtype=np.uint8)
        bits = bits.reshape(-1, 2 * self.n)
        bits.flags.writeable = False
        return bits

    @cached_property
    def _qubit_index(self) -> dict:
        """Qubit index of each coordinate: the inverse of qubit_coords."""
        return {coord: q for q, coord in self.qubit_coords.items()}

    @cached_property
    def _echelon(self) -> dict[int, int]:
        """gf2_row_reduce of the generator matrix, computed once per code;
        rank and every membership test reuse it."""
        return gf2_row_reduce(self.generator_matrix)

    @property
    def k(self) -> int:
        return self.n - len(self._echelon)

    def _residues(self, bits: np.ndarray) -> list[int]:
        """Bitsets of the rows of bits with the stabilizer span eliminated;
        a zero is a member of the group (up to phase)."""
        return _residue_words(self._echelon, bits)

    def contains(self, op: PauliOp) -> bool:
        """Membership in the stabilizer group, ignoring phases."""
        return not any(self._residues(op.symplectic_bits()[None, :]))

    def export_text(self) -> str:
        gens, n = self.generator_matrix, self.n
        letters = np.array(list("IXZY"))[gens[:, :n] + 2 * gens[:, n:]]
        return "\n".join("".join(row) for row in letters) + "\n"


def _pauli_rows(n: int, supports) -> np.ndarray:
    """(x | z) rows of X- or Z-type operators given as (kind, qubits)
    supports; a qubit listed twice cancels."""
    width = 2 * n
    flat = np.array([row * width + q + (0 if kind == "X" else n)
                     for row, (kind, qubits) in enumerate(supports)
                     for q in qubits], dtype=np.int64)
    mat = np.zeros(len(supports) * width, dtype=np.uint8)
    np.bitwise_xor.at(mat, flat, 1)
    return mat.reshape(len(supports), width)


def _pauli(n: int, kind: str, qubits) -> PauliOp:
    bits = _pauli_rows(n, [(kind, qubits)])[0]
    return PauliOp(bits[:n], bits[n:])


# -- toric code on the torus ----------------------------------------------


def _torus_edge(L: int, x: int, y: int, o: int) -> int:
    return (o * L + (y % L)) * L + (x % L)


def build_toric_torus(L: int) -> StabilizerCode:
    """Toric code on an L x L torus: n = 2L^2 edge qubits, k = 2."""
    if L < 2:
        raise StabilizerError("torus needs L >= 2")
    n = 2 * L * L

    def e(x, y, o):
        return _torus_edge(L, x, y, o)

    stars = [("X", [e(x, y, 0), e(x - 1, y, 0), e(x, y, 1), e(x, y - 1, 1)])
             for x in range(L) for y in range(L)]
    plaquettes = [("Z", [e(x, y, 0), e(x, y + 1, 0), e(x, y, 1),
                         e(x + 1, y, 1)])
                  for x in range(L) for y in range(L)]

    # Loop dictionary: X1 = e-loop along alpha, Z1 = m-loop along beta,
    # X2 = m-loop along alpha, Z2 = e-loop along beta.
    x1 = _pauli(n, "Z", [e(x, 0, 0) for x in range(L)])
    z1 = _pauli(n, "X", [e(0, y, 0) for y in range(L)])
    x2 = _pauli(n, "X", [e(x, 0, 1) for x in range(L)])
    z2 = _pauli(n, "Z", [e(0, y, 1) for y in range(L)])

    coords = {}
    for o in range(2):
        for y in range(L):
            for x in range(L):
                coords[e(x, y, o)] = (0, (x, y, "HV"[o]))
    return StabilizerCode(
        n=n,
        generator_matrix=_pauli_rows(n, stars + plaquettes),
        logical_pairs=((x1, z1), (x2, z2)),
        qubit_coords=coords,
        metadata={"kind": "toric_torus", "L": L},
    )


# -- bilayer genon code ---------------------------------------------------
#
# Planar patch [0, L] x [0, L], two layers, all edges duplicated per layer.
# Cuts are vertical open segments {cx} x (ylo, yhi); points with x exactly
# on a cut line and y within the closed cut range are nudged west by an
# infinitesimal, represented exactly as a lexicographic (2*coord, nudge)
# pair.  Crossings only ever occur on horizontal probe segments.


def _genon_edges(L: int):
    edges = []
    for y in range(L + 1):
        for x in range(L):
            edges.append((x, y, 0))
    for y in range(L):
        for x in range(L + 1):
            edges.append((x, y, 1))
    return edges


def _eff_x(x2: int, y2: int, cuts) -> tuple[int, int]:
    """Effective doubled x-coordinate with west nudge on cut lines."""
    for cx, ylo, yhi in cuts:
        if x2 == 2 * cx and 2 * ylo <= y2 <= 2 * yhi:
            return (x2, -1)
    return (x2, 0)


def _h_cross(y2: int, xa: tuple[int, int], xb: tuple[int, int], cuts) -> int:
    """Cut crossings of a horizontal segment at doubled height y2."""
    lo, hi = min(xa, xb), max(xa, xb)
    count = 0
    for cx, ylo, yhi in cuts:
        if 2 * ylo < y2 < 2 * yhi and lo < (2 * cx, 0) < hi:
            count += 1
    return count


def _seg_cross(p: tuple[int, int, int], q: tuple[int, int, int], cuts) -> int:
    """Crossing parity between effective points (x2, nudge, y2)."""
    (xa, na, ya), (xb, nb, yb) = p, q
    if ya == yb:
        return _h_cross(ya, (xa, na), (xb, nb), cuts) % 2
    if (xa, na) == (xb, nb):
        return 0
    # Mixed segments in this module never straddle a cut line: one endpoint
    # sits nudged on the line and the other on the same lattice column.
    if xa == xb:
        return 0
    raise StabilizerError("unsupported probe segment geometry")


def _edge_eff_mid(e, cuts) -> tuple[int, int, int]:
    x, y, o = e
    if o == 0:
        return (2 * x + 1, 0, 2 * y)
    x2, nud = _eff_x(2 * x, 2 * y + 1, cuts)
    return (x2, nud, 2 * y + 1)


def _vertex_eff(v, cuts) -> tuple[int, int, int]:
    x, y = v
    x2, nud = _eff_x(2 * x, 2 * y, cuts)
    return (x2, nud, 2 * y)


def _face_center(f) -> tuple[int, int, int]:
    x, y = f
    return (2 * x + 1, 0, 2 * y + 1)


def _validate_cuts(L: int, cuts) -> tuple:
    if len(cuts) != 2:
        raise StabilizerError("exactly two branch cuts required")
    norm = []
    for cx, ylo, yhi in cuts:
        if not (2 <= cx <= L - 2):
            raise StabilizerError("cut line touches or exits the patch bulk")
        if not (1 <= ylo < yhi <= L - 1):
            raise StabilizerError("cut endpoints must be interior")
        norm.append((int(cx), int(ylo), int(yhi)))
    (c1, alo, ahi), (c2, blo, bhi) = sorted(norm)
    if c1 == c2:
        raise StabilizerError("cuts overlap")
    if (alo, ahi) != (blo, bhi):
        raise StabilizerError("cuts must be parallel and equal length")
    if ahi - alo < 2:
        raise StabilizerError("cut must span at least two rows")
    return (c1, alo, ahi), (c2, blo, bhi)


def _genon_qubit(L: int, e, sheet: int) -> int:
    """Qubit of edge e = (x, y, o) on a sheet, in _genon_edges order."""
    x, y, o = e
    index = y * L + x if o == 0 else L * (L + 1) + y * (L + 1) + x
    return sheet * 2 * L * (L + 1) + index


def _genon_walk(L: int, cuts, points, sheet: int, dual: bool) -> list[int]:
    """Qubits of the edges a closed walk through points passes.

    A dual walk hops between face centres across edges (X loops); a direct
    walk steps along edges between vertices (Z loops).  The sheet toggles
    at each cut crossing, and the walk must close on its starting sheet.
    """
    point = _face_center if dual else (lambda v: _vertex_eff(v, cuts))
    pick = max if dual else min
    seq = list(points) + [points[0]]
    out = []
    cur = sheet
    for (x1, y1), (x2, y2) in zip(seq, seq[1:]):
        if abs(x1 - x2) + abs(y1 - y2) != 1:
            raise StabilizerError("walk steps must be adjacent")
        # A dual step along a row crosses a vertical edge; a direct step
        # along a row runs on a horizontal one.
        e = (pick(x1, x2), pick(y1, y2), int((y1 == y2) == dual))
        mid = _edge_eff_mid(e, cuts)
        c1 = _seg_cross(point((x1, y1)), mid, cuts)
        c2 = _seg_cross(mid, point((x2, y2)), cuts)
        out.append(_genon_qubit(L, e, cur ^ c1))
        cur ^= c1 ^ c2
    if cur != sheet:
        raise StabilizerError("walk does not close on one sheet")
    return out


def build_bilayer_genon_code(L: int, cuts=None) -> StabilizerCode:
    """Two-layer planar toric-code patch with two vertical branch cuts."""
    if L < 4:
        raise StabilizerError("genon patch needs L >= 4")
    if cuts is None:
        d = max(1, L // 6)
        cuts = ((L // 2 - d, L // 2 - d, L // 2 + d),
                (L // 2 + d, L // 2 - d, L // 2 + d))
    cut_a, cut_b = _validate_cuts(L, cuts)
    cuts = (cut_a, cut_b)
    edges = _genon_edges(L)
    n = 2 * len(edges)

    genons = {(cx, yy) for cx, ylo, yhi in cuts for yy in (ylo, yhi)}

    def star_qubits(v, sheet):
        x, y = v
        out = []
        veff = _vertex_eff(v, cuts)
        incident = []
        if x < L:
            incident.append((x, y, 0))
        if x > 0:
            incident.append((x - 1, y, 0))
        if y < L:
            incident.append((x, y, 1))
        if y > 0:
            incident.append((x, y - 1, 1))
        for e in incident:
            tog = _seg_cross(veff, _edge_eff_mid(e, cuts), cuts)
            out.append(_genon_qubit(L, e, sheet ^ tog))
        return out

    def plaquette_qubits(f, sheet):
        x, y = f
        out = []
        center = _face_center(f)
        for e in ((x, y, 0), (x, y + 1, 0), (x, y, 1), (x + 1, y, 1)):
            tog = _seg_cross(center, _edge_eff_mid(e, cuts), cuts)
            out.append(_genon_qubit(L, e, sheet ^ tog))
        return out

    gens = [("X", star_qubits((x, y), sheet))
            for x in range(L + 1) for y in range(L + 1)
            if (x, y) not in genons for sheet in range(2)]
    gens += [("X", star_qubits(g, 0) + star_qubits(g, 1))
             for g in sorted(genons)]
    gens += [("Z", plaquette_qubits((x, y), sheet))
             for x in range(L) for y in range(L) for sheet in range(2)]

    # Charge-free outer boundary: the loop measuring a layer's total charge
    # (Z on every boundary edge) is promoted to a stabilizer.
    boundary_edges = [e for e in edges
                      if (e[2] == 0 and e[1] in (0, L))
                      or (e[2] == 1 and e[0] in (0, L))]
    gens += [("Z", [_genon_qubit(L, e, sheet) for e in boundary_edges])
             for sheet in range(2)]

    def walk(kind, points):
        return _pauli(n, kind, _genon_walk(L, cuts, points, 0, kind == "X"))

    def rect_faces(x0, y0, x1, y1):
        faces = [(x, y0) for x in range(x0, x1)]
        faces += [(x1, y) for y in range(y0, y1)]
        faces += [(x, y1) for x in range(x1, x0, -1)]
        faces += [(x0, y) for y in range(y1, y0, -1)]
        return faces

    (c1x, ylo, yhi), (c2x, _, _) = cut_a, cut_b
    ym = (ylo + yhi) // 2
    if not (ylo < ym < yhi):
        ym = ylo + 1

    # X1 = e-loop threading both cuts at mid-height and returning above.
    verts = [(x, ym) for x in range(c1x - 1, c2x + 2)]
    verts += [(c2x + 1, y) for y in range(ym + 1, yhi + 2)]
    verts += [(x, yhi + 1) for x in range(c2x, c1x - 2, -1)]
    verts += [(c1x - 1, y) for y in range(yhi, ym, -1)]
    x1 = walk("Z", verts)

    # Z1 = m-loop encircling the first cut (clear of the on-cut star arms).
    z1 = walk("X", rect_faces(c1x - 2, ylo - 1, c1x, yhi))

    # X2 = m-loop threading both cuts at mid-height and returning above.
    faces = [(x, ym) for x in range(c1x - 2, c2x + 2)]
    faces += [(c2x + 1, y) for y in range(ym + 1, yhi + 1)]
    faces += [(x, yhi) for x in range(c2x, c1x - 3, -1)]
    faces += [(c1x - 2, y) for y in range(yhi - 1, ym, -1)]
    x2 = walk("X", faces)

    # Z2 = e-loop encircling the first cut.
    xr = c1x + 1 if c1x + 1 < c2x else c2x
    z2 = walk("Z", [(x, ylo - 1) for x in range(c1x - 1, xr)]
              + [(xr, y) for y in range(ylo - 1, yhi + 1)]
              + [(x, yhi + 1) for x in range(xr, c1x - 1, -1)]
              + [(c1x - 1, y) for y in range(yhi + 1, ylo - 1, -1)])

    coords = {}
    for sheet in range(2):
        for e in edges:
            x, y, o = e
            coords[_genon_qubit(L, e, sheet)] = (sheet, (x, y, "HV"[o]))
    return StabilizerCode(
        n=n,
        generator_matrix=_pauli_rows(n, gens),
        logical_pairs=((x1, z1), (x2, z2)),
        qubit_coords=coords,
        metadata={
            "kind": "bilayer_genon",
            "L": L,
            "cuts": cuts,
            "boundary": "smooth per layer + charge-free dual boundary loop",
            "genon_stars": "merged weight-8 at cut endpoints",
        },
    )


def genon_double_loop(code: StabilizerCode, cut_index: int = 0,
                      endpoint: int = 0) -> PauliOp:
    """Dual loop encircling one genon twice (once per layer).

    Closes only after two laps because a single lap crosses the branch cut
    once; the result lies in the stabilizer group.
    """
    if code.metadata.get("kind") != "bilayer_genon":
        raise StabilizerError("double genon loop needs a bilayer genon code")
    L = code.metadata["L"]
    cuts = code.metadata["cuts"]
    cx, ylo, yhi = cuts[cut_index]
    gy = ylo if endpoint == 0 else yhi
    faces = [(cx - 1, gy - 1), (cx, gy - 1), (cx, gy), (cx - 1, gy)]
    return _pauli(code.n, "X", _genon_walk(L, cuts, faces * 2, 0, dual=True))


# -- geometric moves ------------------------------------------------------


def _edge_map_to_perm(code: StabilizerCode, mapper, name: str,
                      tags: dict | None = None) -> QubitPermutation:
    """Permutation sending each qubit to the qubit at mapper(its coord)."""
    image = np.empty(code.n, dtype=np.int64)
    index = code._qubit_index
    for q, coord in code.qubit_coords.items():
        target = mapper(coord)
        if target not in index:
            raise StabilizerError(
                f"move {name!r} sends qubit {coord} outside the lattice")
        image[q] = index[target]
    return QubitPermutation(image, tags=tags or {}, name=name)


def _assert_automorphism(code: StabilizerCode, perm: QubitPermutation,
                         name: str) -> None:
    images = perm.permute_bits(code.generator_matrix)
    if any(code._residues(images)):
        raise StabilizerError(
            f"move {name!r} does not normalize the stabilizer group")


def _torus_moves(L: int):
    def h(x, y):
        return (0, (x % L, y % L, "H"))

    def v(x, y):
        return (0, (x % L, y % L, "V"))

    return {
        "reflect_diagonal": lambda c: (
            v(c[1][1], c[1][0]) if c[1][2] == "H" else h(c[1][1], c[1][0])),
        "reflect_vertical": lambda c: (
            h(-c[1][0] - 1, c[1][1]) if c[1][2] == "H" else v(-c[1][0], c[1][1])),
        "rotate_quarter_about_vertex": lambda c: (
            v(-c[1][1], c[1][0]) if c[1][2] == "H"
            else h(-c[1][1] - 1, c[1][0])),
        "rotate_quarter_about_plaquette": lambda c: (
            v(1 - c[1][1], c[1][0]) if c[1][2] == "H"
            else h(-c[1][1], c[1][0])),
        # Lattice duality: shifts by half a lattice vector, exchanging
        # stars and plaquettes; only valid combined with transversal H.
        "half_translation": lambda c: (
            v(c[1][0] + 1, c[1][1]) if c[1][2] == "H"
            else h(c[1][0], c[1][1] + 1)),
    }


def _genon_edge_mapper(point_map):
    def mapper(coord):
        sheet, (x, y, o) = coord
        if o == "H":
            a, b = point_map((x, y)), point_map((x + 1, y))
        else:
            a, b = point_map((x, y)), point_map((x, y + 1))
        (xa, ya), (xb, yb) = sorted([a, b])
        if ya == yb:
            return (sheet, (xa, ya, "H"))
        return (sheet, (xa, ya, "V"))

    return mapper


def _flip_sheet(coord):
    sheet, site = coord
    return (1 - sheet, site)


def _genon_moves(code: StabilizerCode):
    L = code.metadata["L"]
    (c1x, ylo, yhi), (c2x, _, _) = code.metadata["cuts"]

    def in_central_square(coord):
        """Inter-cut square; half-open so that the swapped patch boundary
        matches the west-nudge convention of the cuts (east on-cut column
        and south row in, west column and north row out)."""
        _, (x, y, o) = coord
        lo, hi = (c1x, c2x - 1) if o == "H" else (c1x + 1, c2x)
        return lo <= x <= hi and ylo <= y <= yhi - 1

    def on_cut_columns(coord):
        _, (x, y, o) = coord
        return o == "V" and x in (c1x, c2x) and ylo <= y <= yhi - 1

    mirror = _genon_edge_mapper(lambda p: (L - p[0], p[1]))

    def reflect_vertical(coord):
        # The mirror swaps the two cuts but flips the west-nudge side;
        # compensate with a sheet swap on the on-cut columns.
        image = mirror(coord)
        return _flip_sheet(image) if on_cut_columns(image) else image

    return {
        "layer_swap": _flip_sheet,
        "patch_layer_swap": lambda c: (
            _flip_sheet(c) if in_central_square(c) else c),
        "reflect_antidiagonal": _genon_edge_mapper(
            lambda p: (L - p[1], L - p[0])),
        "reflect_vertical": reflect_vertical,
    }


def geometric_permutation(code: StabilizerCode, move: str,
                          region: str | None = None) -> QubitPermutation:
    """Qubit permutation realizing a lattice isometry or layer swap.

    The permutation need not normalize the stabilizer group (a mirror may
    move the branch cuts); logical_action checks the move it is given.
    """
    kind = code.metadata.get("kind")
    if kind == "toric_torus":
        moves, label = _torus_moves(code.metadata["L"]), "torus"
    elif kind == "bilayer_genon":
        moves, label = _genon_moves(code), "genon"
    else:
        raise StabilizerError(f"no moves defined for code kind {kind!r}")
    if move not in moves:
        raise StabilizerError(f"unknown {label} move {move!r}")
    name, tags = move, None
    if move == "half_translation":
        tags = {q: "H" for q in range(code.n)}
    if move == "patch_layer_swap":
        if region not in (None, "central_square"):
            raise StabilizerError(f"unknown region {region!r}")
        name = f"{move}[central_square]"
    return _edge_map_to_perm(code, moves[move], name, tags)


# -- logical action -------------------------------------------------------


def logical_action(code: StabilizerCode, perm: QubitPermutation) -> dict:
    """2k x 2k GF(2) symplectic matrix of a normalizing permutation."""
    _assert_automorphism(code, perm, perm.name or "perm")
    logicals = code._logical_bits
    twok = logicals.shape[0]
    images = perm.permute_bits(logicals)
    # Column j holds the coordinates of image j: its pairing with each
    # logical's partner in the (X1, Z1, X2, Z2, ...) order.
    partners = logicals[np.arange(twok) ^ 1]
    action = _symplectic_products(partners, images, code.n)
    resid = images ^ (action.T @ logicals) % 2
    if any(code._residues(resid)):
        raise StabilizerError(
            "conjugated logical is not expressible over the tableau")
    lam = _symplectic_form(twok)
    if np.any((action.T @ lam @ action) % 2 != lam):
        raise StabilizerError("extracted action is not symplectic")
    return {"symplectic": action, "k": twok // 2, "move": perm.name}


def _symplectic_form(twok: int) -> np.ndarray:
    lam = np.zeros((twok, twok), dtype=np.uint8)
    for i in range(0, twok, 2):
        lam[i, i + 1] = lam[i + 1, i] = 1
    return lam


def protocol_action(code: StabilizerCode, steps) -> dict:
    """Logical action of a protocol given as move names or permutations.

    Individual steps need not normalize the stabilizer group (a mirror may
    move the branch cuts); only the composite must.
    """
    composite = QubitPermutation(np.arange(code.n), name="identity")
    for step in steps:
        if isinstance(step, QubitPermutation):
            perm = step
        elif isinstance(step, tuple):
            perm = geometric_permutation(code, step[0], region=step[1])
        else:
            perm = geometric_permutation(code, step)
        composite = perm.compose(composite)
    composite = QubitPermutation(
        composite.image, name="+".join(_step_name(s) for s in steps) or "identity")
    return logical_action(code, composite)


def _step_name(step) -> str:
    if isinstance(step, QubitPermutation):
        return step.name
    if isinstance(step, tuple):
        return step[0]
    return str(step)


NAMED_PROTOCOLS = {
    # Step i: long-range mirror about the anti-diagonal; step ii: layer swap
    # on the inter-cut square; step iii: vertical mirror.
    "genon_mirror_swap": ["reflect_antidiagonal", "patch_layer_swap"],
    "genon_mirror_swap_mirror": [
        "reflect_antidiagonal", "patch_layer_swap", "reflect_vertical"],
    "layer_swap_only": ["layer_swap"],
}


# -- folded views ---------------------------------------------------------


def diagonal_fold_map(code: StabilizerCode) -> dict:
    """Stack-site assignment for folding the torus along the main diagonal."""
    if code.metadata.get("kind") != "toric_torus":
        raise StabilizerError("diagonal fold map applies to the torus code")
    L = code.metadata["L"]
    fold = {}
    for q, (_, (x, y, o)) in code.qubit_coords.items():
        partner = (y, x, "V" if o == "H" else "H")
        site = tuple(sorted([(x, y, o), partner]))
        layer = 1 if (x, y, o) <= partner else 2
        fold[q] = (site, layer)
    return fold


def folded_view(code: StabilizerCode, fold_map: dict,
                perm: QubitPermutation) -> dict:
    """Certify that a permutation is transversal for the given fold.

    Returns per-site layer permutations; raises with a witness qubit pair
    if the permutation couples distinct stack-sites.
    """
    per_site: dict = {}
    for q in range(code.n):
        site, layer = fold_map[q]
        tsite, tlayer = fold_map[int(perm.image[q])]
        if tsite != site:
            raise StabilizerError(
                f"not transversal: qubit {q} (site {site}) maps to "
                f"site {tsite}")
        per_site.setdefault(site, {})[layer] = tlayer
    return {"transversal": True, "per_site": per_site}


# -- comparison with the anyon-level matrices ------------------------------


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def symplectic_from_unitary(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """GF(2) symplectic action of a two-qubit Clifford unitary.

    Basis order (X1, Z1, X2, Z2); raises if u is not Clifford.
    """
    if u.shape != (4, 4):
        raise StabilizerError("expected a 4x4 unitary")
    gens = ["XI", "ZI", "IX", "IZ"]
    labels = [a + b for a in "IXZY" for b in "IXZY"]
    mats = {lab: np.kron(_PAULI_1Q[lab[0]], _PAULI_1Q[lab[1]])
            for lab in labels}
    out = np.zeros((4, 4), dtype=np.uint8)
    for col, g in enumerate(gens):
        conj = u @ mats[g] @ u.conj().T
        found = None
        for lab, m in mats.items():
            for ph in (1, -1, 1j, -1j):
                if np.max(np.abs(conj - ph * m)) < tol:
                    found = lab
                    break
            if found:
                break
        if found is None:
            raise StabilizerError(f"unitary is not Clifford on {g}")
        bits = np.zeros(4, dtype=np.uint8)
        for qi, ch in enumerate(found):
            if ch in "XY":
                bits[2 * qi] = 1
            if ch in "ZY":
                bits[2 * qi + 1] = 1
        out[:, col] = bits
    return out


# -- distance utilities ---------------------------------------------------


def exact_z_distance(code: StabilizerCode, limit_dim: int = 22) -> int:
    """Exact minimum weight of a Z-type logical, by kernel enumeration.

    Only feasible when the Z-kernel dimension is at most limit_dim.
    """
    basis = _gf2_nullspace(code.generator_matrix[:, :code.n])
    if len(basis) > limit_dim:
        raise StabilizerError(
            f"kernel dimension {len(basis)} exceeds limit {limit_dim}")
    xlog_words = _pack_rows(code._logical_bits[:, :code.n])
    # Every kernel word, beside the bitset of X logicals it anticommutes
    # with; a word pairing with none lies in the stabilizer group.
    words, pairings = [0], [0]
    for w in basis:
        pbits = sum(1 << j for j, xb in enumerate(xlog_words)
                    if (w & xb).bit_count() % 2)
        words += [v ^ w for v in words]
        pairings += [p ^ pbits for p in pairings]
    weights = [w.bit_count() for w, p in zip(words, pairings) if p]
    if not weights:
        raise StabilizerError("no Z-type logical found in the kernel")
    return min(weights)


def _gf2_nullspace(mat: np.ndarray) -> list[int]:
    """Kernel basis as bitsets: for each free column f of the reduced
    echelon form, bit f and every pivot bit whose row has bit f set."""
    echelon = gf2_row_reduce(mat)
    pivot_mask = sum(echelon)
    free = [1 << f for f in range(mat.shape[1]) if not (1 << f) & pivot_mask]
    return [f | sum(p for p, row in echelon.items() if row & f) for f in free]


def min_logical_weight_upper_bound(code: StabilizerCode, seed: int = 0,
                                   sweeps: int = 200) -> int:
    """Best found weight of a logical operator, by randomized coset descent."""
    rng = np.random.default_rng(seed)
    gen_bits = code.generator_matrix
    n = code.n

    def weight(bits):
        return int(np.sum(bits[:n] | bits[n:]))

    best = min(weight(bits) for bits in code._logical_bits)
    for current in code._logical_bits:
        for _ in range(sweeps):
            trial = current ^ gen_bits[rng.integers(gen_bits.shape[0])]
            if weight(trial) <= weight(current):
                current = trial
        best = min(best, weight(current))
    return best


def export_symplectic_json(result: dict) -> str:
    return json.dumps(
        {"k": result["k"], "move": result["move"],
         "symplectic": result["symplectic"].tolist()},
        sort_keys=True)

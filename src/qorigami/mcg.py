"""Exact integer algebra for the extended mapping class group of the torus.

Elements are 2x2 integer matrices with determinant +1 (orientation
preserving) or -1 (orientation reversing).  The generator matrices act on
homology classes p*alpha + q*beta written as integer column vectors (p, q).
All arithmetic is exact; Python integers never overflow.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


class MCGError(ValueError):
    """Raised for invalid matrices, words, or loop vectors."""


@dataclass(frozen=True)
class MCGMatrix:
    """Exact 2x2 integer matrix [[a, b], [c, d]] with det = +-1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise MCGError(f"matrix entries must be ints, got {entry!r}")
        if self.det() not in (1, -1):
            raise MCGError(f"determinant must be +-1, got {self.det()}")

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @staticmethod
    def identity() -> "MCGMatrix":
        return MCGMatrix(1, 0, 0, 1)

    def __matmul__(self, other: "MCGMatrix") -> "MCGMatrix":
        if not isinstance(other, MCGMatrix):
            return NotImplemented
        return MCGMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MCGMatrix":
        d = self.det()
        # Exact inverse: adj(M) / det with det = +-1.
        return MCGMatrix(self.d * d, -self.b * d, -self.c * d, self.a * d)

    def __pow__(self, n: int) -> "MCGMatrix":
        if n < 0:
            return self.inverse() ** (-n)
        out = MCGMatrix.identity()
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def act(self, loop: Sequence[int]) -> tuple[int, int]:
        """Image of the homology vector (p, q) under this element."""
        if len(loop) != 2:
            raise MCGError(f"loop vector must have two entries, got {loop!r}")
        p, q = loop
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (p, q)):
            raise MCGError(f"loop vector must be integer, got {loop!r}")
        return (self.a * p + self.b * q, self.c * p + self.d * q)

    def entries(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def to_json(self) -> str:
        return json.dumps({"matrix": [[self.a, self.b], [self.c, self.d]]})

    @staticmethod
    def from_json(text: str) -> "MCGMatrix":
        data = json.loads(text)
        (a, b), (c, d) = data["matrix"]
        return MCGMatrix(int(a), int(b), int(c), int(d))


# Generator matrices.  S is the quarter rotation, T the Dehn twist along
# alpha, Ra and Rb the reflections inverting alpha resp. beta, and C the
# central inversion Ra*Rb.
S = MCGMatrix(0, 1, -1, 0)
T = MCGMatrix(1, 0, 1, 1)
RA = MCGMatrix(-1, 0, 0, 1)
RB = MCGMatrix(1, 0, 0, -1)
C = MCGMatrix(-1, 0, 0, -1)

GENERATORS: dict[str, MCGMatrix] = {
    "S": S,
    "T": T,
    "Ra": RA,
    "Rb": RB,
    "C": C,
}

_TOKEN_RE = re.compile(r"^(S|T|Ra|Rb|C)(\^-1)?$")


def parse_word(text: str | Iterable[str]) -> list[str]:
    """Split a word like ``"T Rb S T^-1"`` into validated tokens."""
    tokens = text.split() if isinstance(text, str) else list(text)
    for tok in tokens:
        if not _TOKEN_RE.match(tok):
            raise MCGError(f"unknown generator token {tok!r}")
    return tokens


def token_matrix(token: str) -> MCGMatrix:
    m = _TOKEN_RE.match(token)
    if not m:
        raise MCGError(f"unknown generator token {token!r}")
    base = GENERATORS[m.group(1)]
    return base.inverse() if m.group(2) else base


def word_to_matrix(word: str | Iterable[str]) -> MCGMatrix:
    """Evaluate a word left to right: the leftmost token is the left factor."""
    out = MCGMatrix.identity()
    for tok in parse_word(word):
        out = out @ token_matrix(tok)
    return out


def verify_group_relations() -> list[tuple[str, bool]]:
    """Check the defining relations of the extended group exactly."""
    eye = MCGMatrix.identity()
    checks = [
        ("S^4 = 1", S ** 4 == eye),
        ("(S T)^3 = S^2", (S @ T) ** 3 == S @ S),
        ("S^2 = C", S @ S == C),
        ("Ra^2 = 1", RA @ RA == eye),
        ("Rb^2 = 1", RB @ RB == eye),
        ("Ra Rb = C", RA @ RB == C),
        ("Ra S Ra = S^-1", RA @ S @ RA == S.inverse()),
        ("Rb T Rb = T^-1", RB @ T @ RB == T.inverse()),
        ("C central (S)", C @ S == S @ C),
        ("C central (T)", C @ T == T @ C),
    ]
    return checks

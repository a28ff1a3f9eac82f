"""Linearized polynomials over GF(q^m).

A linearized polynomial L(x) = sum_i a_i x^(q^i) induces a GF(q)-linear map
on the field.  We store the sparse map {q-exponent: nonzero coefficient}.
The q-associate pairs L with the conventional polynomial sum_i a_i x^i,
coefficient for coefficient.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .gf import Field, gfq_rank


class LinearizedPoly:
    """Sparse linearized polynomial bound to a field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Mapping[int, int]):
        clean: dict[int, int] = {}
        for e, c in coeffs.items():
            if e < 0:
                raise ValueError("q-exponent must be >= 0")
            if not 0 <= c < field.order:
                raise ValueError("coefficient out of range")
            if c:
                clean[int(e)] = int(c)
        self.field = field
        self.coeffs = clean

    @classmethod
    def zero(cls, field: Field) -> "LinearizedPoly":
        return cls(field, {})

    @property
    def q_degree(self) -> int:
        """Largest supported q-exponent; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearizedPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        if self.field != other.field:
            raise ValueError("mixed fields")
        f = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = f.add(out.get(e, 0), c)
        return LinearizedPoly(f, out)

    def scale(self, c: int) -> "LinearizedPoly":
        f = self.field
        return LinearizedPoly(f, {e: f.mul(c, a) for e, a in self.coeffs.items()})

    def __call__(self, x: int) -> int:
        """Evaluate by iterated Frobenius: one q-power step per exponent gap."""
        f = self.field
        acc = 0
        power = x
        prev = 0
        for e in sorted(self.coeffs):
            power = f.frobenius(power, e - prev)
            prev = e
            acc = f.add(acc, f.mul(self.coeffs[e], power))
        return acc

    def evaluate_many(self, xs: Sequence[int]) -> list[int]:
        return [self(x) for x in xs]

    # -- q-associates --------------------------------------------------------

    @classmethod
    def from_conventional(
        cls, field: Field, coeffs: Mapping[int, int] | Sequence[int]
    ) -> "LinearizedPoly":
        """Degree-i coefficient of a conventional polynomial -> q-exponent i."""
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        return cls(field, {int(d): int(c) for d, c in items})

    def to_conventional(self) -> dict[int, int]:
        return dict(self.coeffs)

    @classmethod
    def from_plain(cls, field: Field, plain: Mapping[int, int]) -> "LinearizedPoly":
        """Read a plain polynomial whose exponents must all be powers of q.

        The plain exponent q^i becomes the q-exponent i.  Any other nonzero
        term makes the input inadmissible.
        """
        out: dict[int, int] = {}
        for exp, c in plain.items():
            if not c:
                continue
            e = 0
            v = int(exp)
            while v > 1 and v % field.q == 0:
                v //= field.q
                e += 1
            if v != 1:
                raise ValueError("not a q-polynomial")
            out[e] = int(c)
        return cls(field, out)

    def to_plain(self) -> dict[int, int]:
        return {self.field.q**e: c for e, c in self.coeffs.items()}

    def format(self, name: str = "L") -> str:
        if not self.coeffs:
            return f"{name} = 0"
        f = self.field
        terms = [
            f"{f.format_element(c)}*X^[{e}]" for e, c in sorted(self.coeffs.items())
        ]
        return f"{name} = " + " + ".join(terms)

    def __repr__(self) -> str:
        return f"<{self.format()}>"


def interpolate(field: Field, points: Sequence[int], values: Sequence[int]) -> LinearizedPoly:
    """Unique linearized polynomial of q-degree < len(points) through the data.

    The points must be linearly independent over GF(q); the interpolation
    matrix (point j raised to q^i) is then invertible.

    Raises:
        ValueError: if the system is singular ("Moore matrix singular"),
            which for admissible inputs means dependent points.
    """
    pts = list(points)
    vals = list(values)
    if len(pts) != len(vals):
        raise ValueError("points and values differ in length")
    n = len(pts)
    if n == 0:
        return LinearizedPoly.zero(field)
    f = field
    # rows: equations L(p) = v; columns: unknown coefficients a_0..a_{n-1}
    mat = [[0] * n for _ in range(n)]
    for row, p in enumerate(pts):
        acc = p
        mat[row][0] = acc
        for col in range(1, n):
            acc = f.frobenius(acc, 1)
            mat[row][col] = acc
    rhs = list(vals)

    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col]), None)
        if piv is None:
            raise ValueError("Moore matrix singular")
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        pinv = f.inv(mat[col][col])
        for r in range(n):
            if r != col and mat[r][col]:
                fac = f.mul(mat[r][col], pinv)
                for c in range(col, n):
                    mat[r][c] = f.sub(mat[r][c], f.mul(fac, mat[col][c]))
                rhs[r] = f.sub(rhs[r], f.mul(fac, rhs[col]))
        mat[col] = [f.mul(pinv, v) for v in mat[col]]
        rhs[col] = f.mul(pinv, rhs[col])
    return LinearizedPoly(field, {i: rhs[i] for i in range(n)})


def root_space_dim(poly: LinearizedPoly) -> int:
    """Dimension of the kernel of x -> L(x) as a GF(q)-linear map on GF(q^m).

    Bounded above by the q-degree: a q-degree-l polynomial has at most q^l
    roots in any extension.

    Raises:
        ValueError: for the zero polynomial ("root space is everything").
    """
    if not poly:
        raise ValueError("root space is everything")
    f = poly.field
    cols = [poly(f.q**t) for t in range(f.m)]
    mat = f.to_matrix(cols)
    return f.m - gfq_rank(np.asarray(mat), f.q)

"""Linearized polynomials over GF(q^m).

A linearized polynomial L(x) = sum_i a_i x^(q^i) induces a GF(q)-linear map
on the field.  We store the sparse map {q-exponent: nonzero coefficient}.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .gf import Field


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
    return f.m - f.span_rank([poly(f.q**t) for t in range(f.m)])

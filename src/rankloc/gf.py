"""Finite fields GF(q^m) presented as coordinate vectors over GF(q).

An element of GF(q^m) is a residue class of GF(q)[x] modulo an irreducible
polynomial of degree m.  We store it as a single int packing its coordinate
vector (c_0, ..., c_{m-1}) in base q, digit i being the coefficient of x^i.
For q = 2 this is the usual bit representation of binary field elements.

Small fields (order <= 65536) get discrete log/antilog tables, so multiply,
invert, power and Frobenius are O(1) lookups.  The log of zero is a sentinel
past every sum of two nonzero logs and the antilog table reads zero there,
so a product is one add and one gather with no zero test.  Larger fields
fall back to schoolbook polynomial arithmetic; they stay exact, just slower.

The GF(q) tables the kernels run on (``base_tables``) are modular for prime
q; for q = p^e they are read off the ``Field`` GF(p^e) on the first
irreducible polynomial that ``_search_modulus`` finds.

``FieldTower`` holds the layered structure used by the locality
construction: a subfield GF(q^s) inside GF(q^n) inside the ambient field,
with one basis for GF(q^s) over GF(q) and one for GF(q^n) over GF(q^s).
The executable independence check for the second basis is that the full
product set of the two bases has GF(q)-rank n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernels

_TABLE_LIMIT = 1 << 16
_FACTOR_LIMIT = 1 << 32
# trial divisions one default-modulus search may make before it refuses
_SEARCH_DIVISIONS = 50_000

# Primitive polynomials over GF(2), degree 1..16, coefficients low order
# first.  Degree 9 is x^9 + x^4 + 1.
_BINARY_MODULI = {
    1: (1, 1),
    2: (1, 1, 1),
    3: (1, 1, 0, 1),
    4: (1, 1, 0, 0, 1),
    5: (1, 0, 1, 0, 0, 1),
    6: (1, 1, 0, 0, 0, 0, 1),
    7: (1, 1, 0, 0, 0, 0, 0, 1),
    8: (1, 0, 1, 1, 1, 0, 0, 0, 1),
    9: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    10: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    11: (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    12: (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    13: (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    14: (1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
    15: (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    16: (1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
}


def _factorize(n: int) -> dict[int, int]:
    if n > _FACTOR_LIMIT:
        raise ValueError("factorization beyond 2**32 not supported")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _check_order(q: int, m: int) -> None:
    """Refuse GF(q^m) when q^m - 1 passes ``_factorize``'s reach: no element
    of such a field can be certified primitive, and an explicit modulus
    would be trial-divided for minutes before that refusal."""
    if q**m - 1 > _FACTOR_LIMIT:
        raise ValueError(f"GF({q}^{m}) unsupported: q^m - 1 exceeds 2**32")


def _prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with q = p**e, p prime."""
    factors = _factorize(q) if q >= 2 else {}
    if len(factors) != 1:
        raise ValueError("q must be a prime power")
    ((p, e),) = factors.items()
    return p, e


def _digits(v: int, base: int, count: int) -> list[int]:
    """The ``count`` lowest base-``base`` digits of v, least significant first."""
    out = []
    for _ in range(count):
        v, d = divmod(v, base)
        out.append(d)
    return out


def _digit_rows(codes: np.ndarray, q: int, count: int) -> np.ndarray:
    """(..., n) base-q codes -> (..., count, n) uint8 digits, least first.

    Row i of the new axis holds digit i of every code, so an (n,) vector of
    element codes becomes its m x n coordinate matrix.  Over GF(2) the
    digits are the bits of the codes, read off a little-endian byte view.
    """
    rest = np.asarray(codes)
    if rest.dtype.kind != "u":
        rest = rest.astype(np.int64, copy=False)
    if q == 2:
        # the narrowest little-endian word holding the low count bits
        # (count <= 16 for every GF(2^m) field); one flat unpack, then bit
        # t of each code moves to row t
        size = next(b for b in (1, 2, 4, 8) if 8 * b >= count)
        words = np.ascontiguousarray(rest, dtype=f"<u{size}")
        bits = np.unpackbits(words.reshape(-1).view(np.uint8), bitorder="little")
        bits = bits.reshape(words.shape + (8 * size,))[..., :count]
        return np.ascontiguousarray(bits.swapaxes(-1, -2))
    out = np.empty(rest.shape[:-1] + (count, rest.shape[-1]), dtype=np.uint8)
    # one divmod by the scalar q per digit: faster than dividing by a
    # broadcast row of powers of q, and no power can wrap int64
    for i in range(count):
        rest, out[..., i, :] = np.divmod(rest, q)
    return out


def _row_codes(digits: np.ndarray, q: int) -> np.ndarray:
    """(..., count, n) uint8 digits in [0, q) -> (..., n) base-q codes, the
    inverse of ``_digit_rows``, in the narrowest unsigned type that holds
    them: one product with the powers of q, no partial sum past the code.
    """
    count = digits.shape[-2]
    word = np.min_scalar_type(q**count - 1)
    return (q ** np.arange(count)).astype(word) @ digits


def parse_uint(text: str) -> int:
    """A decimal integer of ASCII digits only, surrounding whitespace stripped.

    int() alone also reads signs, underscores and other scripts' digits.
    """
    s = text.strip()
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(s)


class GFTables(NamedTuple):
    """Base-field operation tables consumed by the linear-algebra kernels."""

    q: int
    add: np.ndarray
    sub: np.ndarray
    mul: np.ndarray
    inv: np.ndarray


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


@functools.lru_cache(maxsize=None)
def _table_lists(q: int) -> tuple[list, list, list, list]:
    """``base_tables(q)`` as nested lists: the scalar polynomial helpers
    index them one int at a time, which lists do far faster than arrays."""
    t = base_tables(q)
    return t.add.tolist(), t.sub.tolist(), t.mul.tolist(), t.inv.tolist()


def _poly_mul(a: Sequence[int], b: Sequence[int], t: GFTables) -> list[int]:
    if not a or not b:
        return []
    add, _, mul, _ = _table_lists(t.q)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add[out[i + j]][row[bj]]
    return _poly_trim(out)


def _poly_divmod(a, b, t: GFTables):
    _, sub, mul, inv = _table_lists(t.q)
    rem = list(a)
    db = len(b) - 1
    lead_inv = inv[b[-1]]
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            f = mul[c][lead_inv]
            quo[i - db] = f
            row = mul[f]
            for j, bj in enumerate(b, i - db):
                rem[j] = sub[rem[j]][row[bj]]
    return _poly_trim(quo), _poly_trim(rem)


def _trial_divisors(deg: int, q: int):
    """Every monic polynomial over GF(q) of degree 1 .. deg // 2."""
    for d in range(1, deg // 2 + 1):
        for idx in range(q**d):
            yield _digits(idx, q, d) + [1]


# (q, modulus) pairs already proven irreducible, so no field repeats the test
_IRREDUCIBLE: set[tuple[int, tuple[int, ...]]] = set()


def _poly_is_irreducible(mod: Sequence[int], t: GFTables) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    key = (t.q, tuple(mod))
    if key in _IRREDUCIBLE:
        return True
    deg = len(mod) - 1
    if deg < 1 or mod[-1] == 0:
        return False
    if not all(_poly_divmod(mod, div, t)[1] for div in _trial_divisors(deg, t.q)):
        return False
    _IRREDUCIBLE.add(key)
    return True


@functools.lru_cache(maxsize=None)
def base_tables(q: int) -> GFTables:
    """Addition/subtraction/multiplication/inversion tables for GF(q).

    Prime q uses modular arithmetic; prime powers q = p^e build GF(p^e)
    from the first irreducible monic polynomial of degree e over GF(p)
    (lowest packed coefficient value, so the choice is reproducible) and
    read the tables off that field's vectorized add and multiply.
    """
    if q < 2 or q > 256:
        raise ValueError("q must be a prime power with 2 <= q <= 256")
    p, e = _prime_power(q)
    idx = np.arange(q, dtype=np.int64)
    if e == 1:
        add = (idx[:, None] + idx[None, :]) % q
        mul = (idx[:, None] * idx[None, :]) % q
    else:
        f = Field(FieldSpec(p, e, _search_modulus(p, e, primitive=False)))
        add = f.add_vec(idx[:, None], idx[None, :])
        mul = f.mul_vec(idx[:, None], idx[None, :])
    # row a of add is a permutation taking b to a + b, so its inverse
    # permutation takes c to c - a
    sub = np.argsort(add, axis=1).T
    inv = np.argmax(mul == 1, axis=1)  # inv[0] stays 0
    return GFTables(
        q, *(np.ascontiguousarray(a, dtype=np.uint8) for a in (add, sub, mul, inv))
    )


@dataclass(frozen=True)
class FieldSpec:
    """Parameters pinning one concrete presentation of GF(q^m).

    ``modulus`` lists the coefficients of the defining polynomial, lowest
    order first, length m + 1, monic.  The field's designated primitive
    element w is x when x is primitive (see ``Field``).
    """

    q: int
    m: int
    modulus: tuple[int, ...]

    @staticmethod
    def default(q: int, m: int) -> "FieldSpec":
        """A primitive modulus (tabled for q = 2, else searched), so w = x."""
        if q == 2:
            if m not in _BINARY_MODULI:
                raise ValueError("fields with m > 16 unsupported")
            return FieldSpec(2, m, _BINARY_MODULI[m])
        _check_order(q, m)
        return FieldSpec(q, m, _search_modulus(q, m, primitive=True))


def _search_modulus(q: int, m: int, *, primitive: bool) -> tuple[int, ...]:
    """First monic irreducible (primitive, if asked) polynomial of degree m.

    Refuses once its trial divisions would pass ``_SEARCH_DIVISIONS``.
    """
    t = base_tables(q)
    spent = 0
    for idx in range(q**m):
        cand = tuple(_digits(idx, q, m)) + (1,)
        for div in _trial_divisors(m, q):
            spent += 1
            if spent > _SEARCH_DIVISIONS:
                raise ValueError(
                    f"no default modulus for GF({q}^{m}) within"
                    f" {_SEARCH_DIVISIONS} trial divisions; give modulus= in the spec"
                )
            if not _poly_divmod(cand, div, t)[1]:
                break
        else:
            if not primitive:
                return cand
            _IRREDUCIBLE.add((q, cand))
            # no log tables: one primitivity test does not repay building them
            if Field(FieldSpec(q, m, cand), _table_limit=0).omega is not None:
                return cand
    raise ValueError("no irreducible polynomial found")


class Field:
    """Arithmetic context for GF(q^m); elements are plain ints (see module doc)."""

    def __init__(self, spec: FieldSpec, _table_limit: int = _TABLE_LIMIT):
        q, m = spec.q, spec.m
        if m < 1 or m > 16:
            raise ValueError("fields with m > 16 unsupported")
        self.tables = base_tables(q)
        _check_order(q, m)
        if len(spec.modulus) != m + 1 or spec.modulus[m] != 1:
            raise ValueError("modulus must be monic of degree m")
        if any(not 0 <= c < q for c in spec.modulus):
            raise ValueError("modulus coefficients out of range")
        if not _poly_is_irreducible(spec.modulus, self.tables):
            raise ValueError("modulus not irreducible")
        self.spec = spec
        self.q = q
        self.m = m
        self.order = q**m
        self.zero = 0
        self.one = 1
        # x itself, reduced modulo x + c_0 when m = 1
        self.x = q if m > 1 else int(self.tables.sub[0, spec.modulus[0]])
        # the modulus as bits, which the GF(2) reduction of _mul_poly XORs in
        self._mod_mask = sum(c << i for i, c in enumerate(spec.modulus)) if q == 2 else None
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        # the designated primitive element w: nonzero elements are reported
        # as powers of it, and towers derive their subfield generator from it
        self.omega: int | None = self.x if self._is_primitive(self.x) else None
        if self.order <= _table_limit:
            self._build_log_tables()

    # -- representation ----------------------------------------------------

    def digits(self, a: int) -> list[int]:
        return _digits(a, self.q, self.m)

    def from_digits(self, c: Iterable[int]) -> int:
        v = 0
        for d in reversed(list(c)):
            v = v * self.q + int(d)
        return v

    def coeffs(self, a: int) -> np.ndarray:
        """Coordinate vector of ``a`` in the polynomial basis, length m."""
        return np.asarray(self.digits(self._check(a)), dtype=np.uint8)

    def from_coeffs(self, c: Sequence[int]) -> int:
        c = list(c)
        if len(c) != self.m or any(not 0 <= d < self.q for d in c):
            raise ValueError("coordinate vector has wrong shape")
        return self.from_digits(c)

    def _check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError("element out of range")
        return a

    # -- core arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        t = self.tables
        da, db = self.digits(a), self.digits(b)
        return self.from_digits(int(t.add[x, y]) for x, y in zip(da, db))

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        t = self.tables
        da, db = self.digits(a), self.digits(b)
        return self.from_digits(int(t.sub[x, y]) for x, y in zip(da, db))

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def _mul_poly(self, a: int, b: int) -> int:
        if self.q == 2:
            # Carry-less multiply and reduce, both on packed bits.
            mod_mask = self._mod_mask
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a >> self.m & 1:
                    a ^= mod_mask
            return acc
        prod = _poly_mul(_poly_trim(self.digits(a)), _poly_trim(self.digits(b)), self.tables)
        _, red = _poly_divmod(prod, self.spec.modulus, self.tables)
        return self.from_digits(red)

    def mul(self, a: int, b: int) -> int:
        if self._log is not None:
            return int(self._exp[self._log[a] + self._log[b]])
        if a == 0 or b == 0:
            return 0
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero")
        if self._log is not None:
            return int(self._exp[(-int(self._log[a])) % (self.order - 1)])
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("division by zero")
            return 0
        e %= self.order - 1
        if self._log is not None:
            return int(self._exp[(int(self._log[a]) * e) % (self.order - 1)])
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self._mul_poly(acc, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return acc

    def frobenius(self, a: int, e: int = 1) -> int:
        """a -> a^(q^e), the e-fold Frobenius map (GF(q)-linear)."""
        if e < 0:
            raise ValueError("Frobenius exponent must be >= 0")
        if a == 0:
            return 0
        return self.pow(a, pow(self.q, e, self.order - 1))

    def _build_log_tables(self) -> None:
        # on omega, or on the first primitive element when x is not primitive
        base = self.omega
        if base is None:
            base = next(c for c in range(1, self.order) if self._is_primitive(c))
        # exp holds two periods of base^i, then zeros up to index 4(order - 1):
        # a sum of two nonzero logs stays in the periods, and any sum with
        # log[0] = 2(order - 1) lands in the zeros.  Logs are int32 (every
        # sum is below 2^18), which halves the index arrays mul_vec builds.
        period = self.order - 1
        # multiplying by a fixed element c is GF(q)-linear, so its table over
        # every element code is the sum of the x^i-shifted codes scaled by c's
        # digits.  Composing a step table with itself squares its element:
        # each round appends step[powers] and doubles the run of powers
        codes = np.arange(self.order, dtype=np.int64)
        step = np.zeros_like(codes)
        digits = _poly_trim(self.digits(base))
        for i, d in enumerate(digits):
            if d:
                step = self.add_vec(step, self.scale_vec(d, codes))
            if i + 1 < len(digits):
                codes = self.times_x(codes)
        powers = np.ones(1, dtype=np.int64)
        while powers.size <= period:
            powers = np.concatenate([powers, step[powers]])
            step = step[step]
        # base^i first returns to 1 at i = period exactly when base is
        # primitive: a lower order repeats its powers, and zero never returns
        back = powers[1 : period + 1] == 1
        if not back[-1] or back[:-1].any():
            raise ValueError("log table base is not primitive")
        exp = np.zeros(4 * period + 1, dtype=np.int64)
        log = np.full(self.order, 2 * period, dtype=np.int32)
        exp[:period] = exp[period : 2 * period] = powers[:period]
        log[powers[:period]] = np.arange(period, dtype=np.int32)
        self._exp, self._log = exp, log

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        n = self.order - 1
        order = n
        for p in _factorize(n):
            while order % p == 0 and self.pow(a, order // p) == 1:
                order //= p
        return order

    def _is_primitive(self, a: int) -> bool:
        """Whether a generates the multiplicative group; zero never does."""
        return a != 0 and self.element_order(a) == self.order - 1

    # -- reporting ----------------------------------------------------------

    def omega_pow(self, k: int) -> int:
        if self.omega is None:
            raise ValueError("field has no designated primitive element")
        return self.pow(self.omega, k)

    def log_omega(self, a: int) -> int:
        if self.omega is None:
            raise ValueError("field has no designated primitive element")
        if a == 0:
            raise ValueError("zero has no discrete log")
        if self._log is not None:
            return int(self._log[a])
        raise ValueError("discrete log unavailable for untabled fields")

    def format_element(self, a: int) -> str:
        self._check(a)
        if a == 0:
            return "0"
        if a == 1:
            return "1"
        if self.omega is not None and self._log is not None:
            return f"w^{self.log_omega(a)}"
        if self.q <= 10:
            return "".join(str(d) for d in self.digits(a))
        return ",".join(str(d) for d in self.digits(a))

    def parse_element(self, text: str) -> int:
        s = text.strip()
        if not s:
            raise ValueError("empty element")
        if not s.isascii():
            raise ValueError(f"cannot parse element {text!r}")
        if s in ("0", "1"):
            return int(s)
        if s == "w":
            return self.omega_pow(1)
        if s.startswith("w^"):
            return self.omega_pow(parse_uint(s[2:]))
        if "," in s:
            return self.from_coeffs([parse_uint(p) for p in s.split(",")])
        if self.q <= 10 and len(s) == self.m and s.isdigit():
            return self.from_coeffs([int(ch) for ch in s])
        raise ValueError(f"cannot parse element {text!r}")

    def __repr__(self) -> str:
        return f"Field(q={self.q}, m={self.m})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    # -- vectorized helpers (require log tables) -----------------------------

    def _need_tables(self) -> None:
        if self._log is None:
            raise ValueError("field too large for vectorized operations")

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._need_tables()
        return self._exp[self._log[a] + self._log[b]]

    def scale_vec(self, c: int, a: np.ndarray) -> np.ndarray:
        """c * a for c in GF(q) and elements a of GF(q^m), digit by digit."""
        if not 0 <= c < self.q:
            raise ValueError("scalar out of range")
        a = np.asarray(a, dtype=np.int64)
        if c <= 1:
            return a * c
        # c in every digit, so the digitwise product scales each digit by c
        spread = c * ((self.order - 1) // (self.q - 1))
        return self._digitwise(self.tables.mul, np.int64(spread), a)

    def add_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._digitwise(self.tables.add, a, b)

    def sub_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._digitwise(self.tables.sub, a, b)

    @functools.cached_property
    def _x_fold(self) -> np.ndarray:
        # fold[c] = -c * (modulus below x^m) as an element code: c * x^m
        t, q, m = self.tables, self.q, self.m
        low = np.asarray(self.spec.modulus[:m])
        fold = t.sub[0][t.mul[np.arange(q)[:, None], low]].astype(np.int64)
        return fold @ q ** np.arange(m, dtype=np.int64)

    def times_x(self, a: np.ndarray) -> np.ndarray:
        """x * a for element codes a: every digit moves one place up and the
        digit c that leaves comes back in as c * x^m.  No multiply runs, so
        fields without log tables take it too."""
        a = np.asarray(a, dtype=np.int64)
        top = self.q ** (self.m - 1)
        return self.add_vec(a % top * self.q, self._x_fold[a // top])

    def _digitwise(self, table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # GF(q^m) addition and subtraction act digit by digit over GF(q)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.q == 2:
            return a ^ b
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        qa, qb = a.copy(), b.copy()
        scale = 1
        table = table.astype(np.int64)
        for _ in range(self.m):
            out += table[qa % self.q, qb % self.q] * scale
            qa //= self.q
            qb //= self.q
            scale *= self.q
        return out

    # -- matrix form ---------------------------------------------------------

    def _element_codes(self, elements: Sequence[int]) -> np.ndarray:
        vals = np.asarray(list(elements), dtype=np.int64)
        if vals.ndim != 1:
            raise ValueError("expected a flat sequence of elements")
        if vals.size and (vals.min() < 0 or vals.max() >= self.order):
            raise ValueError("element out of range")
        return vals

    def to_matrix(self, elements: Sequence[int]) -> np.ndarray:
        """Stack coordinate vectors as columns: an m x n array over GF(q)."""
        return _digit_rows(self._element_codes(elements), self.q, self.m)

    def span_rank(self, elements: Sequence[int]) -> int:
        """Dimension over GF(q) of the span of the elements: the rank of
        ``to_matrix(elements)``, computed on the element codes."""
        return int(gfq_rank_codes(self._element_codes(elements)[None], self.q, self.m)[0])

    def from_matrix(self, mat: np.ndarray) -> list[int]:
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[0] != self.m:
            raise ValueError("matrix must have m rows")
        if mat.size and (mat.min() < 0 or mat.max() >= self.q):
            raise ValueError("matrix entries out of range")
        return _row_codes(mat.astype(np.uint8), self.q).tolist()

    def matrix_batch(self, codes: np.ndarray) -> np.ndarray:
        """Unpack a (B, n) array of element codes into (B, m, n) digit arrays."""
        return _digit_rows(codes, self.q, self.m)

    def codes_batch(self, mats: np.ndarray) -> np.ndarray:
        """Pack a (B, m, n) array of digit arrays, entries in [0, q), into
        (B, n) element codes: the inverse of ``matrix_batch``."""
        mats = np.asarray(mats, dtype=np.uint8)
        if mats.ndim != 3 or mats.shape[1] != self.m:
            raise ValueError("expected a (batch, m, n) array")
        return _row_codes(mats, self.q)


# ---------------------------------------------------------------------------
# GF(q) matrix helpers


def _gfq_entries(a, q: int, what: str) -> np.ndarray:
    """``a`` as uint8 entries of GF(q), checked before the cast, which
    would truncate 0.5 and wrap v + 256 and v - 256 to v."""
    a = np.asarray(a)
    if a.dtype.kind not in "biu":
        raise ValueError(f"{what} must be integers, not {a.dtype}")
    if a.size and (a.min() < 0 or a.max() >= q):
        raise ValueError(f"{what} out of range")
    return a.astype(np.uint8, copy=False)


def gfq_rank(mat: np.ndarray, q: int = 2) -> int:
    """Exact rank of a matrix with entries in GF(q)."""
    t = base_tables(q)
    mat = _gfq_entries(mat, q, "matrix entries")
    if mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if 0 in mat.shape:
        return 0
    return int(_kernels.rank(mat, t.sub, t.mul, t.inv))


def gfq_rank_batch(mats: np.ndarray, q: int = 2) -> np.ndarray:
    t = base_tables(q)
    mats = np.asarray(mats, dtype=np.uint8)
    if mats.ndim != 3:
        raise ValueError("expected a batch of matrices")
    return np.asarray(_kernels.rank_batch(mats, t.sub, t.mul, t.inv))


def gfq_rank_codes(codes: np.ndarray, q: int, width: int) -> np.ndarray:
    """Ranks of a (B, rows) batch of vector sets packed as base-q ints.

    Entry (b, i) is vector i of set b, a vector of GF(q)^width with digit d
    as coordinate d: an element code of GF(q^m) is its coordinate column
    with width m.  Over GF(2) the codes already are the words that
    ``_kernels.rank_words`` eliminates; every other q expands the digits
    once and takes the table path.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError("expected a (batch, rows) array of codes")
    if codes.size and (codes.min() < 0 or int(codes.max()) >= q**width):
        raise ValueError("code out of range")
    if q == 2:
        # the narrowest word that holds width bits: each elimination step
        # then moves a quarter or half of the uint64 bytes
        word = np.uint16 if width <= 16 else np.uint32 if width <= 32 else np.uint64
        return _kernels.rank_words(codes.astype(word))
    return gfq_rank_batch(_digit_rows(codes, q, width), q)


def gfq_row_reduce(mat: np.ndarray, q: int = 2, n_pivot_cols: int | None = None):
    """Reduced row echelon form over GF(q).

    Args:
        mat: 2-d array with entries in [0, q).
        q: base field size.
        n_pivot_cols: restrict pivot search to the first so many columns
            (augmented columns still take part in the row operations).

    Returns:
        (reduced matrix, pivot column indices).
    """
    t = base_tables(q)
    mat = np.asarray(mat, dtype=np.uint8)
    if n_pivot_cols is None:
        n_pivot_cols = mat.shape[1]
    return _kernels.row_reduce(mat, t.sub, t.mul, t.inv, n_pivot_cols)


def gfq_matmul(a: np.ndarray, b: np.ndarray, q: int = 2) -> np.ndarray:
    t = base_tables(q)
    return np.asarray(_kernels.matmul(a, b, t.add, t.mul))


class AmbiguousErasureError(RuntimeError):
    """Erased cells are not determined by the surviving ones."""


def _left_reduce(a: np.ndarray, q: int, right: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """(T @ right, rank): one reduction of [a | right], pivots in a's
    columns, ``right`` the identity by default.  T is invertible and T @ a
    is a's reduced echelon form, zero past row rank and, at full column
    rank, the identity above that, so the rows of T @ right past the rank
    are its consistency checks."""
    cols = a.shape[1]
    right = np.eye(len(a), dtype=np.uint8) if right is None else right
    reduced, pivots = gfq_row_reduce(np.hstack([a, right]), q, n_pivot_cols=cols)
    return reduced[:, cols:], len(pivots)


def _parity_solve(
    parity: np.ndarray, erased: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """(checks, repair): the parity tail, one pivot per erased digit.

    ``parity`` is H^T and ``erased`` masks its rows E; the rest are the
    known digits K.  One reduction of [H_E | H_K] (``_left_reduce``) gives
    T @ H_K = P^T, which turns x_E @ H_E^T = -x_K @ H_K^T into
    x_E @ (T @ H_E)^T = -x_K @ P, so x_K is a codeword restriction exactly
    when its product with ``checks`` = P[:, rank:] is zero: |K| -
    rank(gen_K) checks, as the generator side gives.  At full rank
    ``repair`` = -P[:, :rank] gives the erased digits in order; below it a
    codeword vanishes on K and ``repair`` is None.
    """
    solved, rank = _left_reduce(parity[erased].T, q, parity[~erased].T)
    prod = solved.T
    repair = base_tables(q).sub[0, prod[:, :rank]] if rank == erased.sum() else None
    return prod[:, rank:], repair


def gfq_solve(a: np.ndarray, vals: np.ndarray, q: int) -> np.ndarray:
    """Solve u @ a = vals for each batch row; return u.

    One reduction of [a^T | vals^T] (``_left_reduce``): the rows past the
    rank are the consistency checks of every batch row at once, and at
    full rank the rows above it are u^T.  A system over GF(q^m) is solved
    here with each unknown expanded into its m coordinates, as
    ``generator_gfq`` lays a code out.

    Raises ValueError for inconsistent data and AmbiguousErasureError when
    the rows of ``a`` are dependent (for a generator restricted to known
    cells: a nonzero codeword vanishes on them), in that order.
    """
    dim = a.shape[0]
    solved, rank = _left_reduce(a.T, q, np.asarray(vals, dtype=np.uint8).T)
    if solved[rank:].any():
        raise ValueError("not a codeword restriction")
    if rank < dim:
        raise AmbiguousErasureError("erasure pattern exceeds guarantee")
    return np.ascontiguousarray(solved[:dim].T)


def gfq_parity_checks(gen: np.ndarray, q: int) -> np.ndarray:
    """H^T with x @ H^T = 0 exactly for x in the row space of ``gen``.

    These are T[rank:]^T off the reduction of G^T: the consistency checks
    ``gfq_solve`` applies with every cell known.
    """
    solve, rank = _left_reduce(gen.T, q)
    return np.ascontiguousarray(solve[rank:].T)


# ---------------------------------------------------------------------------
# Field towers


@dataclass(frozen=True)
class FieldTower:
    """GF(q) < GF(q^s) < GF(q^n) <= GF(q^m) with evaluation bases.

    ``basis_a`` spans GF(q^s) over GF(q); ``basis_b`` spans GF(q^n) over
    GF(q^s).  ``g`` generates the multiplicative group of GF(q^s).  The
    product elements basis_a[i] * basis_b[j], grouped by j, are the n
    evaluation points handed to the code construction; their GF(q)-rank
    being n is exactly the independence condition on basis_b.
    """

    field: Field
    s: int
    n: int
    g: int
    basis_a: tuple[int, ...]
    basis_b: tuple[int, ...]

    @property
    def mu(self) -> int:
        return self.n // self.s

    def product_points(self) -> list[int]:
        f = self.field
        return [f.mul(a, b) for b in self.basis_b for a in self.basis_a]


def tower_build(
    field: Field,
    n: int,
    s: int,
    *,
    basis_a: Sequence[int] | None = None,
    basis_b: Sequence[int] | None = None,
) -> FieldTower:
    """Build the evaluation tower in ``field``, searching default bases
    when not pinned.

    g = w^((q^m-1)/(q^s-1)) generates GF(q^s)^*, w being the field's
    designated primitive element.  Defaults: basis_a = (g^0, ...,
    g^(s-1)); basis_b = powers (gamma^0, ..., gamma^(mu-1)) of the first
    power of w lying in GF(q^n), starting from w^0 = 1, whose powers pass
    the product rank-n check (gamma = 1 passes only when mu = 1).
    Explicit overrides are validated against the same invariants.
    """
    q, m = field.q, field.m
    if n % s != 0 or m % n != 0:
        raise ValueError("parameter divisibility violated")
    if field.omega is None:
        raise ValueError("tower construction needs a designated primitive element")
    mu = n // s
    g = field.omega_pow((field.order - 1) // (q**s - 1))

    if basis_a is None:
        basis_a = tuple(field.pow(g, i) for i in range(s))
    else:
        basis_a = tuple(basis_a)
    if len(basis_a) != s:
        raise ValueError("basis_a must have s elements")
    for a in basis_a:
        if field.frobenius(a, s) != a:
            raise ValueError("basis_a element outside GF(q^s)")
    if field.span_rank(basis_a) != s:
        raise ValueError("basis not independent")

    def product_rank(bb: Sequence[int]) -> int:
        return field.span_rank([field.mul(a, b) for b in bb for a in basis_a])

    if basis_b is None:
        # gamma must lie in GF(q^n): its exponent is a multiple of step.
        step = (field.order - 1) // (q**n - 1)
        found = None
        for e in range(0, field.order - 1, step):
            gamma = field.omega_pow(e)
            cand = tuple(field.pow(gamma, j) for j in range(mu))
            if product_rank(cand) == n:
                found = cand
                break
        if found is None:
            raise ValueError("no power basis found")
        basis_b = found
    else:
        basis_b = tuple(basis_b)
        if len(basis_b) != mu:
            raise ValueError("basis_b must have n/s elements")
        for b in basis_b:
            if field.frobenius(b, n) != b:
                raise ValueError("basis_b element outside GF(q^n)")
        if product_rank(basis_b) != n:
            raise ValueError("basis not independent")

    return FieldTower(field, s, n, g, tuple(basis_a), tuple(basis_b))

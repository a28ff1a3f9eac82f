"""Field arithmetic: axioms, representations, and the evaluation tower."""

import hashlib

import numpy as np
import pytest

from rankloc import gf
from rankloc.gf import (
    Field,
    FieldSpec,
    _prime_power,
    base_tables,
    gfq_matmul,
    gfq_rank,
    gfq_rank_batch,
    gfq_rank_codes,
    gfq_row_reduce,
    tower_build,
)
from rankloc.rng import SplitMix64

from helpers import digit_rows_oracle, naive_rank, subfield_elements


# ---------------------------------------------------------------------------
# base tables


def test_base_tables_prime_matches_modular():
    for q in (2, 3, 5, 7, 11):
        t = base_tables(q)
        idx = np.arange(q)
        assert np.array_equal(t.add, (idx[:, None] + idx[None, :]) % q)
        assert np.array_equal(t.sub, (idx[:, None] - idx[None, :]) % q)
        assert np.array_equal(t.mul, (idx[:, None] * idx[None, :]) % q)
        for a in range(1, q):
            assert t.mul[a, t.inv[a]] == 1


def test_base_tables_prime_power_axioms():
    # q = 4 and q = 9: exhaustive field axioms straight off the tables.
    for q in (4, 9):
        t = base_tables(q)
        for a in range(q):
            assert t.add[a, 0] == a
            assert t.mul[a, 1] == a
            assert t.mul[a, 0] == 0
            assert t.sub[a, a] == 0
            if a:
                assert t.mul[a, t.inv[a]] == 1
            for b in range(q):
                assert t.add[a, b] == t.add[b, a]
                assert t.mul[a, b] == t.mul[b, a]
                assert t.sub[t.add[a, b], b] == a
                for c in range(q):
                    assert t.add[t.add[a, b], c] == t.add[a, t.add[b, c]]
                    assert t.mul[t.mul[a, b], c] == t.mul[a, t.mul[b, c]]
                    assert t.mul[a, t.add[b, c]] == t.add[t.mul[a, b], t.mul[a, c]]
        # characteristic p: the prime subfield is closed under +
        p = 2 if q == 4 else 3
        acc = 1
        for _ in range(p - 1):
            acc = int(t.add[acc, 1])
        assert acc == 0


# sha256 over add|sub|mul|inv (uint8, row-major) for every prime power
# 4 <= q <= 256 that is not prime: the tables, and with them every code over
# a prime-power base field, must not change when their construction does.
PRIME_POWER_TABLE_SHA256 = {
    4: "ce24daacd1a81495ad00b3705352453e00a2b8019d0c7994ac2f02b343dda121",
    8: "818f44315c7226793a08e6f7da3b34b3698cf5c9d6c11fd442e7c4715fdb13f7",
    9: "bab71dcf571a5dd08609a940ac28abd52540fac09a06f4cb737b3f3d08a4e271",
    16: "fc66c01347c46a32f6e456f65bcb5fb1f217bd5131c7f1ea3c3d23508c9750cf",
    25: "4e42fe2c9ee6abc6efd9f839ac0474380d9cf8f73e5daa0a92fc7cef88b7685b",
    27: "6c801086585dc0abb2a7ffc225ece69973391cd5725c2686a49a08d6bec086e6",
    32: "4750f1e6f587014b647f392e7c3af933e860fc08f1b26c87cf29d25ea2317a6d",
    49: "b2379c5474dc9d8486e94f9c7b5c27438f868a3aed24a976fe93a92d536564e6",
    64: "418bdfac20840775a5b0ba2c6ea7f1fda195bc69dce8b38754104b1f8d3d5462",
    81: "af8774dfd63f8054271e516bf4713cfb828130bbbac96719f8a8efbdf5146182",
    121: "0c6965aa75636c8cabde84e67da201470a55fc564c53b62a0292bdf03e191cff",
    125: "f27231f178cb68da5e3f739074f8fee3b6c056dc8b635881908f40c30d53124a",
    128: "41cbb86ac509624437b2a511e2e7827588916e912d37d6e48c09d9c05ab15e11",
    169: "5d42be647f93ca62ae0c0b36df5c33b6c61bad5cf1e61b32e5d5516435232229",
    243: "d56d8a82fb3b6a4546bc54d6ee73f2d76abb99ed6ea55a1e52c512cefb0aa42c",
    256: "f7b1365bad5ad5f5c4a94039ad17089f00db2992e1d4d5d4ad492931f19da5fb",
}


def test_base_tables_prime_power_digests():
    seen = {}
    for q in range(4, 257):
        try:
            _, e = _prime_power(q)
        except ValueError:
            continue
        if e == 1:
            continue
        t = base_tables(q)
        digest = hashlib.sha256()
        for table in (t.add, t.sub, t.mul, t.inv):
            assert table.dtype == np.uint8
            digest.update(table.tobytes())
        seen[q] = digest.hexdigest()
    assert seen == PRIME_POWER_TABLE_SHA256


def test_default_moduli_pinned():
    # first primitive monic polynomial, searched in packed-coefficient order
    expected = {
        (3, 2): (2, 1, 1),
        (3, 3): (1, 2, 0, 1),
        (3, 4): (2, 1, 0, 0, 1),
        (3, 5): (1, 2, 0, 0, 0, 1),
        (3, 6): (2, 1, 0, 0, 0, 0, 1),
        (5, 2): (2, 1, 1),
        (5, 3): (2, 3, 0, 1),
        (9, 2): (5, 1, 1),
    }
    for (q, m), modulus in expected.items():
        assert FieldSpec.default(q, m).modulus == modulus


@pytest.mark.parametrize("q, m", [(13, 8), (256, 4)])
def test_default_modulus_search_is_bounded(monkeypatch, q, m):
    # unbounded, these trial-divide for minutes; the search stops at its bound
    base_tables(q)
    made = []
    divisors = gf._trial_divisors

    def counted(deg, p):
        for div in divisors(deg, p):
            made.append(deg)
            yield div

    monkeypatch.setattr(gf, "_trial_divisors", counted)
    with pytest.raises(ValueError, match=rf"GF\({q}\^{m}\) within 50000 trial"):
        FieldSpec.default(q, m)
    assert len(made) == gf._SEARCH_DIVISIONS + 1


def test_fields_past_the_factoring_limit_refused_before_trial_division(monkeypatch):
    # x^16 + 2x + 3 over GF(7): trial division could take up to about 6.7M
    # divisions before the field is refused for lack of a certifiable
    # primitive element
    def never(deg, q):
        raise AssertionError("trial division ran")

    monkeypatch.setattr(gf, "_trial_divisors", never)
    modulus = (3, 2) + (0,) * 14 + (1,)
    with pytest.raises(ValueError, match=r"GF\(7\^16\) unsupported: q\^m - 1 exceeds 2\*\*32"):
        Field(FieldSpec(7, 16, modulus))
    with pytest.raises(ValueError, match=r"GF\(5\^16\) unsupported"):
        FieldSpec.default(5, 16)


def test_base_tables_rejects_non_prime_power():
    for q in (1, 6, 10, 257):
        with pytest.raises(ValueError):
            base_tables(q)


# ---------------------------------------------------------------------------
# extension field axioms (randomized sweeps)


def test_field_axioms_random_sweep(example2_field):
    f = example2_field
    rng = SplitMix64(101)
    for _ in range(1200):
        a = rng.randbelow(f.order)
        b = rng.randbelow(f.order)
        c = rng.randbelow(f.order)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(f.add(a, b), b) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(f.mul(a, b), a) == b


def test_field_axioms_odd_characteristic():
    f = Field(FieldSpec.default(3, 4))
    rng = SplitMix64(7)
    for _ in range(1000):
        a = rng.randbelow(f.order)
        b = rng.randbelow(f.order)
        assert f.sub(a, b) == f.add(a, f.neg(b))
        assert f.mul(a, f.mul(b, b)) == f.mul(f.mul(a, b), b)
    assert f.add(1, f.add(1, 1)) == 0  # characteristic 3


def test_pow_against_repeated_multiplication(example2_field):
    f = example2_field
    rng = SplitMix64(11)
    for _ in range(200):
        a = rng.randbelow(f.order)
        e = rng.randbelow(40)
        acc = 1
        for _ in range(e):
            acc = f.mul(acc, a)
        assert f.pow(a, e) == acc
    assert f.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_schoolbook_and_log_tables_agree():
    # Same spec built with and without log tables must define the same
    # field; the odd-characteristic case matters because prime-power base
    # tables are read off the log tables.
    for spec in (FieldSpec.default(2, 9), FieldSpec.default(3, 5)):
        fast = Field(spec)
        slow = Field(spec, _table_limit=1)
        assert slow._log is None
        rng = SplitMix64(23)
        for _ in range(400):
            a = rng.randbelow(fast.order)
            b = rng.randbelow(fast.order)
            assert fast.mul(a, b) == slow.mul(a, b)
            if a:
                assert fast.inv(a) == slow.inv(a)
            assert fast.pow(a, 17) == slow.pow(a, 17)
            assert fast.frobenius(a, 2) == slow.frobenius(a, 2)


def _scalar_log_tables(f, base):
    # the reference for the doubling build: one schoolbook multiply per
    # power, in the same table layout
    period = f.order - 1
    exp = np.zeros(4 * period + 1, dtype=np.int64)
    log = np.full(f.order, 2 * period, dtype=np.int32)
    v = 1
    for i in range(period):
        exp[i] = v
        log[v] = i
        v = f._mul_poly(v, base)
    assert v == 1
    exp[period : 2 * period] = exp[:period]
    return exp, log


_LOG_TABLE_FIELDS = (
    [(2, m) for m in range(1, 17)]
    + [(3, m) for m in range(1, 7)]
    + [(5, m) for m in range(1, 5)]
    + [(9, m) for m in range(1, 4)]
)


@pytest.mark.parametrize("q, m", _LOG_TABLE_FIELDS)
def test_log_tables_match_the_scalar_loop(q, m):
    # the blocked build is byte-identical to one schoolbook multiply per power
    f = Field(FieldSpec.default(q, m))
    exp, log = _scalar_log_tables(f, int(f._exp[1]))
    assert f._exp.dtype == exp.dtype and f._exp.tobytes() == exp.tobytes()
    assert f._log.dtype == log.dtype and f._log.tobytes() == log.tobytes()


@pytest.mark.parametrize("power", [1])
def test_log_tables_rebased_to_omega(power):
    # ref.spec's modulus x^9 + x^4 + 1, whose x is primitive, so the
    # field designates w = x = x^power and builds its tables on it
    f = Field(FieldSpec(2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)))
    assert f._exp[1] == f.omega == f.pow(f.x, power)
    exp, log = _scalar_log_tables(f, f.omega)
    assert f._exp.tobytes() == exp.tobytes() and f._log.tobytes() == log.tobytes()


def test_log_tables_refuse_a_non_primitive_base():
    f = Field(FieldSpec.default(2, 9))
    f.omega = 0
    with pytest.raises(ValueError, match="not primitive"):
        f._build_log_tables()


def test_log_tables_refuse_a_base_whose_powers_repeat():
    # x^3 has order 5 in GF(2^4)^*: its powers repeat with period 5, and
    # base^15 = 1 holds for it as for every nonzero element
    f = Field(FieldSpec.default(2, 4))
    f.omega = f.pow(f.x, 3)
    assert f.element_order(f.omega) == 5
    with pytest.raises(ValueError, match="not primitive"):
        f._build_log_tables()


def _order_by_powers(f, a):
    # multiplicative order of a nonzero a, one schoolbook multiply per power
    v, order = a, 1
    while v != 1:
        v, order = f._mul_poly(v, a), order + 1
    return order


@pytest.mark.parametrize(
    "q, m", [(2, 4), (2, 6), (3, 2), (3, 3), (4, 2), (5, 1), (5, 2), (9, 2)]
)
def test_omega_is_x_exactly_when_x_is_primitive(q, m):
    # over every monic irreducible modulus of degree m: w = x when x is
    # primitive and no w otherwise, and the log tables are built on w, or
    # on the first primitive element when there is none
    seen = set()
    for idx in range(q**m):
        modulus = tuple(gf._digits(idx, q, m)) + (1,)
        if not gf._poly_is_irreducible(modulus, base_tables(q)):
            continue
        f = Field(FieldSpec(q, m, modulus))
        primitive = f.x != 0 and _order_by_powers(f, f.x) == f.order - 1
        assert f.omega == (f.x if primitive else None)
        first = next(a for a in range(1, f.order) if _order_by_powers(f, a) == f.order - 1)
        assert f._exp[1] == (f.x if primitive else first)
        seen.add(primitive)
    assert seen == {True, False}


def test_times_x_matches_schoolbook():
    for q, m in [(2, 1), (2, 9), (3, 1), (3, 4), (4, 3), (9, 2)]:
        f = Field(FieldSpec.default(q, m))
        a = np.arange(f.order)
        assert f.times_x(a).tolist() == [f._mul_poly(f.x, int(v)) for v in a]


# ---------------------------------------------------------------------------
# Frobenius


def test_frobenius_is_gfq_linear(example2_field):
    f = example2_field
    rng = SplitMix64(31)
    for _ in range(1000):
        a = rng.randbelow(f.order)
        b = rng.randbelow(f.order)
        e = 1 + rng.randbelow(f.m)
        assert f.frobenius(f.add(a, b), e) == f.add(f.frobenius(a, e), f.frobenius(b, e))
        assert f.frobenius(a, e) == f.pow(a, f.q**e)
    # q = 2: scalars are 0/1, so linearity over GF(q) is additivity; check
    # the multiplicative rule too.
    for _ in range(300):
        a = rng.randbelow(f.order)
        b = rng.randbelow(f.order)
        assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


def test_frobenius_order_m_is_identity(example2_field):
    f = example2_field
    rng = SplitMix64(37)
    for _ in range(200):
        a = rng.randbelow(f.order)
        assert f.frobenius(a, f.m) == a


def test_frobenius_fixed_field_is_subfield(example2_field):
    f = example2_field
    fixed = subfield_elements(f, 3)
    assert len(fixed) == 2**3
    for a in fixed:
        for b in fixed:
            assert f.add(a, b) in fixed
            assert f.mul(a, b) in fixed


# ---------------------------------------------------------------------------
# representation round trips


def test_omega_formatting_golden(example2_field):
    f = example2_field
    assert f.format_element(0) == "0"
    assert f.format_element(1) == "1"
    assert f.format_element(f.omega) == "w^1"
    assert f.parse_element("w^5") == f.omega_pow(5)
    assert f.parse_element("w") == f.omega
    assert f.log_omega(f.omega_pow(123)) == 123


def test_format_parse_round_trip(example2_field):
    f = example2_field
    rng = SplitMix64(41)
    for _ in range(500):
        a = rng.randbelow(f.order)
        assert f.parse_element(f.format_element(a)) == a
    with pytest.raises(ValueError):
        f.parse_element("")
    with pytest.raises(ValueError):
        f.parse_element("z^3")


def test_digit_vector_round_trip(example2_field):
    f = example2_field
    rng = SplitMix64(43)
    for _ in range(300):
        a = rng.randbelow(f.order)
        assert f.from_digits(f.digits(a)) == a
        assert f.from_coeffs(f.coeffs(a)) == a


def test_to_matrix_from_matrix(example2_field):
    f = example2_field
    rng = SplitMix64(47)
    vals = [rng.randbelow(f.order) for _ in range(12)]
    mat = f.to_matrix(vals)
    assert mat.shape == (f.m, 12)
    assert f.from_matrix(mat) == vals
    # column t of to_matrix is the coordinate vector of vals[t]
    assert np.array_equal(mat[:, 3], f.coeffs(vals[3]))
    # addition of elements is column addition of their vectors (q = 2)
    summed = f.to_matrix([f.add(a, b) for a, b in zip(vals[:6], vals[6:])])
    assert np.array_equal(summed, (mat[:, :6] + mat[:, 6:]) % 2)


def test_matrix_batch_matches_scalar(example2_field):
    f = example2_field
    rng = SplitMix64(53)
    codes = np.array(
        [[rng.randbelow(f.order) for _ in range(5)] for _ in range(40)], dtype=np.int64
    )
    batch = f.matrix_batch(codes)
    assert batch.shape == (40, f.m, 5)
    for b in range(40):
        assert np.array_equal(batch[b], f.to_matrix(codes[b]))


@pytest.mark.parametrize("m", [1, 6, 8, 9, 16, 32])
@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.uint32])
def test_gf2_digit_rows_match_divmod_oracle(m, dtype):
    # GF(2) digits are read as bits off a byte view; the divmod loop is the
    # oracle, for codes narrower and wider than the word they come in
    # (uint16 codes with m = 32 have zero high digits), strided slices and
    # empty shapes included
    gen = np.random.default_rng(m * 7 + np.dtype(dtype).itemsize)
    top = min(1 << m, int(np.iinfo(dtype).max) + 1)
    full = gen.integers(0, top, size=(6, 22), dtype=np.int64).astype(dtype)
    full[0, :3] = top - 1  # every bit a word of this width can hold
    cases = [full[0], full, full[:0], full[:, :0], full[::2, 1::3], full[1, ::-2], full.T]
    fld = Field(FieldSpec.default(2, m)) if m <= 16 else None
    for codes in cases:
        want = digit_rows_oracle(codes, 2, m)
        for got in [gf._digit_rows(codes, 2, m)] + ([fld.matrix_batch(codes)] if fld else []):
            assert got.dtype == np.uint8 and got.flags.c_contiguous
            assert got.shape == codes.shape[:-1] + (m, codes.shape[-1])
            assert np.array_equal(got, want)
        if fld and codes.ndim == 1:
            assert np.array_equal(fld.to_matrix(codes.tolist()), want)


@pytest.mark.parametrize("q, m", [(2, 1), (2, 6), (2, 9), (2, 16), (3, 4), (4, 3), (5, 2), (9, 2)])
def test_codes_batch_inverts_matrix_batch(q, m):
    # the packer is checked against from_digits, the scalar Horner loop,
    # and returns the narrowest unsigned type that holds a code
    f = Field(FieldSpec.default(q, m))
    codes = np.random.default_rng(q * 31 + m).integers(0, f.order, size=(7, 5))
    codes[0] = f.order - 1
    mats = f.matrix_batch(codes)
    got = f.codes_batch(mats)
    assert got.dtype == np.min_scalar_type(f.order - 1)
    assert np.array_equal(got, codes)
    horner = [[f.from_digits(col) for col in mat.T] for mat in mats]
    assert [f.from_matrix(mat) for mat in mats] == horner == got.tolist()
    assert f.codes_batch(mats[:0]).shape == (0, 5)
    with pytest.raises(ValueError, match="batch, m, n"):
        f.codes_batch(mats[0])


def test_span_rank_matches_matrix_rank():
    # the independence checks rank element codes; the table rank of the
    # coordinate matrix is the oracle, for q = 2 (word kernel) and q = 3
    for q, m in ((2, 9), (3, 4)):
        f = Field(FieldSpec.default(q, m))
        gen = np.random.default_rng(q)
        for size in range(m + 3):
            for _ in range(20):
                pts = gen.integers(0, f.order, size=size).tolist()
                if size > 1 and gen.random() < 0.3:
                    pts[-1] = f.add(pts[0], pts[1])  # force a dependency
                assert f.span_rank(pts) == gfq_rank(f.to_matrix(pts), q)
        with pytest.raises(ValueError, match="element out of range"):
            f.span_rank([f.order])
        with pytest.raises(ValueError, match="expected a flat sequence of elements"):
            f.span_rank([[1, 2]])


def test_vectorized_ops_match_scalar(example2_field):
    f = example2_field
    rng = SplitMix64(59)
    a = np.array([rng.randbelow(f.order) for _ in range(256)], dtype=np.int64)
    b = np.array([rng.randbelow(f.order) for _ in range(256)], dtype=np.int64)
    mv = f.mul_vec(a, b)
    av = f.add_vec(a, b)
    for i in range(256):
        assert mv[i] == f.mul(int(a[i]), int(b[i]))
        assert av[i] == f.add(int(a[i]), int(b[i]))


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (4, 2)])
def test_mul_vec_exhaustive(q, m):
    # every pair, zero on either side included: the one-gather product
    # against scalar mul and the schoolbook product, which has no tables
    f = Field(FieldSpec.default(q, m))
    a, b = np.meshgrid(np.arange(f.order), np.arange(f.order), indexing="ij")
    got = f.mul_vec(a, b)
    assert got.dtype == np.int64
    for x in range(f.order):
        for y in range(f.order):
            assert got[x, y] == f.mul(x, y) == f._mul_poly(x, y)
    assert (got[0] == 0).all() and (got[:, 0] == 0).all()


@pytest.mark.parametrize("q, m", [(2, 3), (3, 2), (4, 2), (9, 2)])
def test_scale_vec_is_multiplication_by_a_constant(q, m):
    # a constant of GF(q) scales every digit; schoolbook mul is the oracle
    f = Field(FieldSpec.default(q, m))
    a = np.arange(f.order)
    for c in range(q):
        assert f.scale_vec(c, a).tolist() == [f._mul_poly(c, int(x)) for x in a]
    with pytest.raises(ValueError, match="scalar"):
        f.scale_vec(q, a)


def test_add_vec_odd_characteristic():
    f = Field(FieldSpec.default(3, 3))
    rng = SplitMix64(61)
    a = np.array([rng.randbelow(f.order) for _ in range(128)], dtype=np.int64)
    b = np.array([rng.randbelow(f.order) for _ in range(128)], dtype=np.int64)
    av = f.add_vec(a, b)
    for i in range(128):
        assert av[i] == f.add(int(a[i]), int(b[i]))


@pytest.mark.parametrize("q, m", [(2, 9), (3, 4), (4, 3)])
def test_rank_codes_match_expanded_digits(q, m):
    # ranking element codes as they stand is ranking their digit matrices
    f = Field(FieldSpec.default(q, m))
    gen = np.random.default_rng(q)
    for rows in (1, 3, m, 2 * m):
        codes = gen.integers(0, f.order, size=(40, rows))
        codes[0::4] = 0
        codes[1::4, -1] = f.add_vec(codes[1::4, 0], codes[1::4, rows // 2])
        expected = gfq_rank_batch(f.matrix_batch(codes), q)
        assert gfq_rank_codes(codes, q, m).tolist() == expected.tolist()
    with pytest.raises(ValueError, match="code out of range"):
        gfq_rank_codes(np.array([[f.order]]), q, m)


@pytest.mark.parametrize("width", [16, 17, 32, 33, 64])
def test_rank_codes_narrow_words_match_digits(monkeypatch, width):
    # GF(2) codes reach the word kernel in the narrowest unsigned dtype
    # holding width bits; full-width words have the top bit set.  The
    # table elimination of gfq_rank_batch, which never reaches the word
    # kernel, is the oracle
    passed = []
    rank_words = gf._kernels.rank_words

    def spy(words):
        passed.append(words.dtype)
        return rank_words(words)

    monkeypatch.setattr(gf._kernels, "rank_words", spy)
    word = {16: np.uint16, 17: np.uint32, 32: np.uint32, 33: np.uint64, 64: np.uint64}
    gen = np.random.default_rng(width)
    full = np.uint64((1 << width) - 1)
    for rows in (1, 5, width + 3):
        codes = gen.integers(0, 1 << width, size=(30, rows), dtype=np.uint64)
        codes[0::5] = 0
        codes[1::5, 0] = full
        codes[2::5, -1] = full
        codes[3::5, -1] = codes[3::5, 0] ^ codes[3::5, rows // 2]
        passed.clear()
        expected = gfq_rank_batch(gf._digit_rows(codes, 2, width), 2).tolist()
        assert not passed
        inputs = [codes] if width == 64 else [codes, codes.astype(np.int64)]
        for given in inputs:
            passed.clear()
            assert gfq_rank_codes(given, 2, width).tolist() == expected
            assert passed == [word[width]]
    if width < 64:
        with pytest.raises(ValueError, match="code out of range"):
            gfq_rank_codes(np.array([[1 << width]], dtype=np.uint64), 2, width)


def test_sub_vec_inverts_add_vec():
    for q, m in ((2, 5), (3, 3), (4, 2)):
        f = Field(FieldSpec.default(q, m))
        gen = np.random.default_rng(q + m)
        a, b = gen.integers(0, f.order, size=(2, 64))
        assert (f.sub_vec(f.add_vec(a, b), b) == a).all()
        for x, y, d in zip(a, b, f.sub_vec(a, b)):
            assert d == f.sub(int(x), int(y))


# ---------------------------------------------------------------------------
# spec validation


@pytest.mark.parametrize(
    "q, mat", [(2, [[256, 1]]), (2, [[0.5, 1]]), (3, [[-255, 1]]), (2, [[1, np.nan]])]
)
def test_gfq_rank_refuses_entries_a_cast_would_change(q, mat):
    # uint8 would read 256 as 0, 0.5 as 0 and -255 as 1: the rank of a
    # matrix that is not over GF(q) is refused, not computed
    with pytest.raises(ValueError, match="matrix entries"):
        gfq_rank(np.asarray(mat), q)


def test_gfq_rank_reads_bool_and_wide_integers():
    mat = np.array([[1, 0, 1], [0, 1, 1]])
    assert gfq_rank(mat, 2) == gfq_rank(mat.astype(bool), 2) == 2
    assert gfq_rank(mat.astype(np.int64) * 2, 3) == 2


def test_field_spec_validation():
    with pytest.raises(ValueError, match="monic"):
        Field(FieldSpec(2, 3, (1, 1, 0, 0)))
    with pytest.raises(ValueError, match="irreducible"):
        Field(FieldSpec(2, 3, (0, 0, 0, 1)))  # x^3 factors
    with pytest.raises(ValueError, match="out of range"):
        Field(FieldSpec(2, 3, (3, 1, 0, 1)))
    # x^2 + 2x + 1 over GF(4): x has order 5, not 15, so the field has no
    # designated primitive element and no tower can be built in it
    f = Field(FieldSpec(4, 2, (1, 2, 1)))
    assert f.omega is None
    with pytest.raises(ValueError, match="needs a designated primitive element"):
        tower_build(f, 2, 1)


def test_element_order(example2_field):
    f = example2_field
    assert f.element_order(f.omega) == f.order - 1
    assert f.element_order(1) == 1
    assert (f.order - 1) % f.element_order(f.omega_pow(7)) == 0
    with pytest.raises(ValueError):
        f.element_order(0)


# ---------------------------------------------------------------------------
# GF(q) matrix conveniences


def test_gfq_helpers_round_trip():
    rng = SplitMix64(67)
    for q in (2, 3):
        for _ in range(50):
            a = np.array(
                [[rng.randbelow(q) for _ in range(5)] for _ in range(4)], dtype=np.uint8
            )
            b = np.array(
                [[rng.randbelow(q) for _ in range(3)] for _ in range(5)], dtype=np.uint8
            )
            assert gfq_rank(a, q) == naive_rank(a, q)
            assert np.array_equal(
                gfq_matmul(a, b, q), (a.astype(int) @ b.astype(int)) % q
            )
    reduced, pivots = gfq_row_reduce(np.eye(4, dtype=np.uint8), 2)
    assert list(map(int, pivots)) == [0, 1, 2, 3]
    assert np.array_equal(reduced, np.eye(4, dtype=np.uint8))


# ---------------------------------------------------------------------------
# evaluation tower


def test_tower_default_construction(example2_field):
    t = tower_build(example2_field, 9, 3)
    f = t.field
    assert t.mu == 3
    assert f.element_order(t.g) == 2**3 - 1
    assert len(t.basis_a) == 3 and len(t.basis_b) == 3
    pts = t.product_points()
    assert len(pts) == 9
    assert gfq_rank(f.to_matrix(pts), 2) == 9


def test_tower_example_partition(example2_code):
    # The pinned bases reproduce the reference evaluation-point layout.
    code = example2_code
    f = code.field
    logs = [f.log_omega(p) for p in code.eval_points]
    assert logs == [0, 73, 146, 309, 382, 455, 107, 180, 253]


def test_tower_product_rank_is_the_independence_check(example2_field):
    # The fact the tower relies on: basis_a spanning GF(q^s)/GF(q) and
    # basis_b independent over GF(q^s) make the s*mu products a GF(q)-basis
    # of GF(q^n).  Verified here without the tower code path: random bases,
    # independence checked by brute enumeration, then the product rank.
    f = Field(FieldSpec.default(2, 6))
    s, mu = 2, 3
    sub = subfield_elements(f, s)  # GF(4) inside GF(64)
    assert len(sub) == 4
    rng = SplitMix64(71)
    found = 0
    while found < 25:
        basis_a = [rng.randbelow(f.order) for _ in range(s)]
        if gfq_rank(f.to_matrix(basis_a), 2) != s:
            continue
        if any(f.frobenius(a, s) != a for a in basis_a):
            continue
        basis_b = [rng.randbelow(f.order) for _ in range(mu)]
        # independence over GF(q^s) by brute force: no nontrivial
        # GF(4)-combination vanishes
        dependent = False
        for c0 in sub:
            for c1 in sub:
                for c2 in sub:
                    if (c0, c1, c2) == (0, 0, 0):
                        continue
                    acc = f.add(
                        f.add(f.mul(c0, basis_b[0]), f.mul(c1, basis_b[1])),
                        f.mul(c2, basis_b[2]),
                    )
                    if acc == 0:
                        dependent = True
        prods = [f.mul(a, b) for b in basis_b for a in basis_a]
        rank = gfq_rank(f.to_matrix(prods), 2)
        if dependent:
            assert rank < 6
        else:
            assert rank == 6
            found += 1


def test_tower_validation_errors(example2_field):
    f = example2_field
    with pytest.raises(ValueError, match="divisibility"):
        tower_build(f, 4, 2)
    with pytest.raises(ValueError, match="outside"):
        tower_build(f, 9, 3, basis_a=[1, f.omega, f.omega_pow(2)])
    g = f.omega_pow(73)
    with pytest.raises(ValueError, match="independent"):
        tower_build(f, 9, 3, basis_a=[1, g, f.add(1, g)])
    with pytest.raises(ValueError, match="must have"):
        tower_build(f, 9, 3, basis_b=[1, g])
    with pytest.raises(ValueError, match="independent"):
        # all products land inside GF(2^3): rank 3 < 9
        tower_build(f, 9, 3, basis_b=[1, g, f.add(1, g)])
    small = Field(FieldSpec.default(2, 6))
    with pytest.raises(ValueError, match="outside"):
        # omega generates GF(2^6)*, so it cannot sit inside GF(2^3)
        tower_build(small, 3, 3, basis_b=[small.omega])


def test_factorization_cap():
    from rankloc.gf import _factorize

    assert _factorize(2**16 - 1) == {3: 1, 5: 1, 17: 1, 257: 1}
    with pytest.raises(ValueError, match="factorization"):
        _factorize(2**33)

"""Linearized polynomials: evaluation, linearity, interpolation, kernels."""

import pytest

from rankloc.codes import interpolate
from rankloc.gf import Field, FieldSpec, gfq_rank
from rankloc.linpoly import LinearizedPoly
from rankloc.rng import SplitMix64

from helpers import root_space_dim


def rand_poly(rng, field, max_deg):
    return LinearizedPoly(
        field, {e: rng.randbelow(field.order) for e in range(max_deg + 1)}
    )


def test_evaluation_matches_direct_powering(example2_field):
    from helpers import naive_lin_eval

    f = example2_field
    rng = SplitMix64(211)
    for _ in range(400):
        poly = rand_poly(rng, f, rng.randbelow(5))
        x = rng.randbelow(f.order)
        assert poly(x) == naive_lin_eval(f, poly.coeffs, x)
    assert LinearizedPoly.zero(f)(f.omega) == 0
    assert rand_poly(rng, f, 3)(0) == 0


def test_evaluation_is_gfq_linear(example2_field):
    f = example2_field
    rng = SplitMix64(223)
    for _ in range(1000):
        poly = rand_poly(rng, f, 4)
        a = rng.randbelow(f.order)
        b = rng.randbelow(f.order)
        assert poly(f.add(a, b)) == f.add(poly(a), poly(b))
    # scalars from the base field commute with evaluation; over GF(q) with
    # q = 3 that is a real constraint, not just additivity
    f3 = Field(FieldSpec.default(3, 3))
    rng = SplitMix64(227)
    for _ in range(300):
        poly = rand_poly(rng, f3, 3)
        a = rng.randbelow(f3.order)
        for c in range(f3.q):
            assert poly(f3.mul(c, a)) == f3.mul(c, poly(a))


def test_algebra_ops(example2_field):
    f = example2_field
    rng = SplitMix64(229)
    for _ in range(200):
        p1 = rand_poly(rng, f, 3)
        p2 = rand_poly(rng, f, 5)
        c = rng.randbelow(f.order)
        x = rng.randbelow(f.order)
        assert (p1 + p2)(x) == f.add(p1(x), p2(x))
        assert p1.scale(c)(x) == f.mul(c, p1(x))
    assert p1 + LinearizedPoly.zero(f) == p1
    assert p1.scale(0) == LinearizedPoly.zero(f)
    assert LinearizedPoly.zero(f).q_degree == -1


def test_constructor_validation(example2_field):
    f = example2_field
    with pytest.raises(ValueError, match="exponent"):
        LinearizedPoly(f, {-1: 1})
    with pytest.raises(ValueError, match="coefficient"):
        LinearizedPoly(f, {0: f.order})
    # zero coefficients are dropped
    assert LinearizedPoly(f, {0: 1, 3: 0}).coeffs == {0: 1}


@pytest.mark.parametrize(
    "q, m, max_pts, cases",
    [(2, 9, 4, 1000), (3, 4, 4, 300), (2, 16, 6, 40)],
    ids=["2^9", "3^4", "2^16"],
)
def test_interpolate_round_trip(q, m, max_pts, cases):
    f = Field(FieldSpec.default(q, m))
    rng = SplitMix64(233)
    done = 0
    while done < cases:
        n_pts = 1 + rng.randbelow(max_pts)
        pts = [rng.randbelow(f.order) for _ in range(n_pts)]
        if gfq_rank(f.to_matrix(pts), f.q) != n_pts:
            continue
        vals = [rng.randbelow(f.order) for _ in range(n_pts)]
        poly = interpolate(f, pts, vals)
        assert poly.q_degree < n_pts
        assert poly.evaluate_many(pts) == vals
        done += 1


def test_interpolate_recovers_the_polynomial(example2_field):
    # interpolating a known polynomial on m independent points returns it
    f = example2_field
    rng = SplitMix64(239)
    basis = [f.q**t for t in range(f.m)]  # polynomial basis 1, x, ..., x^(m-1)
    for _ in range(50):
        poly = rand_poly(rng, f, f.m - 1)
        back = interpolate(f, basis, poly.evaluate_many(basis))
        assert back == poly


def test_interpolate_rejects_dependent_points(example2_field):
    f = example2_field
    a, b = f.omega, f.omega_pow(2)
    with pytest.raises(ValueError, match="Moore matrix singular"):
        interpolate(f, [a, b, f.add(a, b)], [1, 1, 1])
    with pytest.raises(ValueError, match="Moore matrix singular"):
        # more points than m are dependent
        interpolate(f, [f.q**t for t in range(f.m)] + [f.omega], [1] * (f.m + 1))
    with pytest.raises(ValueError, match="differ in length"):
        interpolate(f, [a], [1, 2])
    assert interpolate(f, [], []) == LinearizedPoly.zero(f)


def test_root_space_dim_counts_kernel(example2_field):
    f = example2_field
    rng = SplitMix64(241)
    for _ in range(60):
        poly = rand_poly(rng, f, 3)
        if not poly:
            continue
        dim = root_space_dim(poly)
        roots = sum(1 for a in range(f.order) if poly(a) == 0)
        assert roots == f.q**dim
        assert dim <= poly.q_degree
    with pytest.raises(ValueError, match="everything"):
        root_space_dim(LinearizedPoly.zero(f))


def test_root_space_golden(example2_field):
    f = example2_field
    # x^(q^1) - x vanishes exactly on GF(q): kernel dimension 1
    pearl = LinearizedPoly(f, {1: 1, 0: f.neg(1)})
    assert root_space_dim(pearl) == 1
    # x^(q^3) - x vanishes on the GF(q^3) subfield: dimension 3
    cube = LinearizedPoly(f, {3: 1, 0: f.neg(1)})
    assert root_space_dim(cube) == 3


def test_format(example2_field):
    f = example2_field
    poly = LinearizedPoly(f, {0: f.omega, 1: 1})
    assert poly.format("f") == "f = w^1*X^[0] + 1*X^[1]"
    assert LinearizedPoly.zero(f).format() == "L = 0"

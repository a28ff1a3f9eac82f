"""Subspace lifting: canonical bases, the metric, and block locality."""

from types import SimpleNamespace

import numpy as np
import pytest

from rankloc import subspace
from rankloc.codes import build_code
from rankloc.gf import Field, FieldSpec, _digit_rows, base_tables, gfq_rank
from rankloc.rng import SplitMix64
from rankloc.subspace import (
    Subspace,
    lift,
    lift_codes,
    min_subspace_distance,
    pack_rows,
    rcef,
    _lifted_distances,
    subspace_distance,
    verify_subspace_locality,
)

from helpers import lifted_subspace, locality_per_block, rand_matrix


# ---------------------------------------------------------------------------
# canonical column form


def test_rcef_fixed_points():
    eye = np.eye(4, dtype=np.uint8)
    assert (rcef(eye) == eye).all()
    assert rcef(np.zeros((4, 2), dtype=np.uint8)).shape == (4, 0)


def test_rcef_is_canonical_and_idempotent():
    # bases differing by an invertible column transform share one RCEF
    rng = SplitMix64(501)
    for _ in range(80):
        h = rand_matrix(rng, 5, 3, 2)
        while True:
            g = rand_matrix(rng, 3, 3, 2)
            if gfq_rank(g.copy(), 2) == 3:
                break
        hg = (h.astype(int) @ g.astype(int) % 2).astype(np.uint8)
        canon = rcef(h)
        assert (canon == rcef(hg)).all()
        assert (rcef(canon) == canon).all()
        assert gfq_rank(canon.copy(), 2) == canon.shape[1]


def test_rcef_odd_characteristic():
    rng = SplitMix64(503)
    for _ in range(60):
        h = rand_matrix(rng, 4, 2, 3)
        canon = rcef(h, 3)
        assert (rcef(canon, 3) == canon).all()
        # same column space: ranks of stacked pairs collapse
        both = np.hstack([h, canon])
        assert gfq_rank(both, 3) == gfq_rank(h.copy(), 3)


def test_subspace_identity_and_hash():
    u1 = Subspace.from_matrix(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8))
    u2 = Subspace.from_matrix(np.array([[1, 1], [0, 1], [1, 0]], dtype=np.uint8))
    assert u1 == u2 and hash(u1) == hash(u2)
    assert u1.ambient == 3 and u1.dim == 2


# ---------------------------------------------------------------------------
# metric


def test_subspace_distance_small_cases():
    u = Subspace.from_matrix(np.array([[1], [0]], dtype=np.uint8))
    v = Subspace.from_matrix(np.array([[0], [1]], dtype=np.uint8))
    w = Subspace.from_matrix(np.eye(2, dtype=np.uint8))
    assert subspace_distance(u, u) == 0
    assert subspace_distance(u, v) == 2  # complementary lines
    assert subspace_distance(u, w) == 1  # line inside the plane
    with pytest.raises(ValueError, match="ambient"):
        subspace_distance(u, Subspace.from_matrix(np.eye(3, dtype=np.uint8)))


def test_subspace_metric_axioms():
    rng = SplitMix64(509)
    spaces = []
    while len(spaces) < 24:
        cand = Subspace.from_matrix(rand_matrix(rng, 5, 1 + rng.randbelow(3), 2))
        spaces.append(cand)
    for _ in range(1000):
        u = spaces[rng.randbelow(len(spaces))]
        v = spaces[rng.randbelow(len(spaces))]
        w = spaces[rng.randbelow(len(spaces))]
        duv = subspace_distance(u, v)
        assert duv == subspace_distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= subspace_distance(u, w) + subspace_distance(w, v)


# ---------------------------------------------------------------------------
# lifting


def test_lift_shape_and_canonical(tiny_code):
    mats = tiny_code.field.matrix_batch(tiny_code.codeword_codes())
    sp = lift(mats[123])
    assert sp.ambient == 12 and sp.dim == 6
    assert (sp.basis[:6] == np.eye(6, dtype=np.uint8)).all()
    assert (rcef(sp.basis) == sp.basis).all()


def test_lift_is_injective(tiny_code):
    mats = tiny_code.field.matrix_batch(tiny_code.codeword_codes())
    seen = {lift(mats[i]).basis.tobytes() for i in range(mats.shape[0])}
    assert len(seen) == 4096


def test_lift_doubles_rank_distance(tiny_code):
    # pairwise: the lifted distance is exactly twice the rank distance, and
    # the packed-code scan over the same matched pairs agrees pair by pair
    codes = tiny_code.codeword_codes()
    mats = tiny_code.field.matrix_batch(codes)
    t = base_tables(2)
    rng = SplitMix64(521)
    left, right, expected = [], [], []
    for _ in range(1000):
        i = rng.randbelow(mats.shape[0])
        j = rng.randbelow(mats.shape[0])
        ds = subspace_distance(lift(mats[i]), lift(mats[j]))
        dr = gfq_rank(t.sub[mats[i], mats[j]], 2)
        assert ds == 2 * dr
        left.append(i)
        right.append(j)
        expected.append(ds)
    got = _lifted_distances(codes[left], codes[right], 6, range(6), 2, 6)
    assert got.tolist() == expected


def test_lifted_code_enumeration(tiny_code):
    # every codeword's packed lifted columns unpack to the basis of lift()
    codes = tiny_code.codeword_codes()
    packed = lift_codes(codes, 6, range(6), 2)
    assert packed.shape == (4096, 6) and packed.dtype == np.uint64
    bases = _digit_rows(packed, 2, 12)
    mats = tiny_code.field.matrix_batch(codes)
    for i in range(0, 4096, 97):
        assert (bases[i] == lift(mats[i]).basis).all()
        assert (bases[i] == np.vstack([np.eye(6, dtype=np.uint8), mats[i]])).all()
    assert (pack_rows(bases.swapaxes(1, 2), 2) == packed).all()
    assert len(np.unique(packed, axis=0)) == 4096


def test_min_subspace_distance_tiny(tiny_code):
    assert min_subspace_distance(tiny_code) == 8  # == 2 * min rank distance 4


def test_min_subspace_distance_cross_check_fires(tiny_code, monkeypatch):
    # a rank kernel that miscounts codeword differences breaks d_S = 2 d_R
    real = subspace.gfq_rank_codes

    def off_by_one_on_differences(codes, q, width):
        # differences are width-m vectors, lifted columns width n+m
        return real(codes, q, width) + (width == tiny_code.field.m)

    monkeypatch.setattr(subspace, "gfq_rank_codes", off_by_one_on_differences)
    with pytest.raises(RuntimeError, match="distance cross-check failed"):
        min_subspace_distance(tiny_code)


@pytest.mark.parametrize("q", [2, 3])
def test_lifted_distances_match_subspace_distance(q, example2_code):
    # code-form lifting against lifted bases and the definition, on whole
    # codewords and on one rack's block as the locality check compares them
    code = example2_code if q == 2 else build_code(3, 4, 4, 2, 1, 2)
    f, n = code.field, code.n
    rng = SplitMix64(71 + q)
    msgs = np.array([[rng.randbelow(f.order) for _ in range(code.k)] for _ in range(40)])
    codes = code.encode_batch(msgs)
    codes[20] = codes[0]  # one pair at distance 0
    for cols in (range(n), code.rack_columns(2)):
        left, right = codes[:20, list(cols)], codes[20:, list(cols)]
        got = _lifted_distances(left, right, n, cols, q, f.m)
        for t in range(20):
            u, v = (lifted_subspace(f, block[t], n, cols) for block in (left, right))
            assert got[t] == subspace_distance(u, v)
        assert got[0] == 0


def test_lifted_distances_fill_64_bits(monkeypatch):
    # q^(n+m) = 2^64: packed lifted columns use the top bit of uint64, so
    # any signed intermediate would wrap.  The code builds (about a second,
    # the irreducibility test), and both routes of the distance agree.
    # 50 sampled pairs keep the locality check at a few milliseconds
    monkeypatch.setattr(subspace, "_SAMPLED_PAIRS", 50)
    spec = FieldSpec(4, 16, (2, 1, 0, 2, 0, 0, 0, 0, 3, 1, 3, 0, 1, 3, 3, 1, 1))
    code = build_code(4, 16, 16, 2, 1, 1, field=Field(spec))
    f = code.field
    report = verify_subspace_locality(code)
    assert report.passed and not report.exact
    rng = SplitMix64(4416)
    msgs = np.array([[rng.randbelow(f.order) for _ in range(2)] for _ in range(40)])
    codes = code.encode_batch(msgs)
    left, right = codes[:20], codes[20:]
    packed = lift_codes(left, 16, range(16), 4)
    assert packed.max() >= 1 << 63
    # digits packed back by ``pack_rows`` give the same top-bit codes
    assert (pack_rows(_digit_rows(packed, 4, 32).swapaxes(1, 2), 4) == packed).all()
    got = _lifted_distances(left, right, 16, range(16), 4, 16)
    ranks = [gfq_rank(f.to_matrix(row), 4) for row in f.sub_vec(left, right)]
    assert got.tolist() == [2 * r for r in ranks]


def test_min_subspace_distance_degenerate(tiny_code):
    # a family of one codeword has no distance; no pairs give no distances
    with pytest.raises(ValueError, match="degenerate"):
        min_subspace_distance(SimpleNamespace(codeword_count=1))
    no_pairs = np.zeros((0, 6), np.int64)
    assert _lifted_distances(no_pairs, no_pairs, 6, range(6), 2, 6).shape == (0,)


# ---------------------------------------------------------------------------
# locality of the lifted code


def test_locality_tiny_exact(tiny_code):
    report = verify_subspace_locality(tiny_code)
    assert report.r == 1 and report.delta == 2
    assert report.subspace_delta == 4
    assert report.passed and report.exact
    assert report.summary() == "subspace-locality (1,4): PASS"
    assert len(report.blocks) == 3
    for b in report.blocks:
        assert b.size_ok and b.dim_ok and b.exact
        assert b.projected_distance == 4
        assert b.required_distance == 4
        assert b.passed


def test_locality_projection_is_the_local_code(tiny_code):
    # block 1 projections of the full code coincide with the local code
    code = tiny_code
    mats = code.field.matrix_batch(code.codeword_codes())
    cols = code.rack_columns(1)
    proj = {mats[i][:, cols.start : cols.stop].tobytes() for i in range(mats.shape[0])}
    loc = code.field.matrix_batch(code.local_code(1).codeword_codes())
    locset = {loc[i].tobytes() for i in range(loc.shape[0])}
    assert proj == locset
    assert len(proj) == 64


def test_locality_sampled_mode(example2_code):
    # the 2^36-codeword instance only admits the sampled check
    report = verify_subspace_locality(example2_code, seed=3)
    assert report.r == 2 and report.subspace_delta == 4
    assert report.passed and not report.exact
    assert report.summary() == "subspace-locality (2,4): PASS (sampled)"
    for b in report.blocks:
        assert b.size_ok and b.dim_ok
        assert b.projected_distance >= b.required_distance
    # seeded sample: every block's 2000 pairs reach the true minimum 4
    assert [b.projected_distance for b in report.blocks] == [4, 4, 4]


def test_locality_sampled_distances_pinned(example2_code, monkeypatch):
    # the values of enumerating every local codeword and sampling pairs
    # among them, which drawing the pair indices first must reproduce;
    # with budget=1000 the local codes are over budget and the pairs come
    # from random messages instead.  The pins were taken at 20 and 50
    # pairs, where the blocks' minima still differ
    monkeypatch.setattr(subspace, "_SAMPLED_PAIRS", 20)
    within = verify_subspace_locality(example2_code, seed=5)
    assert [b.projected_distance for b in within.blocks] == [6, 6, 6]
    monkeypatch.setattr(subspace, "_SAMPLED_PAIRS", 50)
    over = verify_subspace_locality(example2_code, budget=1000, seed=2)
    assert [b.projected_distance for b in over.blocks] == [4, 4, 6]
    assert not within.exact and not over.exact


def test_locality_over_budget_leaves_out_equal_messages(tiny_code):
    # past the budget the pairs index a pool of 2000 random messages, and
    # the 64 local messages of the tiny code repeat in it: two equal
    # messages at different indices would read distance 0
    report = verify_subspace_locality(tiny_code, budget=10)
    assert not report.exact and report.passed
    assert [b.projected_distance for b in report.blocks] == [4, 4, 4]


@pytest.fixture(scope="module")
def ternary_code():
    return build_code(3, 4, 4, 2, 1, 2)


@pytest.mark.parametrize(
    "name, budget, seed, exact_pairs, sampled_pairs",
    [
        # every block scanned exhaustively
        ("tiny", None, 0, None, None),
        ("ternary", None, 0, None, None),
        # within budget but past the pair limit: pairs of enumerated codewords
        ("tiny", None, 3, 10, None),
        ("ternary", None, 4, 10, None),
        ("example2", None, 1, None, None),
        # past --budget: pairs from a pool of random messages
        ("tiny", 10, 2, None, None),
        ("ternary", 50, 5, None, None),
        ("example2", 1000, 2, None, None),
        # a few pairs, so the blocks' minima differ and name their pairs
        ("example2", None, 13, None, 6),
        ("example2", 1000, 13, None, 10),
        ("example2", 1000, 15, None, 10),
    ],
)
def test_locality_matches_per_block_oracle(
    name, budget, seed, exact_pairs, sampled_pairs, request, monkeypatch
):
    # one family encode and one rank call for all blocks give each block's
    # verdict of its own local code, scanned on its own
    code = request.getfixturevalue(f"{name}_code")
    if exact_pairs is not None:
        monkeypatch.setattr(subspace, "_EXACT_PAIRS", exact_pairs)
    if sampled_pairs is not None:
        monkeypatch.setattr(subspace, "_SAMPLED_PAIRS", sampled_pairs)
    kwargs = {"seed": seed} if budget is None else {"budget": budget, "seed": seed}
    report = verify_subspace_locality(code, **kwargs)
    assert report == locality_per_block(code, **kwargs)
    assert report.exact == (budget is None and exact_pairs is None and name != "example2")
    if sampled_pairs is not None:
        assert len({b.projected_distance for b in report.blocks}) > 1


def test_locality_rejects_plain_codes(tiny_code):
    with pytest.raises(TypeError):
        verify_subspace_locality(tiny_code.local_code(1))


def test_projection_membership_sampled(example2_code):
    # sampled projections of full codewords always land in the local code
    code = example2_code
    f = code.field
    rng = SplitMix64(523)
    gsub = code.local_code(2).generator_gfq()
    base_rank = gfq_rank(gsub.copy(), 2)
    for _ in range(200):
        msg = [rng.randbelow(f.order) for _ in range(4)]
        block = code.encode_matrix(msg)[:, 3:6].flatten(order="F").astype(np.uint8)
        stacked = np.vstack([gsub, block[None, :]])
        assert gfq_rank(stacked, 2) == base_rank

"""Locality codes: construction, encoding, bounds, single-rack repair."""

import numpy as np
import pytest

from rankloc.codes import (
    CodeParams,
    GabidulinCode,
    LocalRankCode,
    OracleBudgetError,
    build_code,
    min_rank_distance,
    rack_min_ranks,
    rank_distance_bound,
    sampled_min_rank,
    sampled_min_ranks,
)
from rankloc.gf import Field, FieldSpec, base_tables, gfq_matmul, gfq_rank, gfq_rank_batch
from rankloc.rng import SplitMix64

from helpers import (
    encode_oracle,
    is_codeword,
    message_slot,
    rand_nonzero_message,
    repair_poly,
)


# ---------------------------------------------------------------------------
# parameters


def test_params_derived_quantities():
    p = CodeParams(2, 9, 9, 4, 2, 2)
    assert p.s == 3 and p.mu == 3
    assert [message_slot(p, i, j) for j in range(2) for i in range(2)] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="subscript"):
        message_slot(p, 2, 0)


def test_params_validation_messages():
    with pytest.raises(ValueError, match="positive"):
        CodeParams(2, 9, 9, 0, 2, 2)
    with pytest.raises(ValueError, match="delta"):
        CodeParams(2, 9, 9, 4, 2, 0)
    with pytest.raises(ValueError, match="r must divide k"):
        CodeParams(2, 9, 9, 3, 2, 2)
    with pytest.raises(ValueError, match="must divide n"):
        CodeParams(2, 8, 8, 4, 2, 2)
    with pytest.raises(ValueError, match="n must divide m"):
        CodeParams(2, 10, 9, 4, 2, 2)
    with pytest.raises(ValueError, match="blocks cannot exceed racks"):
        CodeParams(2, 12, 12, 8, 2, 3)  # 4 message blocks, only 3 racks
    with pytest.raises(ValueError, match="k must not exceed n"):
        CodeParams(2, 4, 4, 8, 4, 1)


def test_distance_bound_values():
    # n - k + 1 - (ceil(k/r) - 1)(delta - 1)
    assert rank_distance_bound(9, 4, 2, 2) == 5
    assert rank_distance_bound(6, 2, 1, 2) == 4
    assert rank_distance_bound(9, 4, 4, 2) == 6  # single block: plain Singleton
    assert rank_distance_bound(12, 6, 2, 3) == 3


# ---------------------------------------------------------------------------
# reference code goldens


def test_reference_partition(example2_code):
    code = example2_code
    f = code.field
    assert [f.log_omega(p) for p in code.rack_points(1)] == [0, 73, 146]
    assert [f.log_omega(p) for p in code.rack_points(2)] == [309, 382, 455]
    assert [f.log_omega(p) for p in code.rack_points(3)] == [107, 180, 253]
    assert code.exponents == (0, 1, 3, 4)
    assert list(code.rack_columns(2)) == [3, 4, 5]
    assert [j for j in (1, 2, 3) for _ in code.rack_columns(j)] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    with pytest.raises(ValueError, match="rack index"):
        code.rack_columns(4)


def test_reference_codeword_golden(example2_code):
    code = example2_code
    f = code.field
    msg = [f.omega_pow(e) for e in (1, 2, 4, 8)]
    cw = code.encode(msg)
    assert [f.log_omega(c) for c in cw] == [440, 307, 81, 465, 11, 174, 236, 132, 399]
    assert (
        code.encoding_poly(msg).format("f")
        == "f = w^1*X^[0] + w^2*X^[1] + w^4*X^[3] + w^8*X^[4]"
    )
    mat = code.encode_matrix(msg)
    assert mat.shape == (9, 9)
    assert np.array_equal(mat[:, 0], f.coeffs(cw[0]))


def test_reference_good_poly_constant_per_rack(example2_code):
    # x^(q^s - 1) collapses each rack to a single value: 1, w^119, w^238.
    code = example2_code
    f = code.field
    e = f.q**code.params.s - 1
    values = []
    for j in (1, 2, 3):
        per_rack = {f.pow(p, e) for p in code.rack_points(j)}
        assert len(per_rack) == 1
        values.append(per_rack.pop())
    assert [f.log_omega(v) if v != 1 else 0 for v in values] == [0, 119, 238]


def test_reference_repair_poly_golden(example2_code):
    code = example2_code
    f = code.field
    msg = [f.omega_pow(e) for e in (1, 2, 4, 8)]
    r1 = repair_poly(code, msg, 1)
    assert r1.format() == "L = w^421*X^[0] + w^331*X^[1]"
    # rack 1 sits on gamma = 1, so its collapse factor is 1 and the
    # coefficients are plain sums of same-i message symbols
    assert r1.coeffs[0] == f.add(msg[0], msg[2])
    assert r1.coeffs[1] == f.add(msg[1], msg[3])
    # racks 2 and 3 scale the second block by powers of the collapsed value
    for j, h_log in ((2, 119), (3, 238)):
        rj = repair_poly(code, msg, j)
        h = f.omega_pow(h_log)
        assert rj.coeffs[0] == f.add(msg[0], f.mul(msg[2], h))
        assert rj.coeffs[1] == f.add(msg[1], f.mul(msg[3], f.frobenius(h)))


def test_repair_poly_matches_encoding_on_rack(example2_code):
    code = example2_code
    rng = SplitMix64(307)
    for _ in range(100):
        msg = rand_nonzero_message(rng, code.field, code.k)
        cw = code.encode(msg)
        j = 1 + rng.randbelow(code.params.mu)
        local = repair_poly(code, msg, j)
        assert local.q_degree <= code.params.r - 1
        cols = code.rack_columns(j)
        assert local.evaluate_many(code.rack_points(j)) == cw[cols.start : cols.stop]


def test_local_code_is_full_length_restriction(example2_code, tiny_code):
    for code in (example2_code, tiny_code):
        p = code.params
        rng = SplitMix64(311)
        for j in range(1, p.mu + 1):
            local = code.local_code(j)
            assert isinstance(local, GabidulinCode)
            assert local.n == p.s and local.k == p.r
            for _ in range(20):
                msg = rand_nonzero_message(rng, code.field, code.k)
                cw = code.encode(msg)
                cols = code.rack_columns(j)
                # the restriction is the local encoding of the repair
                # polynomial's coefficient vector
                rp = repair_poly(code, msg, j)
                local_msg = [rp.coeffs.get(i, 0) for i in range(p.r)]
                assert local.encode(local_msg) == cw[cols.start : cols.stop]


# ---------------------------------------------------------------------------
# linearity and generator matrix


def test_local_code_is_cached(example2_code):
    # one Gabidulin code per rack, so its generator and codeword caches last
    local = example2_code.local_code(2)
    assert example2_code.local_code(2) is local
    assert local.generator_gfq() is example2_code.local_code(2).generator_gfq()
    assert example2_code.local_code(3) is not local
    with pytest.raises(ValueError, match="rack index"):
        example2_code.local_code(4)


def test_encode_is_linear(example2_code):
    code = example2_code
    f = code.field
    rng = SplitMix64(313)
    for _ in range(150):
        m1 = rand_nonzero_message(rng, f, code.k)
        m2 = rand_nonzero_message(rng, f, code.k)
        c = rng.randbelow(f.order)
        summed = [f.add(a, b) for a, b in zip(m1, m2)]
        scaled = [f.mul(c, a) for a in m1]
        cw1, cw2 = code.encode(m1), code.encode(m2)
        assert code.encode(summed) == [f.add(a, b) for a, b in zip(cw1, cw2)]
        assert code.encode(scaled) == [f.mul(c, a) for a in cw1]


@pytest.mark.parametrize(
    "params, count",
    [
        (None, 64),
        ((3, 4, 4, 2, 1, 2), 64),
        ((4, 4, 4, 2, 1, 2), 64),
        ((5, 2, 2, 2, 1, 1), 64),
        ((9, 2, 2, 2, 1, 1), 64),
        ((2, 16, 16, 4, 2, 3), 64),
        ((3, 11, 11, 1, 1, 1), 6),
    ],
    ids=["example2", "q3", "q4", "q5", "q9", "two-chunk-2^16", "untabled-3^11"],
)
def test_encode_batch_matches_scalar(params, count, example2_code):
    # the tables against scalar evaluation, zero slots and the top symbol included:
    # GF(2^16) splits each slot into two 8-bit chunks, and GF(3^11) is past
    # the log-table limit, so only the tables can encode it in batch
    code = example2_code if params is None else build_code(*params)
    order = code.field.order
    rng = SplitMix64(317)
    msgs = np.array(
        [[rng.randbelow(order) for _ in range(code.k)] for _ in range(count)],
        dtype=np.int64,
    )
    msgs[0] = 0
    msgs[1] = order - 1
    msgs[2::3, 0] = 0
    msgs[3::4, -1] = 0
    batch = code.encode_batch(msgs)
    assert batch.dtype == np.int64 and batch.shape == (count, code.n)
    for b in range(count):
        assert batch[b].tolist() == encode_oracle(code, msgs[b])


def test_encode_batch_refuses_out_of_range_symbols(example2_code):
    code = example2_code
    order = code.field.order
    for bad in ([-1, 0, 0, 0], [0, 0, order, 0], [0, 0, 0, 2**70]):
        with pytest.raises(ValueError, match="symbol out of range"):
            code.encode_batch([bad])
        with pytest.raises(ValueError, match="symbol out of range"):
            code.encode(bad)
    with pytest.raises(ValueError, match="wrong length"):
        code.encode_batch([[1, 2, 3]])
    assert code.encode_batch([[order - 1] * 4]).tolist() == [encode_oracle(code, [order - 1] * 4)]


def test_generator_gfq_rows_are_basis_codewords(example2_code, tiny_code):
    # every row of the global and each local generator, on both codes
    for parent in (example2_code, tiny_code):
        mu = parent.params.mu
        for code in [parent] + [parent.local_code(j) for j in range(1, mu + 1)]:
            f = code.field
            gen = code.generator_gfq()
            assert gen.shape == (f.m * code.k, f.m * code.n)
            assert gfq_rank(gen, f.q) == f.m * code.k
            for slot in range(code.k):
                for t in range(f.m):
                    msg = [0] * code.k
                    msg[slot] = f.q**t
                    flat = f.to_matrix(encode_oracle(code, msg)).flatten(order="F")
                    assert np.array_equal(gen[slot * f.m + t], flat)


@pytest.mark.parametrize("params", [None, (3, 4, 4, 2, 1, 2)], ids=["tiny", "q3"])
def test_parity_checks_accept_exactly_the_codewords(params, tiny_code):
    # every codeword has syndrome 0; every single-cell change of a sampled
    # codeword has a nonzero syndrome, and the generator-rank oracle agrees
    code = tiny_code if params is None else build_code(*params)
    f = code.field
    checks = code.parity_checks()
    assert code.parity_checks() is checks
    assert checks.shape == (f.m * code.n, f.m * (code.n - code.k))
    words = f.matrix_batch(code.codeword_codes())
    flat = words.transpose(0, 2, 1).reshape(len(words), -1)
    assert not gfq_matmul(flat, checks, f.q).any()
    plus_one = base_tables(f.q).add[1]
    rng = np.random.default_rng(f.q)
    for idx in rng.choice(len(words), size=6, replace=False):
        assert is_codeword(code, words[idx])
        for cell in range(flat.shape[1]):
            changed = flat[idx].copy()
            changed[cell] = plus_one[changed[cell]]
            assert gfq_matmul(changed[None], checks, f.q).any()
            assert not is_codeword(code, changed.reshape(code.n, f.m).T)


def test_message_validation(example2_code):
    with pytest.raises(ValueError, match="length"):
        example2_code.encode([1, 2, 3])
    with pytest.raises(ValueError, match="out of range"):
        example2_code.encode([1, 2, 3, 2**9])


# ---------------------------------------------------------------------------
# distance oracles


def test_tiny_code_distances(tiny_code):
    code = tiny_code
    assert rank_distance_bound(6, 2, 1, 2) == 4
    assert min_rank_distance(code) == 4
    assert sampled_min_rank(code, samples=500, seed=5) >= 4
    local = code.local_code(1)
    assert min_rank_distance(local) == 2  # (2, 1) local piece: optimal


def test_min_distance_budget_guard(example2_code):
    with pytest.raises(OracleBudgetError, match="oracle scale"):
        min_rank_distance(example2_code, budget=10**6)
    with pytest.raises(OracleBudgetError):
        example2_code.codeword_matrices(budget=10)


def test_budget_guard_survives_the_cache():
    # a fresh code, so the cache is filled here under the default budget
    code = build_code(2, 6, 6, 2, 1, 2)
    assert len(code.codeword_matrices()) == 4096
    with pytest.raises(OracleBudgetError, match="oracle scale"):
        code.codeword_matrices(budget=10)
    with pytest.raises(OracleBudgetError, match="oracle scale"):
        min_rank_distance(code, budget=10)
    assert min_rank_distance(code) == 4


def test_enumerate_codewords(tiny_code):
    msgs = tiny_code.message_codes()
    mats = tiny_code.codeword_matrices()
    assert len(msgs) == len(mats) == tiny_code.codeword_count == 64**2
    assert (msgs[0] == 0).all() and (mats[0] == 0).all()
    assert len(np.unique(msgs, axis=0)) == len(msgs)
    # injective: distinct messages give distinct codewords
    assert len(np.unique(mats.reshape(len(mats), -1), axis=0)) == len(mats)


def test_messages_at_indexes_message_codes(tiny_code):
    # the digit expansion behind message_codes, at chosen indices only
    local = tiny_code.local_code(2)
    idx = np.array([0, 63, 1, 17, 17, 40])
    assert (local.messages_at(idx) == local.message_codes()[idx]).all()
    assert (tiny_code.messages_at(idx) == tiny_code.message_codes()[idx]).all()
    words = local.encode_batch(local.messages_at(idx))
    assert (words == local.codeword_codes()[idx]).all()


def test_codeword_matrices_agree_with_encode(tiny_code):
    mats = tiny_code.codeword_matrices()
    msgs = tiny_code.message_codes()
    idx = 137
    assert np.array_equal(
        mats[idx], tiny_code.encode_matrix([int(v) for v in msgs[idx]])
    )
    ranks = gfq_rank_batch(mats[1:], 2)
    assert int(ranks.min()) == 4


def test_sampled_min_rank_is_upper_bound(tiny_code):
    assert sampled_min_rank(tiny_code, samples=2000, seed=1) == 4


# ---------------------------------------------------------------------------
# the rack family: every rack's local code in one code


@pytest.fixture(scope="module")
def family_codes(example2_code, tiny_code):
    return {"example2": example2_code, "tiny": tiny_code, "ternary": build_code(3, 4, 4, 2, 1, 2)}


@pytest.mark.parametrize("name", ["example2", "tiny", "ternary"])
def test_rack_family_columns_are_local_encodes(family_codes, name):
    code = family_codes[name]
    p = code.params
    family = code.rack_family()
    assert family is code.rack_family()
    assert (family.n, family.k) == (p.n, p.r)
    assert family.codeword_count == code.local_code(1).codeword_count
    rng = SplitMix64(2600)
    msgs = rng.randbelow_array(np.full(200 * p.r, code.field.order)).astype(np.int64)
    msgs = msgs.reshape(200, p.r)
    words = family.encode_batch(msgs)
    for j in range(1, p.mu + 1):
        cols = code.rack_columns(j)
        assert (words[:, cols.start : cols.stop] == code.local_code(j).encode_batch(msgs)).all()


@pytest.mark.parametrize("name", ["example2", "tiny", "ternary"])
def test_sampled_min_ranks_match_each_code(family_codes, name):
    # one draw serves the code and every rack; r = 1 with 64 or 81 local
    # messages puts all-zero rows among 300 draws, so the racks refill
    code = family_codes[name]
    p = code.params
    refilled = 0
    for seed in range(6):
        d, local_ds = sampled_min_ranks(code, 300, seed)
        assert d == sampled_min_rank(code, 300, seed)
        assert local_ds == [
            sampled_min_rank(code.local_code(j), 300, seed) for j in range(1, p.mu + 1)
        ]
        first = SplitMix64(seed).randbelow_array(np.full(300 * p.r, code.field.order))
        refilled += not first.reshape(300, p.r).any(axis=1).all()
    assert (refilled > 0) == (p.r == 1)


def test_sampled_min_ranks_code_refill(tiny_code):
    # 20000 rows of k = 2 symbols from GF(2^6) hold all-zero rows too
    rows = SplitMix64(0).randbelow_array(np.full(40000, 64)).reshape(20000, 2)
    assert not rows.any(axis=1).all()
    d, local_ds = sampled_min_ranks(tiny_code, 20000, 0)
    assert d == sampled_min_rank(tiny_code, 20000, 0) == 4
    assert local_ds == [2, 2, 2]
    with pytest.raises(ValueError, match="--samples must be at least 1"):
        sampled_min_ranks(tiny_code, 0, 0)


@pytest.mark.parametrize("name", ["example2", "tiny", "ternary"])
def test_rack_min_ranks_exact_match_local_codes(family_codes, name):
    code = family_codes[name]
    got = rack_min_ranks(code, code.rack_family().codeword_codes()[1:])
    want = [min_rank_distance(code.local_code(j)) for j in range(1, code.params.mu + 1)]
    assert got == want == [code.params.delta] * code.params.mu
    # every local code has as many codewords as the family: same refusal
    with pytest.raises(OracleBudgetError):
        code.rack_family().codeword_codes(code.rack_family().codeword_count - 1)


def test_build_code_rejects_bad_shapes():
    with pytest.raises(ValueError, match="r must divide k"):
        build_code(2, 9, 9, 3, 2, 2)
    with pytest.raises(ValueError, match="divide"):
        build_code(2, 9, 9, 4, 3, 3)


@pytest.mark.parametrize("m", [4, 12])
def test_build_code_refuses_a_pinned_field_before_the_tower(m, monkeypatch):
    # GF(2^4) fails the tower's divisibility check, while GF(2^12) would
    # build a whole tower before the code refused it: both are refused
    # on the parameters alone
    import rankloc.codes

    def no_tower(*args, **kwargs):
        raise AssertionError("tower built for a mismatched field")

    monkeypatch.setattr(rankloc.codes, "tower_build", no_tower)
    field = Field(FieldSpec.default(2, m))
    refusal = rf"field GF\(2\^{m}\) does not match parameters GF\(2\^6\)"
    with pytest.raises(ValueError, match=refusal):
        build_code(2, 6, 6, 2, 1, 2, field=field)


def test_build_code_default_tower_tiny(tiny_code):
    code = tiny_code
    assert isinstance(code, LocalRankCode)
    p = code.params
    assert (p.q, p.m, p.r, p.delta) == (2, 6, 1, 2)
    assert p.s == 2 and p.mu == 3
    assert code.exponents == (0, 2)
    assert gfq_rank(code.field.to_matrix(code.eval_points), 2) == 6

"""Crisscross weight, correction guarantees, and erasure/error decoding."""

import numpy as np
import pytest

from rankloc import _kernels, gf
from rankloc.codes import _digit_chunks, build_code, rank_distance_bound
from rankloc.crisscross import (
    _PLAN_CACHE_SIZE,
    AmbiguousErasureError,
    Cover,
    _build_plan,
    correctable,
    crisscross_weight,
    decode_erasures,
    decode_erasures_batch,
    locally_correctable,
    validate_patterns,
)
from rankloc.gf import base_tables, gfq_rank, gfq_row_reduce, gfq_solve
from rankloc.rng import SplitMix64

from helpers import (
    cover_oracle,
    decode_min_distance,
    is_codeword,
    map_form_solve,
    pattern_solve,
    rand_matrix,
    rand_nonzero_message,
    staged_decode_oracle,
)


def fig_rows_pattern():
    # two full rows in a 4x4 grid: covered by those rows, weight 2
    pat = np.zeros((4, 4), dtype=np.uint8)
    pat[0, :] = 1
    pat[2, :] = 1
    return pat


def reference_erasures():
    # mixed scenario on the 9x9 reference code: a six-cell row run, a
    # 2x4 block, one full column, and a three-cell run in the last rack
    mask = np.zeros((9, 9), dtype=np.uint8)
    mask[0, 0:6] = 1
    mask[1, 0:4] = 1
    mask[2, 0:4] = 1
    mask[:, 3] = 1
    mask[8, 6:9] = 1
    return mask


# ---------------------------------------------------------------------------
# weight


def test_weight_golden_rows():
    pat = fig_rows_pattern()
    w, cov = crisscross_weight(pat)
    assert w == 2
    assert sorted(cov.rows) == [0, 2] and not cov.cols
    assert cov.size == 2 and cov.covers(pat)
    # the same cells have rank 1: weight and rank are different measures
    assert gfq_rank(pat, 2) == 1


def test_weight_small_cases():
    assert crisscross_weight(np.zeros((3, 5), dtype=np.uint8))[0] == 0
    assert crisscross_weight(np.eye(4, dtype=np.uint8))[0] == 4
    one = np.zeros((2, 2), dtype=np.uint8)
    one[1, 0] = 1
    assert crisscross_weight(one)[0] == 1
    full = np.ones((3, 4), dtype=np.uint8)
    assert crisscross_weight(full)[0] == 3  # min(m, n)


def test_weight_matches_subset_oracle():
    rng = SplitMix64(401)
    for _ in range(150):
        pat = rand_matrix(rng, 2 + rng.randbelow(3), 2 + rng.randbelow(3), 2)
        w, cov = crisscross_weight(pat)
        assert w == cover_oracle(pat)
        assert cov.size == w and cov.covers(pat)


def test_weight_matches_bitboard_exhaustive():
    # larger shapes (up to 6x6) against the same brute-force cover oracle
    rng = SplitMix64(409)
    for _ in range(400):
        pat = rand_matrix(rng, 2 + rng.randbelow(5), 2 + rng.randbelow(5), 2)
        w, cov = crisscross_weight(pat)
        assert w == cover_oracle(pat)
        assert cov.size == w and cov.covers(pat)


def test_weight_dominates_rank_and_is_monotone():
    rng = SplitMix64(419)
    for _ in range(300):
        pat = rand_matrix(rng, 5, 5, 2)
        w = crisscross_weight(pat)[0]
        assert w >= gfq_rank(pat, 2)  # cover weight bounds rank
        grown = pat.copy()
        grown[rng.randbelow(5), rng.randbelow(5)] = 1
        assert crisscross_weight(grown)[0] >= w


def test_cover_rejects_non_cover():
    pat = fig_rows_pattern()
    assert not Cover(frozenset({0}), frozenset()).covers(pat)
    assert Cover(frozenset({0, 2}), frozenset()).covers(pat)


# ---------------------------------------------------------------------------
# pattern validation


@pytest.mark.parametrize("q, bad", [(2, 256), (2, 0.5), (3, -255), (2, -1)])
def test_patterns_refuse_entries_a_cast_would_change(tiny_code, q, bad):
    # uint8 would read 256 and -255 (over GF(3)) as 0 and 1, and 0.5 as 0,
    # so the checks read the caller's array before any cast
    mask = np.zeros((6, 6), dtype=np.uint8)
    with pytest.raises(ValueError, match="error values"):
        validate_patterns(mask, np.full((6, 6), bad), q)
    if q == 2:
        with pytest.raises(ValueError, match="error values"):
            correctable(tiny_code, mask, np.full((6, 6), bad))
        with pytest.raises(ValueError, match="error values"):
            locally_correctable(tiny_code, mask, np.full((6, 6), bad), 1)
    assert validate_patterns(mask, np.ones((6, 6), dtype=bool), q)[1].dtype == np.uint8


def test_validate_patterns(example2_code):
    mask = np.zeros((9, 9), dtype=np.uint8)
    mask[1, 1] = 1
    err = np.zeros((9, 9), dtype=np.uint8)
    err[1, 1] = 1
    with pytest.raises(ValueError, match="vanish on erased"):
        validate_patterns(mask, err, 2)
    err[1, 1] = 0
    err[2, 2] = 3
    with pytest.raises(ValueError, match="out of range"):
        validate_patterns(mask, err, 2)
    with pytest.raises(ValueError, match="shape"):
        validate_patterns(mask, np.zeros((3, 3), dtype=np.uint8), 2)


# ---------------------------------------------------------------------------
# guarantees


def test_locally_correctable_cases(example2_code):
    code = example2_code
    zero = np.zeros((9, 9), dtype=np.uint8)
    one_cell = zero.copy()
    one_cell[4, 0] = 1
    assert locally_correctable(code, one_cell, None, 1)
    assert locally_correctable(code, zero, None, 2)
    # rank-1 error inside rack 1: 2*1 + 0 = 2 > delta - 1 = 1
    err = zero.copy()
    err[0, 0:3] = 1
    assert not locally_correctable(code, zero, err, 1)
    mask = reference_erasures()
    assert [locally_correctable(code, mask, None, j) for j in (1, 2, 3)] == [
        False,
        False,
        True,
    ]


def test_correctable_reference_scenario(example2_code):
    mask = reference_erasures()
    assert crisscross_weight(mask)[0] == 5  # above d - 1 = 4 before discounting
    rep = correctable(example2_code, mask)
    assert rep.verdict == "GLOBAL"
    assert rep.local_racks == (3,)
    assert rep.residual_racks == (1, 2)
    assert rep.discounted_weight == 4
    assert rep.distance == 5


def test_correctable_verdicts(example2_code, tiny_code):
    zero = np.zeros((9, 9), dtype=np.uint8)
    assert correctable(example2_code, zero).verdict == "LOCAL"
    # one erased cell per rack: every rack fixes its own
    sprinkle = zero.copy()
    sprinkle[0, 0] = sprinkle[3, 4] = sprinkle[7, 7] = 1
    rep = correctable(example2_code, sprinkle)
    assert rep.verdict == "LOCAL" and rep.local_racks == (1, 2, 3)
    # whole matrix erased: nothing to salvage
    assert correctable(example2_code, np.ones((9, 9), np.uint8)).verdict == "NO_GUARANTEE"
    row = np.zeros((6, 6), dtype=np.uint8)
    row[0, :] = 1
    rep = correctable(tiny_code, row)
    assert rep.verdict == "LOCAL" and rep.local_racks == (1, 2, 3)


def test_correctable_verdicts_are_sound(tiny_code):
    # the report is a sufficient condition: every pattern it certifies
    # (LOCAL or GLOBAL) must decode exactly, for every codeword.  (It is
    # not monotone under pattern growth: a new cell inside a quiet rack
    # can be absorbed by the existing cover while adding a discountable
    # local share, so verdicts may climb.  Soundness is the contract.)
    code = tiny_code
    mats = code.field.matrix_batch(code.codeword_codes())
    rng = SplitMix64(431)
    certified = 0
    for _ in range(120):
        mask = rand_matrix(rng, 6, 6, 2) & rand_matrix(rng, 6, 6, 2)
        if correctable(code, mask).verdict == "NO_GUARANTEE":
            continue
        certified += 1
        received = np.where(mask, 0, mats).astype(np.uint8)
        batch = decode_erasures_batch(code, received, mask)
        assert (batch.matrices == mats).all()
    assert certified > 30  # the sweep actually exercised the certificate


# ---------------------------------------------------------------------------
# erasure decoding


def test_decode_local_only_restores_rack(example2_code):
    code = example2_code
    f = code.field
    msg = [f.omega_pow(e) for e in (1, 2, 4, 8)]
    golden = code.encode_matrix(msg)
    mask = np.zeros((9, 9), dtype=np.uint8)
    mask[8, 6:9] = 1
    res = decode_erasures(code, np.where(mask, 0, golden).astype(np.uint8), mask)
    assert (res.matrix == golden).all()
    assert res.local_racks == (3,) and not res.used_global
    assert res.verdict_lines() == ["LOCAL j=3"]
    restored = f.from_matrix(res.matrix[:, 6:9])
    assert [f.log_omega(c) for c in restored] == [236, 132, 399]


def test_decode_reference_scenario(example2_code):
    code = example2_code
    f = code.field
    golden = code.encode_matrix([f.omega_pow(e) for e in (1, 2, 4, 8)])
    mask = reference_erasures()
    res = decode_erasures(code, np.where(mask, 0, golden).astype(np.uint8), mask)
    assert (res.matrix == golden).all()
    assert res.local_racks == (3,) and res.used_global
    assert res.verdict_lines() == ["LOCAL j=3", "GLOBAL"]


def test_decode_no_erasures_is_identity(tiny_code):
    rng = SplitMix64(433)
    msg = rand_nonzero_message(rng, tiny_code.field, 2)
    golden = tiny_code.encode_matrix(msg)
    res = decode_erasures(tiny_code, golden, np.zeros((6, 6), dtype=np.uint8))
    assert (res.matrix == golden).all()
    assert res.local_racks == () and not res.used_global
    assert res.verdict_lines() == ["INTACT"]  # no solve ran, only the parity check


def test_decode_refuses_reference_non_codewords(example2_code):
    # a flipped surviving cell used to pass through: with no erasures as a
    # GLOBAL verdict, and with rack 3 partly erased as LOCAL j=3
    code = example2_code
    f = code.field
    golden = code.encode_matrix([f.omega_pow(e) for e in (1, 2, 4, 8)])
    flip_00 = golden.copy()
    flip_00[0, 0] ^= 1
    col_6 = np.zeros((9, 9), dtype=np.uint8)
    col_6[:, 6] = 1
    flip_47 = golden.copy()
    flip_47[4, 7] ^= 1
    for received, mask in ((flip_00, np.zeros_like(col_6)), (flip_47, col_6)):
        with pytest.raises(ValueError, match="decoded word is not a codeword"):
            decode_erasures(code, received, mask)
        # one bad word refuses the whole batch
        with pytest.raises(ValueError, match="decoded word is not a codeword"):
            decode_erasures_batch(code, np.stack([golden, received]), mask)
        assert (decode_erasures(code, golden, mask).matrix == golden).all()


@pytest.mark.parametrize("which", ["tiny", "reference"])
def test_flip_in_rack_with_r_survivors_is_caught_by_parity_check(
    which, tiny_code, example2_code
):
    # a rack that keeps exactly r columns has no check rows in its local
    # solve: a flipped surviving cell there is repaired wrongly without
    # complaint, and only the final parity check can refuse the word
    code = tiny_code if which == "tiny" else example2_code
    p = code.params
    gen_rng = np.random.default_rng(p.n)
    msgs = gen_rng.integers(0, code.field.order, size=(2048, p.k))
    words = code.field.matrix_batch(code.encode_batch(msgs))
    for j in range(1, p.mu + 1):
        cols = list(code.rack_columns(j))
        mask = np.zeros((p.m, p.n), dtype=np.uint8)
        mask[:, cols[: p.s - p.r]] = 1  # delta - 1 columns lost, r left
        row, col = (j * 5) % p.m, cols[-1]
        received = words.copy()
        received[7, row, col] = (received[7, row, col] + 1) % p.q
        # the local solve alone: full rank, no consistency rows, wrong cells
        rack_mask = mask[:, cols].flatten(order="F").astype(bool)
        known, wanted = np.nonzero(~rack_mask)[0], np.nonzero(rack_mask)[0]
        flat = received[7][:, cols].flatten(order="F")
        gen = code.local_code(j).generator_gfq()
        assert len(known) == gen.shape[0] == p.r * p.m
        u = gfq_solve(gen[:, known], flat[None, known], p.q)
        repaired = gf.gfq_matmul(u, gen[:, wanted], p.q)[0]
        assert (repaired != words[7][:, cols].flatten(order="F")[wanted]).any()
        with pytest.raises(ValueError, match="decoded word is not a codeword"):
            decode_erasures(code, received[7], mask)
        # a 2048-word rebuild, which gathers its checks from tables, refuses too
        with pytest.raises(ValueError, match="decoded word is not a codeword"):
            decode_erasures_batch(code, np.where(mask, 0, received), mask)
        res = decode_erasures_batch(code, np.where(mask, 0, words), mask)
        assert (res.matrices == words).all() and res.local_racks == (j,)


@pytest.mark.parametrize("which", ["tiny", "reference"])
def test_decode_never_returns_a_non_codeword(which, tiny_code, example2_code):
    # random codeword, random erasures, then 1-2 flips in surviving cells:
    # the decoder never rewrites a surviving cell, so it cannot return the
    # sent word; whatever it does return must be a codeword
    code = tiny_code if which == "tiny" else example2_code
    p = code.params
    rng = np.random.default_rng(len(which))
    refused = 0
    for trial in range(120):
        msg = rng.integers(0, code.field.order, size=(1, p.k))
        sent = code.field.matrix_batch(code.encode_batch(msg))[0]
        mask = (rng.random((p.m, p.n)) < (0.05, 0.15, 0.3)[trial % 3]).astype(np.uint8)
        received = sent.copy()
        rows, cols = np.nonzero(mask == 0)
        for cell in rng.choice(len(rows), size=1 + trial % 2, replace=False):
            received[rows[cell], cols[cell]] ^= 1
        try:
            res = decode_erasures(code, received, mask)
        except (ValueError, AmbiguousErasureError):
            refused += 1
            continue
        assert is_codeword(code, res.matrix) and not (res.matrix == sent).all()
    assert refused > 0


def test_decode_batch_matches_single(tiny_code):
    mats = tiny_code.field.matrix_batch(tiny_code.codeword_codes())
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[0, :] = 1
    mask[3, 2] = 1
    received = np.where(mask, 0, mats).astype(np.uint8)
    batch = decode_erasures_batch(tiny_code, received, mask)
    assert (batch.matrices == mats).all()
    single = decode_erasures(tiny_code, received[17], mask)
    assert (single.matrix == mats[17]).all()
    assert single.local_racks == batch.local_racks


def test_decode_random_patterns_under_bound(tiny_code):
    # any erasure pattern of weight <= d - 1 must decode exactly
    code = tiny_code
    d = rank_distance_bound(6, 2, 1, 2)
    rng = SplitMix64(439)
    done = 0
    while done < 60:
        mask = rand_matrix(rng, 6, 6, 2) & rand_matrix(rng, 6, 6, 2)
        if crisscross_weight(mask)[0] > d - 1:
            continue
        msg = rand_nonzero_message(rng, code.field, 2)
        golden = code.encode_matrix(msg)
        res = decode_erasures(code, np.where(mask, 0, golden).astype(np.uint8), mask)
        assert (res.matrix == golden).all()
        done += 1


def test_decode_rejects_inconsistent_input(tiny_code):
    code = tiny_code
    golden = code.encode_matrix([code.field.omega_pow(5), code.field.omega_pow(40)])
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[0, :] = 1
    bad = np.where(mask, 0, golden).astype(np.uint8)
    bad[3, 0] ^= 1
    with pytest.raises(ValueError, match="not a codeword restriction"):
        decode_erasures(code, bad, mask)


def test_decode_ambiguous_pattern_raises(tiny_code):
    code = tiny_code
    golden = code.encode_matrix([code.field.omega_pow(5), code.field.omega_pow(40)])
    heavy = np.zeros((6, 6), dtype=np.uint8)
    heavy[0:5, :] = 1  # weight 5 > d - 1
    with pytest.raises(AmbiguousErasureError, match="exceeds guarantee"):
        decode_erasures(code, np.where(heavy, 0, golden).astype(np.uint8), heavy)


def test_decode_certified_pattern_with_undercounted_residual(tiny_code):
    # regression: the discounting step certifies this pattern at weight 3
    # although the post-local residual spans a 4x4 block of weight 4; the
    # decode must still be exact (no codeword is supported inside the block)
    code = tiny_code
    corner = np.zeros((6, 6), dtype=np.uint8)
    corner[0, :] = 1
    corner[1:4, 2:6] = 1
    rep = correctable(code, corner)
    assert rep.verdict == "GLOBAL" and rep.discounted_weight == 3
    mats = code.field.matrix_batch(code.codeword_codes())
    sub = mats[1:].copy()
    sub[:, 0:4, 2:6] = 0
    assert sub.reshape(sub.shape[0], -1).any(axis=1).all()  # none vanish outside
    batch = decode_erasures_batch(code, np.where(corner, 0, mats).astype(np.uint8), corner)
    assert (batch.matrices == mats).all()


# ---------------------------------------------------------------------------
# erasure plans against the staged oracle


def _oracle_masks(code, gen):
    """(class, mask) pairs: local, global, mixed, beyond d - 1, partly
    erased columns, intact and a dense random mask, drawn from ``gen``.
    Each piece lies on one row or one column, so it weighs at most 1;
    beyond masks erase d lines, or all but k - 1 columns."""
    p = code.params
    d = rank_distance_bound(p.n, p.k, p.r, p.delta)
    racks = [list(code.rack_columns(j)) for j in range(1, p.mu + 1)]

    def piece(mask, cols):
        if gen.random() < 0.5:
            mask[gen.integers(p.m), gen.choice(cols, gen.integers(1, len(cols) + 1), replace=False)] = 1
        else:
            mask[gen.choice(p.m, gen.integers(1, p.m + 1), replace=False), gen.choice(cols)] = 1

    out = [("intact", np.zeros((p.m, p.n), dtype=np.uint8))]
    for _ in range(2):
        mask = np.zeros((p.m, p.n), dtype=np.uint8)
        for cols in [racks[j] for j in gen.permutation(p.mu)[: gen.integers(1, p.mu + 1)]]:
            piece(mask, cols)
        out.append(("local", mask))
        mask = np.zeros((p.m, p.n), dtype=np.uint8)
        for _ in range(max(1, d - 1)):
            piece(mask, list(range(p.n)))
        out.append(("global", mask))
        mask = np.zeros((p.m, p.n), dtype=np.uint8)
        own = gen.integers(p.mu)
        piece(mask, racks[own])
        others = [c for j, cols in enumerate(racks) if j != own for c in cols]
        for _ in range(max(0, d - 2) if others else 0):
            piece(mask, others)
        out.append(("mixed", mask))
        mask = np.zeros((p.m, p.n), dtype=np.uint8)
        for line in gen.choice(p.m + p.n, d, replace=False):
            if line < p.m:
                mask[line] = 1
            else:
                mask[:, line - p.m] = 1
        out.append(("beyond", mask))
        mask = np.zeros((p.m, p.n), dtype=np.uint8)
        for col in gen.choice(p.n, gen.integers(1, d + 1), replace=False):
            mask[gen.choice(p.m, gen.integers(1, p.m), replace=False), col] = 1
        out.append(("columns", mask))
    # k - 1 surviving columns cannot pin k message symbols down
    mask = np.ones((p.m, p.n), dtype=np.uint8)
    mask[:, gen.choice(p.n, p.k - 1, replace=False)] = 0
    out.append(("beyond", mask))
    out.append(("dense", (gen.random((p.m, p.n)) < 0.3).astype(np.uint8)))
    return out


def _light_beside_global_masks(code, gen):
    """Masks where one light rack sits beside a rack that needs the global
    solve, each with two surviving cells to flip: one in the light rack,
    which the local stage repairs, and one in a rack without erasures (on
    a two-rack code, the globally repaired rack).  The light rack loses
    cells in delta - 1 of its columns, so it may keep just r; the other
    loses delta cells on distinct rows and columns, a weight of delta."""
    p = code.params
    racks = [list(code.rack_columns(j)) for j in range(1, p.mu + 1)]
    out = []
    for _ in range(2):
        light, heavy, *untouched = (racks[j] for j in gen.permutation(p.mu))
        mask = np.zeros((p.m, p.n), dtype=np.uint8)
        for col in gen.choice(light, p.delta - 1, replace=False):
            mask[gen.choice(p.m, gen.integers(1, p.m + 1), replace=False), col] = 1
        mask[gen.choice(p.m, p.delta, replace=False), gen.choice(heavy, p.delta, replace=False)] = 1
        cells = []
        for cols in (light, (untouched or [heavy])[0]):
            rows, at = np.nonzero(mask[:, cols] == 0)
            pick = gen.integers(rows.size)
            cells.append((rows[pick], cols[at[pick]]))
        out.append((mask, cells))
    return out


def _same_outcome(code, received, mask):
    """The decoder and the staged oracle agree: words and verdicts, or the
    exception's type and message.  Returns the oracle's exception, if any."""
    try:
        want = staged_decode_oracle(code, received, mask)
    except (ValueError, AmbiguousErasureError) as exc:
        with pytest.raises(type(exc)) as got:
            decode_erasures_batch(code, received, mask)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return exc
    res = decode_erasures_batch(code, received, mask)
    assert res.matrices.dtype == np.uint8 and res.matrices.shape == want.matrices.shape
    assert np.array_equal(res.matrices, want.matrices)
    assert res.verdict_lines() == want.verdict_lines()
    assert (res.local_racks, res.used_global) == (want.local_racks, want.used_global)
    return None


@pytest.mark.parametrize("which", ["tiny", "reference", "q3", "m16"])
def test_erasure_plans_match_staged_oracle(which, tiny_code, example2_code):
    # every mask class through both paths of the plan: up to q^count words
    # multiply the digits, more gather from tables; erased cells hold
    # garbage, and one word may carry a flipped surviving cell
    code = {
        "tiny": tiny_code,
        "reference": example2_code,
        "q3": build_code(3, 4, 4, 2, 1, 2),
        "m16": build_code(2, 16, 8, 4, 2, 3),  # two digit chunks of 8
    }[which]
    p, f = code.params, code.field
    entries = p.q ** _digit_chunks(p.q, p.m)[0][1]
    gen = np.random.default_rng(sum(map(ord, which)))
    words = f.matrix_batch(code.encode_batch(gen.integers(0, f.order, size=(2048, p.k))))
    garbage = gen.integers(0, p.q, size=words.shape, dtype=np.uint8)
    outcomes = set()
    for cls, mask in _oracle_masks(code, gen):
        for count in (0, 1, entries, entries + 1, 2048):
            received = np.where(mask, garbage[:count], words[:count]).astype(np.uint8)
            exc = _same_outcome(code, received, mask)
            outcomes.add((cls, type(exc).__name__))
            if exc is None and count:
                assert np.array_equal(decode_erasures_batch(code, received, mask).matrices, words[:count])
            rows, cols = np.nonzero(mask == 0)
            if count and rows.size:
                cell = gen.integers(rows.size)
                flipped = received.copy()
                flipped[count // 2, rows[cell], cols[cell]] += 1 + gen.integers(p.q - 1)
                flipped %= p.q
                outcomes.add((cls + "+flip", type(_same_outcome(code, flipped, mask)).__name__))
    # a light rack beside a global solve: the global checks, read on the
    # surviving cells, still refuse a flip in the locally repaired rack
    mixed = set()
    for mask, cells in _light_beside_global_masks(code, gen):
        for count in (1, entries + 1):
            received = np.where(mask, garbage[:count], words[:count]).astype(np.uint8)
            exc = _same_outcome(code, received, mask)
            mixed.add(("mixed", type(exc).__name__))
            if exc is None:
                res = decode_erasures_batch(code, received, mask)
                assert res.local_racks and res.used_global
            for row, col in cells:
                flipped = received.copy()
                flipped[count // 2, row, col] += 1 + gen.integers(p.q - 1)
                flipped %= p.q
                mixed.add(("mixed+flip", type(_same_outcome(code, flipped, mask)).__name__))
    outcomes |= mixed
    # the classes reached the outcomes they exist for
    assert ("mixed+flip", "ValueError") in mixed
    assert ("local", "NoneType") in outcomes and ("global", "NoneType") in outcomes
    assert ("mixed", "NoneType") in outcomes and ("local+flip", "ValueError") in outcomes
    assert ("beyond", "AmbiguousErasureError") in outcomes


def test_erasure_plan_is_cached_per_mask_and_code(monkeypatch):
    # the second decode of a mask reuses the plan: no row reduction runs
    code = build_code(2, 6, 6, 2, 1, 2)
    other = build_code(2, 6, 6, 2, 2, 2)  # same shape, racks of 3 columns
    reductions = []
    reduce = _kernels.row_reduce

    def spy(*args):
        reductions.append(args[0].shape)
        return reduce(*args)

    monkeypatch.setattr(_kernels, "row_reduce", spy)
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[2, :] = 1
    mask[:, 4] = 1
    words = code.field.matrix_batch(code.encode_batch(np.arange(10).reshape(5, 2) * 3))
    first = decode_erasures_batch(code, np.where(mask, 0, words), mask)
    assert reductions and np.array_equal(first.matrices, words)
    del reductions[:]
    again = decode_erasures_batch(code, np.where(mask, 1, words), mask)
    assert not reductions
    assert np.array_equal(again.matrices, first.matrices)
    assert again.verdict_lines() == first.verdict_lines()
    # another code with the same mask shape builds its own plan
    theirs = other.field.matrix_batch(other.encode_batch(np.arange(10).reshape(5, 2) * 5))
    res = decode_erasures_batch(other, np.where(mask, 0, theirs), mask)
    assert reductions and np.array_equal(res.matrices, theirs)
    assert len(code._erasure_plans) == len(other._erasure_plans) == 1


def test_erasure_plan_cache_stays_at_its_bound():
    code = build_code(2, 6, 6, 2, 1, 2)
    word = code.encode_matrix([5, 9])
    gen = np.random.default_rng(7)
    keys = []
    while len(keys) < _PLAN_CACHE_SIZE + 3:
        mask = (gen.random((6, 6)) < 0.2).astype(np.uint8)
        if mask.tobytes() in keys:
            continue
        keys.append(mask.tobytes())
        try:
            decode_erasures(code, np.where(mask, 0, word), mask)
        except (ValueError, AmbiguousErasureError):
            pass  # refused patterns keep their plan too
        assert len(code._erasure_plans) == min(len(keys), _PLAN_CACHE_SIZE)
    # least recently used first out
    assert list(code._erasure_plans) == keys[3:]


@pytest.mark.parametrize("which", ["tiny", "reference", "q3"])
def test_plan_reductions_pivot_on_the_erased_digits(which, tiny_code, example2_code, monkeypatch):
    # each plan stage eliminates one pivot column per unknown digit: a
    # light rack's erased digits, then every erased digit for the global
    # stage; a solve against the generators would pivot on message digits
    code = {
        "tiny": tiny_code,
        "reference": example2_code,
        "q3": build_code(3, 4, 4, 2, 1, 2),
    }[which]
    p = code.params
    # parity checks are built by a reduction of their own, once per code
    for j in range(1, p.mu + 1):
        code.local_code(j).parity_checks()
    code.parity_checks()
    pivots = []
    reduce = gf.gfq_row_reduce

    def spy(mat, q=2, n_pivot_cols=None):
        pivots.append(n_pivot_cols)
        return reduce(mat, q, n_pivot_cols)

    monkeypatch.setattr(gf, "gfq_row_reduce", spy)
    gen = np.random.default_rng(sum(map(ord, which)) + 30)
    stages = set()
    for cls, mask in _oracle_masks(code, gen):
        del pivots[:]
        plan = _build_plan(code, mask)
        racks = mask.reshape(p.m, p.mu, p.s)
        want = [int(racks[:, j - 1].sum()) for j in plan.local_racks]
        if plan.used_global:
            want.append(int(mask.sum()))
        assert pivots == want, (cls, plan.local_racks, plan.used_global)
        stages.add((bool(plan.local_racks), plan.used_global))
    assert stages == {(False, False), (True, False), (False, True), (True, True)}


@pytest.mark.parametrize("shift", [256, -256])
def test_decode_refuses_out_of_range_cells_before_casting(tiny_code, shift):
    # v + 256 and v - 256 wrap to v in uint8: the range check reads the
    # caller's array, so neither decodes as the sent word
    golden = tiny_code.encode_matrix([tiny_code.field.omega_pow(5), 3])
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[:, 0] = 1
    received = np.where(mask, 0, golden).astype(np.int64)
    received[2, 3] += shift
    with pytest.raises(ValueError, match="received entries out of range"):
        decode_erasures(tiny_code, received, mask)
    with pytest.raises(ValueError, match="received entries out of range"):
        decode_erasures_batch(tiny_code, received[None], mask)


@pytest.mark.parametrize("bad", [0.5, np.nan, 1j])
def test_decode_refuses_non_integer_cells_before_casting(tiny_code, bad):
    # a cast would truncate 0.5 to 0, turn NaN into some integer and drop
    # an imaginary part, so the word would come back as a verified codeword
    golden = tiny_code.encode_matrix([tiny_code.field.omega_pow(5), 3])
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[:, 0] = 1
    received = np.where(mask, 0, golden).astype(np.result_type(bad))
    rows, cols = np.nonzero((mask == 0) & (golden == 0))
    received[rows[0], cols[0]] += bad
    with pytest.raises(ValueError, match="received entries must be integers"):
        decode_erasures(tiny_code, received, mask)
    with pytest.raises(ValueError, match="received entries must be integers"):
        decode_erasures_batch(tiny_code, received[None], mask)


def test_decode_reads_integer_and_bool_cells_alike(tiny_code):
    golden = tiny_code.encode_matrix([tiny_code.field.omega_pow(5), 3])
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[:, 0] = 1
    mask[3, :] = 1
    received = np.where(mask, 1, golden)
    for dtype in (np.uint8, np.int8, np.int64, np.uint64, bool):
        res = decode_erasures(tiny_code, received.astype(dtype), mask)
        assert res.matrix.dtype == np.uint8 and np.array_equal(res.matrix, golden)
        assert res.verdict_lines() == ["LOCAL j=2,3", "GLOBAL"]


# ---------------------------------------------------------------------------
# nearest-codeword decoding


def _table_product(a, b, q):
    # schoolbook product through the GF(q) tables, one inner index at a time
    t = base_tables(q)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[1]):
        out = t.add[out, t.mul[a[:, i, None], b[i]]]
    return out


def _solve_known_per_word(a, vals, q):
    # the reference for the solve: reduce [a^T | vals^T], one augmented
    # column per word, and check and read off in the same order
    dim = a.shape[0]
    aug = np.hstack([a.T, vals.T]).astype(np.uint8)
    reduced, pivots = gfq_row_reduce(aug, q, n_pivot_cols=dim)
    rank = len(pivots)
    if reduced[rank:, dim:].any():
        raise ValueError("not a codeword restriction")
    if rank < dim:
        raise AmbiguousErasureError("erasure pattern exceeds guarantee")
    return reduced[:dim, dim:].T


def _solve_outcome(solve, *args):
    try:
        return solve(*args).tolist()
    except (ValueError, AmbiguousErasureError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("q", [2, 3, 4])
def test_solve_known_matches_per_word_elimination(q):
    # random generators (some with repeated columns, so patterns can be
    # ambiguous), random known sets including the empty one, and batches
    # of 0, 1 and 2048 words that are consistent, carry one wrong symbol,
    # or are random: values and the first refusal must agree
    gen_rng = np.random.default_rng(700 + q)
    seen = set()
    for case in range(60):
        dim = 1 + case % 5
        cells = dim + int(gen_rng.integers(0, 8))
        gen = gen_rng.integers(0, q, size=(dim, cells), dtype=np.uint8)
        if case % 3 == 0 and cells > 1:
            gen[:, 1] = gen[:, 0]
        if case % 10 == 0:
            known = np.arange(0)
        elif case % 10 == 1 and dim > 1:
            known = np.array([0, 1])  # rank at most 1 < dim
        else:
            known = np.sort(gen_rng.permutation(cells)[: int(gen_rng.integers(1, cells + 1))])
        batch = (0, 1, 2048)[case % 3]
        msgs = gen_rng.integers(0, q, size=(batch, dim), dtype=np.uint8)
        vals = _table_product(msgs, gen[:, known], q)
        mode = case % 4
        if mode == 1 and vals.size:
            vals[-1, -1] = (vals[-1, -1] + 1) % q
        elif mode == 2:
            vals = gen_rng.integers(0, q, size=vals.shape, dtype=np.uint8)
        old = _solve_outcome(_solve_known_per_word, gen[:, known], vals, q)
        new = _solve_outcome(gfq_solve, gen[:, known], vals, q)
        assert new == old, (case, dim, known.tolist(), batch, mode)
        assert _solve_outcome(map_form_solve, gen[:, known], vals, q) == old
        seen.add((batch, old if isinstance(old, str) else "solved"))
    # every batch size meets every outcome, except that no word of an
    # empty batch can be inconsistent
    outcomes = ("solved", "ValueError", "AmbiguousErasureError")
    assert seen == {(b, o) for b in (0, 1, 2048) for o in outcomes} - {(0, "ValueError")}


def test_solve_known_checks_consistency_before_ambiguity():
    # a repeated known column with two different values is inconsistent,
    # and one known column cannot pin a 3-dimensional message: the
    # inconsistency is reported, as the per-word elimination did
    gen = np.array([[1, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 0]], dtype=np.uint8)
    vals = np.array([[0, 0], [1, 0]], dtype=np.uint8)
    for solve in (_solve_known_per_word, gfq_solve):
        with pytest.raises(ValueError, match="not a codeword restriction"):
            solve(gen[:, :2], vals, 2)
        with pytest.raises(AmbiguousErasureError):
            solve(gen[:, :2], vals[:1], 2)


@pytest.mark.parametrize("q", [2, 3])
def test_gfq_solve_matches_map_form(q):
    # the one reduction of [G_K^T | vals^T] against the explicit solve map
    # [checks | T[:dim]^T] of G_K^T, class by class: columns 0
    # and 1 of the generator are equal, so values that differ there are
    # inconsistent, and K = {0, 1, 2} cannot pin a 4-digit message
    gen_rng = np.random.default_rng(50 + q)
    gen = gen_rng.integers(0, q, size=(4, 12), dtype=np.uint8)
    while gfq_rank(gen[:, 1:6], q) < 4:
        gen = gen_rng.integers(0, q, size=(4, 12), dtype=np.uint8)
    gen[:, 1] = gen[:, 0]
    msgs = gen_rng.integers(0, q, size=(7, 4), dtype=np.uint8)
    words = gf.gfq_matmul(msgs, gen, q)
    bad = words.copy()
    bad[3, 0] = (bad[3, 0] + 1) % q
    full, short = np.arange(8), np.arange(3)
    cases = [
        ("consistent", full, words[:1], "solved"),
        ("inconsistent", full, bad[3:4], "ValueError"),
        ("ambiguous", short, words[:1], "AmbiguousErasureError"),
        ("inconsistent and ambiguous", short, bad[3:4], "ValueError"),
        ("batch, one bad row", full, bad, "ValueError"),
        ("batch", full, words, "solved"),
    ]
    for name, known, vals, expected in cases:
        got = _solve_outcome(gfq_solve, gen[:, known], vals[:, known], q)
        assert got == _solve_outcome(map_form_solve, gen[:, known], vals[:, known], q), name
        assert (got if isinstance(got, str) else "solved") == expected, name
        if expected == "solved":
            assert got == msgs[: len(vals)].tolist(), name


def _tail_cases(code, gen):
    """(class, generator, H^T, erased digits) for the two tails to agree on:
    nothing erased, one light rack in its local code's frame, a global
    pattern of d - 1 line pieces, rank-deficient patterns in both frames,
    and everything erased.  Digits are column-major, as ``generator_gfq``
    lays a word out."""
    p = code.params
    d = rank_distance_bound(p.n, p.k, p.r, p.delta)
    full = (code.generator_gfq(), code.parity_checks())
    j = 1 + int(gen.integers(p.mu))
    rack = (code.local_code(j).generator_gfq(), code.local_code(j).parity_checks())

    def erased(mask):
        return mask.flatten(order="F").astype(bool)

    # a column keeps a cell, so the rack has checks
    light = np.zeros((p.m, p.s), dtype=np.uint8)
    for col in gen.choice(p.s, p.delta - 1, replace=False):
        light[gen.choice(p.m, gen.integers(1, p.m), replace=False), col] = 1
    spread = np.zeros((p.m, p.n), dtype=np.uint8)
    for _ in range(max(1, d - 1)):
        if gen.random() < 0.5:
            spread[gen.integers(p.m), gen.choice(p.n, gen.integers(1, p.n + 1), replace=False)] = 1
        else:
            spread[gen.choice(p.m, gen.integers(1, p.m + 1), replace=False), gen.integers(p.n)] = 1
    # k - 1 surviving columns of the code, r - 1 of the rack
    short = np.ones((p.m, p.n), dtype=np.uint8)
    short[:, gen.choice(p.n, p.k - 1, replace=False)] = 0
    rack_short = np.ones((p.m, p.s), dtype=np.uint8)
    rack_short[:, gen.choice(p.s, p.r - 1, replace=False)] = 0
    return [
        ("intact", *full, np.zeros(p.n * p.m, dtype=bool)),
        ("light", *rack, erased(light)),
        ("global", *full, erased(spread)),
        ("deficient", *full, erased(short)),
        ("deficient", *rack, erased(rack_short)),
        ("everything", *full, np.ones(p.n * p.m, dtype=bool)),
    ]


@pytest.mark.parametrize("which", ["tiny", "reference", "q3", "m16"])
def test_parity_tail_matches_generator_tail(which, tiny_code, example2_code):
    # the solve from the parity side, one pivot per erased digit, against
    # the one from the generator side, one pivot per message digit: the
    # same check count, the same consistent words among codeword
    # restrictions and words with one known digit shifted, the same
    # repair at full rank and the same ambiguity below it
    code = {
        "tiny": tiny_code,
        "reference": example2_code,
        "q3": build_code(3, 4, 4, 2, 1, 2),
        "m16": build_code(2, 16, 8, 4, 2, 3),
    }[which]
    q = code.params.q
    add = base_tables(q).add
    gen = np.random.default_rng(sum(map(ord, which)) + 20)

    def consistent(vals, checks):
        return ~gf.gfq_matmul(vals, checks, q).any(axis=1)

    seen = set()
    for cls, generator, parity, erased in _tail_cases(code, gen):
        known, lost = np.nonzero(~erased)[0], np.nonzero(erased)[0]
        g_checks, g_repair = pattern_solve(generator, known, lost, q)
        p_checks, p_repair = gf._parity_solve(parity, erased, q)
        assert p_checks.shape == g_checks.shape == (known.size, g_checks.shape[1])
        assert (p_repair is None) == (g_repair is None)
        words = gf.gfq_matmul(
            gen.integers(0, q, size=(64, generator.shape[0]), dtype=np.uint8), generator, q
        )
        assert consistent(words[:, known], g_checks).all()
        assert consistent(words[:, known], p_checks).all()
        shifted = words.copy()
        if known.size:
            rows, at = np.arange(len(words)), gen.choice(known, len(words))
            shifted[rows, at] = add[shifted[rows, at], gen.integers(1, q, size=len(words))]
        ok = consistent(shifted[:, known], g_checks)
        assert np.array_equal(consistent(shifted[:, known], p_checks), ok)
        if not ok.all():
            seen.add((cls, "refused"))
        if p_repair is None:
            seen.add((cls, "ambiguous"))
        else:
            assert np.array_equal(gf.gfq_matmul(words[:, known], p_repair, q), words[:, lost])
            assert np.array_equal(
                gf.gfq_matmul(words[:, known], g_repair, q), words[:, lost]
            )
            seen.add((cls, "repaired"))
    # every class reached what it exists for: repairs and refused shifts
    # where the rank is full, ambiguity where it is not
    assert seen >= {(cls, out) for cls in ("intact", "light", "global") for out in ("repaired", "refused")}
    assert ("deficient", "ambiguous") in seen and ("everything", "ambiguous") in seen
    assert not {("intact", "ambiguous"), ("light", "ambiguous"), ("global", "ambiguous")} & seen


def test_min_distance_decode_exact_and_rank1(tiny_code):
    code = tiny_code
    golden = code.encode_matrix([code.field.omega_pow(5), code.field.omega_pow(40)])
    hit = decode_min_distance(code, golden)
    assert hit.distance == 0 and not hit.is_tie
    assert (hit.codeword == golden).all()
    err = np.zeros((6, 6), dtype=np.uint8)
    err[2, :] = 1
    near = decode_min_distance(code, golden ^ err)
    assert near.distance == 1 and not near.is_tie
    assert (near.codeword == golden).all()


def test_min_distance_decode_reports_ties(tiny_code):
    # split a minimum-rank codeword c into rank-2 halves E1 + E2; the word
    # E1 then sits at distance 2 from both 0 and c
    code = tiny_code
    mats = code.field.matrix_batch(code.codeword_codes())
    from rankloc.gf import gfq_rank_batch

    ranks = gfq_rank_batch(mats, 2)
    idx = int(np.nonzero(ranks == 4)[0][0])
    c = mats[idx]
    reduced, pivots = gfq_row_reduce(c.copy(), 2)
    rows = reduced[:4]
    coeff = c[:, [int(p) for p in pivots]]  # RREF pivot columns read off weights
    e1 = (coeff[:, :2] @ rows[:2]) % 2
    e2 = (coeff[:, 2:] @ rows[2:]) % 2
    assert ((e1 ^ e2) == c).all()
    assert gfq_rank(e1, 2) == 2 and gfq_rank(e2, 2) == 2
    near = decode_min_distance(code, e1.astype(np.uint8))
    assert near.distance == 2 and near.is_tie
    assert 0 in near.indices and idx in near.indices
    with pytest.raises(ValueError, match="tie"):
        near.codeword

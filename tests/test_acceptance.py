"""Acceptance gate: nine end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; ``-s`` additionally shows the measured numbers.  Each test
asserts its own wall-clock budget, so a pass implies the runtime held.
"""

import itertools
import time

import numpy as np

from rankloc.codes import (
    CodeParams,
    LocalRankCode,
    build_code,
    interpolate,
    min_rank_distance,
    rank_distance_bound,
    sampled_min_rank,
)
from rankloc.crisscross import (
    crisscross_weight,
    decode_erasures,
    decode_erasures_batch,
)
from rankloc.gf import Field, FieldSpec, gfq_rank, gfq_rank_batch, tower_build
from rankloc.netsim import ChannelConfig, run_trials
from rankloc.rng import SplitMix64
from rankloc.subspace import (
    Subspace,
    min_subspace_distance,
    subspace_distance,
    verify_subspace_locality,
)

from helpers import (
    all_4x4_cover_oracle,
    decode_min_distance,
    pattern_to_matrix,
    rand_matrix,
    repair_poly,
    subfield_elements,
)


def build_reference_code() -> LocalRankCode:
    f = Field(FieldSpec.default(2, 9))  # x^9 + x^4 + 1
    tower = tower_build(
        2, 9, 9, 3,
        field=f,
        g=f.omega_pow(73),
        basis_a=[f.one, f.omega_pow(73), f.omega_pow(146)],
        basis_b=[f.one, f.omega_pow(309), f.omega_pow(107)],
    )
    return LocalRankCode(CodeParams(2, 9, 9, 4, 2, 2), tower)


def test_criterion_1_reference_golden_vectors():
    start = time.perf_counter()
    code = build_reference_code()
    f = code.field
    msg = [f.omega_pow(e) for e in (1, 2, 4, 8)]

    codeword = code.encode(msg)
    assert [f.log_omega(c) for c in codeword] == [
        440, 307, 81, 465, 11, 174, 236, 132, 399,
    ]

    partition = [[f.log_omega(p) for p in code.rack_points(j)] for j in (1, 2, 3)]
    assert partition == [[0, 73, 146], [309, 382, 455], [107, 180, 253]]

    # repair coefficients: coeff_i = m_i0 + m_i1 * factor, with the frozen
    # factor logs 119/238 (rack 2) and 238/476 (rack 3); rack 1 folds flat
    factors = {}
    for j in (1, 2, 3):
        rp = repair_poly(code, msg, j)
        factors[j] = [
            f.log_omega(f.div(f.sub(rp.coeffs[i], msg[i]), msg[2 + i]))
            for i in (0, 1)
        ]
    assert factors[1] == [0, 0]
    assert factors[2] == [119, 238]
    assert factors[3] == [238, 476]

    # subcode witness: interpolation on the nine points returns the encoding
    # polynomial itself, supported only on the designed exponents; the code
    # therefore sits inside the q-degree <= 4 evaluation code of distance 5
    poly = interpolate(f, list(code.eval_points), codeword)
    assert poly == code.encoding_poly(msg)
    assert set(poly.coeffs) == {0, 1, 3, 4}

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1: golden vectors exact ({elapsed:.3f}s)")


def test_criterion_2_tiny_distance_optimal():
    start = time.perf_counter()
    code = build_code(2, 6, 6, 2, 1, 2)
    bound = rank_distance_bound(6, 2, 1, 2)
    d = min_rank_distance(code)
    assert d == 4 and bound == 4

    local_ds = [min_rank_distance(code.local_code(j)) for j in (1, 2, 3)]
    assert local_ds == [2, 2, 2]

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\ncriterion 2: d=4=bound, local d=2 everywhere ({elapsed:.2f}s)")


def test_criterion_3_weight_equals_min_cover_all_4x4():
    start = time.perf_counter()
    oracle = all_4x4_cover_oracle()
    assert oracle.shape == (1 << 16,)
    for bits in range(1 << 16):
        mat = pattern_to_matrix(bits)
        assert crisscross_weight(mat)[0] == oracle[bits]

    # two full rows: rank 1 but weight 2
    rows = np.zeros((4, 4), dtype=np.uint8)
    rows[0, :] = 1
    rows[2, :] = 1
    assert gfq_rank(rows.copy(), 2) == 1
    assert crisscross_weight(rows)[0] == 2

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\ncriterion 3: 65536/65536 patterns agree ({elapsed:.2f}s)")


def test_criterion_4_erasure_soundness_tiny():
    start = time.perf_counter()
    code = build_code(2, 6, 6, 2, 1, 2)
    mats = code.field.matrix_batch(code.codeword_codes())
    checked = 0

    # every union of whole rows and whole columns with weight <= 3
    for total in range(0, 4):
        for a in range(total + 1):
            b = total - a
            for rows in itertools.combinations(range(6), a):
                for cols in itertools.combinations(range(6), b):
                    mask = np.zeros((6, 6), dtype=np.uint8)
                    mask[list(rows), :] = 1
                    mask[:, list(cols)] = 1
                    assert crisscross_weight(mask)[0] <= 3
                    received = np.where(mask, 0, mats).astype(np.uint8)
                    res = decode_erasures_batch(code, received, mask)
                    assert (res.matrices == mats).all()
                    checked += 1
    assert checked == 299

    # every within-rack pattern of weight <= 1 resolves in the local pass
    local_checked = 0
    for j in (1, 2, 3):
        cols = code.rack_columns(j)
        cells_by_row = [[(i, c) for c in cols] for i in range(6)]
        cells_by_col = [[(i, c) for i in range(6)] for c in cols]
        patterns = set()
        for line in cells_by_row + cells_by_col:
            for size in range(1, len(line) + 1):
                for combo in itertools.combinations(line, size):
                    patterns.add(combo)
        for combo in patterns:
            mask = np.zeros((6, 6), dtype=np.uint8)
            for i, c in combo:
                mask[i, c] = 1
            assert crisscross_weight(mask)[0] <= 1
            received = np.where(mask, 0, mats).astype(np.uint8)
            res = decode_erasures_batch(code, received, mask)
            assert (res.matrices == mats).all()
            assert res.local_racks == (j,) and not res.used_global
            local_checked += 1
    assert local_checked == 3 * (6 * 3 + 2 * 63 - 6 * 2)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"\ncriterion 4: {checked} row/col and {local_checked} local patterns,"
        f" 4096 codewords each, zero failures ({elapsed:.1f}s)"
    )


def test_criterion_5_rank1_error_oracle():
    start = time.perf_counter()
    code = build_code(2, 6, 6, 2, 1, 2)
    f = code.field
    rng = SplitMix64(808)
    for _ in range(1000):
        msg = [rng.randbelow(f.order) for _ in range(2)]
        cw = code.encode_matrix(msg)
        while True:
            u = np.array([rng.randbelow(2) for _ in range(6)], dtype=np.uint8)
            v = np.array([rng.randbelow(2) for _ in range(6)], dtype=np.uint8)
            if u.any() and v.any():
                break
        err = np.outer(u, v) & 1
        near = decode_min_distance(code, (cw ^ err).astype(np.uint8))
        assert not near.is_tie
        assert near.distance == 1
        assert (near.codeword == cw).all()

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\ncriterion 5: 1000/1000 rank-1 errors corrected ({elapsed:.1f}s)")


def test_criterion_6_lifted_distances_and_locality():
    start = time.perf_counter()
    code = build_code(2, 6, 6, 2, 1, 2)
    d_s = min_subspace_distance(code, cross_check_pairs=10_000, seed=6)
    assert d_s == 8
    assert d_s == 2 * min_rank_distance(code)

    report = verify_subspace_locality(code)
    assert report.exact and report.passed
    assert report.subspace_delta == 4
    for block in report.blocks:
        assert block.size_ok and block.dim_ok
        assert block.projected_distance == 4

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\ncriterion 6: lifted d_S=8=2d, blocks at 4=2delta ({elapsed:.1f}s)")


def test_criterion_7_download_guarantee():
    start = time.perf_counter()
    code = build_code(2, 6, 6, 2, 1, 2)

    clean = ChannelConfig(
        packets_per_rack=2, n_collect=3, rho_max=0, t_max=0, links=4, seed=41
    )
    rep0 = run_trials(code, 1, clean, 1000)
    assert rep0.success_rate == 1.0
    assert rep0.histogram == (((0, 0), 1000),)

    lossy = ChannelConfig(
        packets_per_rack=2, n_collect=3, rho_max=1, t_max=0, links=4, seed=2024
    )
    rep1 = run_trials(code, 2, lossy, 1000)
    assert rep1.success_rate == 1.0
    realized = dict(rep1.histogram)
    assert realized.get((1, 0), 0) > 0  # the rho=1 leg actually happened
    assert all(2 * t + rho <= 1 for (rho, t) in realized)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\ncriterion 7: 2000 in-guarantee trials, rate 1.0,"
        f" rho=1 seen {realized.get((1, 0), 0)}x ({elapsed:.1f}s)"
    )


def test_criterion_8_mixed_pattern_scenario():
    start = time.perf_counter()
    code = build_reference_code()
    f = code.field
    golden = code.encode_matrix([f.omega_pow(e) for e in (1, 2, 4, 8)])

    mask = np.zeros((9, 9), dtype=np.uint8)
    mask[0, 0:6] = 1
    mask[1, 0:4] = 1
    mask[2, 0:4] = 1
    mask[:, 3] = 1
    mask[8, 6:9] = 1  # the single-row local erasure in the last rack

    res = decode_erasures(code, np.where(mask, 0, golden).astype(np.uint8), mask)
    assert (res.matrix == golden).all()
    assert res.local_racks == (3,)
    assert res.used_global
    assert res.verdict_lines() == ["LOCAL j=3", "GLOBAL"]

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\ncriterion 8: mixed scenario exact, LOCAL j=3 + GLOBAL ({elapsed:.2f}s)")


def test_criterion_9_property_suites():
    start = time.perf_counter()
    f9 = Field(FieldSpec.default(2, 9))
    rng = SplitMix64(909)

    # field axioms
    for _ in range(1000):
        a, b, c = (rng.randbelow(f9.order) for _ in range(3))
        assert f9.mul(a, f9.add(b, c)) == f9.add(f9.mul(a, b), f9.mul(a, c))
        assert f9.add(a, b) == f9.add(b, a)
        assert f9.mul(f9.mul(a, b), c) == f9.mul(a, f9.mul(b, c))
        if a:
            assert f9.mul(a, f9.inv(a)) == 1

    # Frobenius is additive and fixes GF(q)
    for _ in range(1000):
        a, b = rng.randbelow(f9.order), rng.randbelow(f9.order)
        e = 1 + rng.randbelow(8)
        assert f9.frobenius(f9.add(a, b), e) == f9.add(
            f9.frobenius(a, e), f9.frobenius(b, e)
        )

    # interpolation round trip on independent points
    done = 0
    while done < 1000:
        n_pts = 1 + rng.randbelow(3)
        pts = [rng.randbelow(f9.order) for _ in range(n_pts)]
        if gfq_rank(f9.to_matrix(pts), 2) != n_pts:
            continue
        vals = [rng.randbelow(f9.order) for _ in range(n_pts)]
        assert interpolate(f9, pts, vals).evaluate_many(pts) == vals
        done += 1

    # product-basis rank: independent factors iff the s*mu products span,
    # exercised both ways on GF(2^6) with s=2, mu=3
    f6 = Field(FieldSpec.default(2, 6))
    sub4 = subfield_elements(f6, 2)
    assert len(sub4) == 4
    pairs = [
        (a0, a1)
        for a0 in sub4
        for a1 in sub4
        if gfq_rank(f6.to_matrix([a0, a1]), 2) == 2
    ]
    hits = 0
    for _ in range(1000):
        basis_a = pairs[rng.randbelow(len(pairs))]
        basis_b = [rng.randbelow(f6.order) for _ in range(3)]
        dependent = any(
            f6.add(f6.add(f6.mul(c0, basis_b[0]), f6.mul(c1, basis_b[1])),
                   f6.mul(c2, basis_b[2])) == 0
            for c0 in sub4 for c1 in sub4 for c2 in sub4
            if (c0, c1, c2) != (0, 0, 0)
        )
        prods = [f6.mul(a, b) for b in basis_b for a in basis_a]
        rank = gfq_rank(f6.to_matrix(prods), 2)
        if dependent:
            assert rank < 6
        else:
            assert rank == 6
            hits += 1
    assert hits > 500  # both branches of the equivalence were exercised

    # the collapse map x^(q^s - 1) is constant on every coset a*gamma
    code9 = build_reference_code()
    g = code9.tower.g
    e_col = 2**3 - 1
    for _ in range(1000):
        gamma = 1 + rng.randbelow(f9.order - 1)
        a = f9.pow(g, rng.randbelow(7))
        assert f9.pow(f9.mul(a, gamma), e_col) == f9.pow(gamma, e_col)
    for j in (1, 2, 3):
        assert len({f9.pow(p, e_col) for p in code9.rack_points(j)}) == 1

    # nonzero codewords keep rank >= n - (largest q-exponent); at reference
    # scale this is the sampled stand-in for the 2^36 distance scan
    tiny = build_code(2, 6, 6, 2, 1, 2)
    ranks = gfq_rank_batch(tiny.field.matrix_batch(tiny.codeword_codes())[1:], 2)
    assert int(ranks.min()) >= 6 - max(tiny.exponents)
    observed = sampled_min_rank(code9, samples=10_000, seed=909)
    floor = 9 - max(code9.exponents)
    assert observed >= floor
    print(f"\nreference-scale sweep: observed min rank {observed}"
          f" over 10^4 nonzero samples (floor {floor}, not exhaustive)")

    # subspace metric axioms
    spaces = []
    srng = SplitMix64(911)
    while len(spaces) < 20:
        spaces.append(Subspace.from_matrix(rand_matrix(srng, 5, 1 + srng.randbelow(3), 2)))
    for _ in range(1000):
        u = spaces[srng.randbelow(20)]
        v = spaces[srng.randbelow(20)]
        w = spaces[srng.randbelow(20)]
        duv = subspace_distance(u, v)
        assert duv == subspace_distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= subspace_distance(u, w) + subspace_distance(w, v)

    # seeded simulation is a pure function of its config
    cfg = ChannelConfig(packets_per_rack=2, n_collect=3, rho_max=1, t_max=0,
                        links=4, seed=13)
    first = run_trials(tiny, 3, cfg, 1000)
    second = run_trials(tiny, 3, cfg, 1000)
    assert first == second and first.to_kv() == second.to_kv()
    assert first.trials == 1000

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 9: eight property suites clean ({elapsed:.1f}s)")

"""Download simulator: stream determinism, channel behavior, trial stats."""

import random

import numpy as np
import pytest

from rankloc import netsim
from rankloc.codes import build_code
from rankloc.crisscross import AmbiguousErasureError
from rankloc.gf import gfq_rank
from rankloc.netsim import (
    ChannelConfig,
    channel_apply,
    decode_subspace_min,
    local_candidates,
    run_trials,
    solve_download,
    transmit_matrix,
)
from rankloc.rng import SplitMix64, mix64
from rankloc.subspace import Subspace, lift_codes, pack_rows, subspace_distance

from helpers import lifted_subspace, map_form_solve


# ---------------------------------------------------------------------------
# random stream


def test_splitmix_reference_vectors():
    # first three outputs for seed 0, as published for the splitmix64
    # finalizer; the last two pin this implementation's continuation
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


def test_splitmix_streams_are_reproducible():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]
    assert a.randbelow(10**12) == b.randbelow(10**12)


def test_splitmix_randbelow_bounds_and_coverage():
    rng = SplitMix64(7)
    seen = {rng.randbelow(6) for _ in range(400)}
    assert seen == set(range(6))
    with pytest.raises(ValueError):
        rng.randbelow(0)


@pytest.mark.parametrize(
    "bounds",
    [[512] * 300, [262144, 262143] * 150, [2**63 + 1] * 200, [3] * 300, [1] * 50, []],
    ids=["512", "262144,262143", "2^63+1", "3", "1", "empty"],
)
def test_randbelow_array_is_the_scalar_stream(bounds):
    # same values, same number of draws; 2^63 + 1 rejects about half of them
    draws_per_step = pow(0x9E3779B97F4A7C15, -1, 1 << 64)
    for seed in (0, 7, (1 << 64) - 1):
        scalar, block = SplitMix64(seed), SplitMix64(seed)
        expected = [scalar.randbelow(b) for b in bounds]
        assert block.randbelow_array(bounds).tolist() == expected
        assert block._state == scalar._state
        draws = (block._state - block.seed) * draws_per_step % (1 << 64)
        if bounds[:1] == [2**63 + 1]:
            assert draws > 1.5 * len(bounds)
        else:
            assert draws == len(bounds)
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow_array([3, 0])


def test_splitmix_sample_indices():
    rng = SplitMix64(9)
    for _ in range(100):
        got = rng.sample_indices(10, 4)
        assert got == sorted(set(got)) and len(got) == 4
        assert all(0 <= v < 10 for v in got)
    assert rng.sample_indices(3, 3) == [0, 1, 2]
    with pytest.raises(ValueError):
        rng.sample_indices(3, 4)


def test_spawn_is_pure_and_keyed():
    root = SplitMix64(42)
    child5 = root.spawn(5)
    assert child5.seed == mix64(42 + 6 * 0x9E3779B97F4A7C15)
    # spawning never disturbs the parent stream, in any order
    again = SplitMix64(42)
    for key in (9, 5, 0):
        again.spawn(key)
    assert root.spawn(5).next_u64() == again.spawn(5).next_u64()
    keys = {root.spawn(k).next_u64() for k in range(64)}
    assert len(keys) == 64


# ---------------------------------------------------------------------------
# channel


def test_config_validation():
    good = dict(packets_per_rack=2, n_collect=3, rho_max=0, t_max=0, links=4)
    ChannelConfig(**good)
    with pytest.raises(ValueError, match="positive"):
        ChannelConfig(**{**good, "n_collect": 0})
    with pytest.raises(ValueError, match="non-negative"):
        ChannelConfig(**{**good, "rho_max": -1})
    with pytest.raises(ValueError, match="links"):
        ChannelConfig(**{**good, "t_max": 5})
    with pytest.raises(ValueError, match="seed"):
        ChannelConfig(**good, seed=1 << 64)


def test_transmit_matrix_structure(tiny_code):
    code = tiny_code
    f = code.field
    cw = code.encode_matrix([f.omega_pow(13), f.omega_pow(44)])
    x = transmit_matrix(code, cw, 2)
    assert x.shape == (2, 12)
    # header: unit vectors marking global columns 2 and 3
    assert x[0, :6].tolist() == [0, 0, 1, 0, 0, 0]
    assert x[1, :6].tolist() == [0, 0, 0, 1, 0, 0]
    assert (x[0, 6:] == cw[:, 2]).all() and (x[1, 6:] == cw[:, 3]).all()
    # the packets are the rack's lifted candidate, by definition and packed
    cands = local_candidates(code, 2)
    (sent,) = [i for i in range(len(cands)) if cands[i].tolist() == f.from_matrix(cw[:, 2:4])]
    assert Subspace.from_matrix(x.T) == lifted_subspace(f, cands[sent], 6, range(2, 4))
    assert (pack_rows(x, 2) == lift_codes(cands[sent], 6, range(2, 4), 2)).all()
    with pytest.raises(ValueError, match="shape"):
        transmit_matrix(code, cw[:3], 2)


def test_noiseless_channel_preserves_row_space(tiny_code):
    code = tiny_code
    cw = code.encode_matrix([code.field.omega_pow(13), code.field.omega_pow(44)])
    x = transmit_matrix(code, cw, 2)
    cfg = ChannelConfig(packets_per_rack=2, n_collect=3, rho_max=0, t_max=0, links=4, seed=9)
    out = channel_apply(x, cfg, SplitMix64(5))
    assert out.rho == 0 and out.t == 0
    sent = Subspace.from_matrix(x.T)
    got = Subspace.from_matrix(out.received.T)
    assert subspace_distance(sent, got) == 0


def test_channel_respects_budgets(tiny_code):
    code = tiny_code
    cw = code.encode_matrix([1, code.field.omega])
    x = transmit_matrix(code, cw, 1)
    cfg = ChannelConfig(packets_per_rack=2, n_collect=3, rho_max=1, t_max=1, links=4, seed=11)
    rng = SplitMix64(31)
    saw_rho = saw_t = 0
    for _ in range(200):
        out = channel_apply(x, cfg, rng)
        assert out.received.shape == (3, 12)
        assert 0 <= out.rho <= 1 and 0 <= out.t <= 1
        saw_rho += out.rho
        saw_t += out.t
    assert saw_rho and saw_t  # both noise kinds actually realized


def test_channel_unsatisfiable_rank_floor(tiny_code):
    code = tiny_code
    cw = code.encode_matrix([1, code.field.omega])
    x = transmit_matrix(code, cw, 1)
    # one collected packet cannot carry rank 2
    cfg = ChannelConfig(packets_per_rack=2, n_collect=1, rho_max=0, t_max=0, links=4, seed=9)
    with pytest.raises(RuntimeError, match="rank constraint"):
        channel_apply(x, cfg, SplitMix64(1))


# ---------------------------------------------------------------------------
# decoding and trials


def test_decode_noiseless_roundtrip(tiny_code):
    code = tiny_code
    cw = code.encode_matrix([code.field.omega_pow(13), code.field.omega_pow(44)])
    x = transmit_matrix(code, cw, 2)
    cfg = ChannelConfig(packets_per_rack=2, n_collect=3, rho_max=0, t_max=0, links=4, seed=9)
    out = channel_apply(x, cfg, SplitMix64(5))
    cands = local_candidates(code, 2)
    assert cands.shape == (64, 2)
    res = decode_subspace_min(cands, 6, range(2, 4), out.received)
    assert not res.is_tie and res.distance == 0
    assert (res.local_matrix == cw[:, 2:4]).all()


def test_decode_distances_match_pairwise_oracle(tiny_code):
    # one shared received basis against every candidate, including
    # rank-deficient received spaces (rho = 1) and injected errors
    code = tiny_code
    f = code.field
    cw = code.encode_matrix([f.omega_pow(13), f.omega_pow(44)])
    x = transmit_matrix(code, cw, 2)
    cands = local_candidates(code, 2)
    spaces = [lifted_subspace(f, c, 6, range(2, 4)) for c in cands]
    cfg = ChannelConfig(packets_per_rack=2, n_collect=3, rho_max=1, t_max=1, links=4, seed=3)
    rng = SplitMix64(17)
    dims = set()
    for _ in range(12):
        out = channel_apply(x, cfg, rng)
        y = Subspace.from_matrix(out.received.T)
        dims.add(y.dim)
        expected = [subspace_distance(u, y) for u in spaces]
        res = decode_subspace_min(cands, 6, range(2, 4), out.received)
        assert res.distance == min(expected) == expected[res.index]
        assert res.index == expected.index(min(expected))
        assert res.is_tie == (expected.count(min(expected)) > 1)
        assert (res.local_matrix == f.matrix_batch(cands[res.index])).all()
    assert 1 in dims and len(dims) > 1  # a rank-deficient space was checked


def test_run_trials_within_guarantee(tiny_code):
    cfg = ChannelConfig(packets_per_rack=2, n_collect=3, rho_max=1, t_max=0, links=4, seed=2024)
    rep = run_trials(tiny_code, 1, cfg, 300)
    assert rep.trials == 300 and rep.successes == 300
    assert rep.success_rate == 1.0
    for (rho, t), count in rep.histogram:
        assert t == 0 and rho in (0, 1) and count > 0


def test_run_trials_deterministic(tiny_code):
    cfg = ChannelConfig(packets_per_rack=2, n_collect=3, rho_max=1, t_max=0, links=4, seed=2024)
    rep1 = run_trials(tiny_code, 1, cfg, 120)
    rep2 = run_trials(tiny_code, 1, cfg, 120)
    assert rep1 == rep2  # wall time excluded from comparison
    assert rep1.to_kv() == rep2.to_kv()
    assert rep1.to_kv()[:2] == ["rack=1", "seed=2024"]
    # a different seed shifts the noise draw
    other = run_trials(
        tiny_code, 1, ChannelConfig(2, 3, 1, 0, 4, seed=2025), 120
    )
    assert other.histogram != rep1.histogram


def test_run_trials_frozen_stats(tiny_code):
    # regression pin for the seeded sweeps used in the acceptance run
    cfg = ChannelConfig(packets_per_rack=2, n_collect=3, rho_max=1, t_max=0, links=4, seed=2024)
    rep = run_trials(tiny_code, 1, cfg, 1000)
    assert rep.success_rate == 1.0
    assert rep.histogram == (((0, 0), 661), ((1, 0), 339))
    beyond = ChannelConfig(packets_per_rack=2, n_collect=3, rho_max=0, t_max=1, links=4, seed=77)
    rep2 = run_trials(tiny_code, 1, beyond, 1000)
    assert rep2.histogram == (((0, 0), 528), ((0, 1), 472))
    assert rep2.successes == 995  # 2t + rho = 2 > delta - 1: failures appear


def test_reference_enumeration_frozen_stats(example2_code):
    # regression pin for the enumeration fallback at reference scale: each
    # trial with an injected error packet ranks all 262144 rack candidates
    cfg = ChannelConfig(packets_per_rack=3, n_collect=3, rho_max=0, t_max=1, links=6, seed=1)
    rep = run_trials(example2_code, 2, cfg, 20)
    assert rep.histogram == (((0, 0), 7), ((0, 1), 13))
    assert rep.successes == 19 and rep.enumerated == 11


def test_run_trials_validation(tiny_code, example2_code):
    with pytest.raises(ValueError, match="packet count"):
        run_trials(tiny_code, 1, ChannelConfig(3, 3, 0, 0, 4), 10)
    with pytest.raises(ValueError, match="at least r"):
        run_trials(example2_code, 1, ChannelConfig(3, 1, 0, 0, 4), 10)


def _agreement_configs():
    """(code, rack, config) cases for the solve-versus-enumeration oracle."""
    tiny = build_code(2, 6, 6, 2, 1, 2)
    ternary = build_code(3, 4, 4, 2, 1, 2)
    cases = [
        # the criterion-7 sweeps and the beyond-guarantee pin
        (tiny, 1, ChannelConfig(2, 3, 0, 0, 4, seed=41)),
        (tiny, 2, ChannelConfig(2, 3, 1, 0, 4, seed=2024)),
        (tiny, 1, ChannelConfig(2, 3, 0, 1, 4, seed=77)),
    ]
    pick = random.Random(6)
    for i in range(24):
        code = tiny if i % 4 else ternary
        s = code.params.s
        rho, t = pick.randrange(3), pick.randrange(3)
        collect = pick.randrange(max(1, s - rho), s + 3)
        links = pick.randrange(max(1, t), 6)
        rack = pick.randrange(1, code.params.mu + 1)
        cases.append((code, rack, ChannelConfig(s, collect, rho, t, links, seed=pick.getrandbits(64))))
    return cases


def test_solve_agrees_with_enumeration():
    # the three outcomes of the solve against ranking every candidate:
    # unique <=> a unique minimum at s - rank Y with the same matrix,
    # several <=> a tie at s - rank Y, none <=> a minimum beyond s - rank Y
    seen = {"unique": 0, "tie": 0, "none": 0}
    for code, j, cfg in _agreement_configs():
        p = code.params
        local_gen = code.local_code(j).generator_gfq()
        cols = code.rack_columns(j)
        cands = local_candidates(code, j)
        root = SplitMix64(cfg.seed)
        nones = successes = 0
        for trial in range(40):
            rng = root.spawn(trial)
            message = [rng.randbelow(code.field.order) for _ in range(p.k)]
            codeword = code.encode_matrix(message)
            y = channel_apply(transmit_matrix(code, codeword, j), cfg, rng, p.q).received
            best = decode_subspace_min(cands, p.n, cols, y, p.q)
            floor = p.s - gfq_rank(y, p.q)
            try:
                got = solve_download(local_gen, p.n, cols, y, p.q)
            except AmbiguousErasureError:
                seen["tie"] += 1
                assert best.is_tie and best.distance == floor
                continue
            if got is None:
                seen["none"] += 1
                nones += 1
                assert best.distance > floor
            else:
                seen["unique"] += 1
                assert not best.is_tie and best.distance == floor
                assert (got == best.local_matrix).all()
            sent = codeword[:, cols.start : cols.stop]
            successes += not best.is_tie and (best.local_matrix == sent).all()
        # the solve-first simulator reports what enumeration alone would
        rep = run_trials(code, j, cfg, 40)
        assert rep.successes == successes and rep.enumerated == nones
    assert min(seen.values()) > 0, seen


def test_solve_download_matches_map_form_on_noisy_channels(tiny_code, example2_code, monkeypatch):
    # seeded channel outputs with one injected error packet allowed, on the
    # reference code's rack 2 and on the tiny code with one packet collected
    # and every packet erasable (a zero row ties): the download's decision
    # (a rack matrix, a tie or no candidate) is the same with gfq_solve
    # swapped for the solve map
    def decisions():
        out = []
        for code, j, cfg in cases:
            p = code.params
            local_gen = code.local_code(j).generator_gfq()
            root = SplitMix64(cfg.seed)
            for trial in range(150):
                rng = root.spawn(trial)
                message = [rng.randbelow(code.field.order) for _ in range(p.k)]
                x = transmit_matrix(code, code.encode_matrix(message), j)
                y = channel_apply(x, cfg, rng, p.q).received
                try:
                    got = solve_download(local_gen, p.n, code.rack_columns(j), y, p.q)
                except AmbiguousErasureError:
                    out.append("tie")
                else:
                    out.append("none" if got is None else got.tolist())
        return out

    cases = [
        (example2_code, 2, ChannelConfig(3, 3, 1, 1, 6, seed=11)),
        (tiny_code, 1, ChannelConfig(2, 1, 2, 1, 4, seed=12)),
    ]
    solved = decisions()
    monkeypatch.setattr(netsim, "gfq_solve", map_form_solve)
    assert decisions() == solved
    kinds = {d if isinstance(d, str) else "unique" for d in solved}
    assert kinds == {"none", "tie", "unique"}


def test_reference_downloads_never_enumerate(example2_code, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an in-guarantee trial enumerated")

    monkeypatch.setattr(netsim, "local_candidates", refuse)
    cfg = ChannelConfig(packets_per_rack=3, n_collect=3, rho_max=1, t_max=0, links=6, seed=5)
    rep = run_trials(example2_code, 2, cfg, 20)
    assert rep.successes == 20 and rep.enumerated == 0
    assert {rho for (rho, _), _ in rep.histogram} == {0, 1}

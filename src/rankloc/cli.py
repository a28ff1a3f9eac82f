"""Command-line front end: build/encode/inject/decode/verify/lift/simulate.

All commands are batch-style and deterministic given their inputs and seed
flags.  Exit codes: 0 success, 2 decode failure (guarantee exceeded or
inconsistent word), 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .codes import (
    DEFAULT_ORACLE_BUDGET,
    OracleBudgetError,
    min_rank_distance,
    rank_distance_bound,
    sampled_min_rank,
)
from .crisscross import AmbiguousErasureError, decode_erasures, validate_patterns
from .gf import base_tables
from .formats import (
    SPEC_FORMAT_VERSION,
    FormatError,
    atomic_write,
    check_fingerprint,
    format_codeword,
    format_received,
    format_subspace,
    load_code_spec,
    parse_codeword,
    parse_error_values,
    parse_message,
    parse_pattern,
    parse_received,
)
from .netsim import ChannelConfig, run_trials
from .subspace import lift, min_subspace_distance, verify_subspace_locality


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(args) -> tuple:
    spec = load_code_spec(args.spec)
    return spec, spec.build()


def _read_stamped(path: str, spec) -> str:
    """Text of a file, refused when its header names another spec."""
    text = _read(path)
    check_fingerprint(text, spec.fingerprint())
    return text


def _write_stamped(args, spec, format_fn, *data) -> None:
    """Write ``format_fn(*data)`` to --out, stamped with the spec's name and hash."""
    text = format_fn(
        *data, fingerprint=spec.fingerprint(), spec_name=os.path.basename(args.spec)
    )
    atomic_write(args.out, text)
    print(f"wrote {args.out}")


def cmd_build(args) -> int:
    spec, code = _load(args)
    p = code.params
    f = code.field
    mod = " + ".join(
        _poly_term(c, i) for i, c in reversed(list(enumerate(f.spec.modulus)))
        if c
    )
    print(f"code=({p.m}x{p.n}, k={p.k}, r={p.r}, delta={p.delta}) over GF({p.q}^{p.m})")
    print(f"modulus={mod}")
    print(f"mu={p.mu} s={p.s}")
    print(f"d_bound={rank_distance_bound(p.n, p.k, p.r, p.delta)}")
    print(f"local=({p.s},{p.r}) MRD, local_distance={p.delta}")
    for j in range(1, p.mu + 1):
        print(f"rack_{j}=" + ",".join(f.format_element(a) for a in code.rack_points(j)))
    print(f"fingerprint={spec.fingerprint()}")
    return 0


def _poly_term(c: int, i: int) -> str:
    coeff = "" if c == 1 or i == 0 else f"{c}*"
    if i == 0:
        return str(c)
    if i == 1:
        return f"{coeff}x"
    return f"{coeff}x^{i}"


def cmd_encode(args) -> int:
    spec, code = _load(args)
    f = code.field
    message = parse_message(_read(args.message), f, code.params.k)
    elements = code.encode(message)
    if args.show_poly:
        print(code.encoding_poly(message).format("f"))
    _write_stamped(args, spec, format_codeword, f, elements)
    return 0


def cmd_inject(args) -> int:
    spec, code = _load(args)
    p = code.params
    f = code.field
    elements = parse_codeword(_read_stamped(args.codeword, spec), f, p.n)
    matrix = f.to_matrix(elements)
    erased, errored = parse_pattern(_read(args.pattern), p.m, p.n)
    if errored.any():
        if not args.errors:
            raise FormatError("pattern has 'E' cells but no --errors file")
        values = parse_error_values(_read(args.errors), f, errored)
    else:
        values = np.zeros_like(errored)
    _, err = validate_patterns(erased, values, p.q)
    received = base_tables(p.q).add[matrix, err]
    _write_stamped(args, spec, format_received, received, erased)
    return 0


def cmd_decode(args) -> int:
    spec, code = _load(args)
    p = code.params
    values, erased = parse_received(
        _read_stamped(args.received, spec), p.q, p.m, p.n
    )
    try:
        result = decode_erasures(code, values, erased)
    except (AmbiguousErasureError, ValueError) as exc:
        print("FAIL")
        print(f"reason: {exc}", file=sys.stderr)
        return 2
    for line in result.verdict_lines():
        print(line)
    if args.out:
        elements = code.field.from_matrix(result.matrix)
        _write_stamped(args, spec, format_codeword, code.field, elements)
    return 0


def cmd_verify(args) -> int:
    spec, code = _load(args)
    p = code.params
    f = code.field
    bound = rank_distance_bound(p.n, p.k, p.r, p.delta)
    print(f"d_bound={bound}")

    # good-polynomial constancy per rack (executable check, not assumed)
    qs_minus = p.q**p.s - 1
    rack_values = []
    for j in range(1, p.mu + 1):
        vals = {f.pow(a, qs_minus) for a in code.rack_points(j)}
        if len(vals) != 1:
            print(f"rack_{j}: good polynomial NOT constant")
            return 3
        rack_values.append(vals.pop())
    print("good_poly_per_rack=" + ",".join(f.format_element(v) for v in rack_values))

    if args.mode == "exact":
        try:
            d = min_rank_distance(code, args.budget)
            local_ds = [
                min_rank_distance(code.local_code(j), args.budget)
                for j in range(1, p.mu + 1)
            ]
        except OracleBudgetError as exc:
            print(f"error: {exc}; use --mode sampled", file=sys.stderr)
            return 3
        lifted_ds = min_subspace_distance(code, args.budget)
        lifted_label = f"lifted d_S={lifted_ds}"
        d_label = f"d={d} " + ("(optimal)" if d == bound else f"(bound {bound})")
    else:
        try:
            d = sampled_min_rank(code, samples=args.samples, seed=args.seed)
            local_ds = [
                sampled_min_rank(code.local_code(j), samples=args.samples, seed=args.seed)
                for j in range(1, p.mu + 1)
            ]
        except MemoryError:
            reason = f"out of memory at --samples {args.samples}; lower the sample count"
            print(f"error: {reason}", file=sys.stderr)
            return 3
        lifted_label = f"lifted d_S<={2 * d}"
        print(f"samples={args.samples} (observed minima, not exhaustive)")
        d_label = f"d<={d} (sampled)"
    local_d = min(local_ds)
    if args.mode == "exact":
        local_tag = "(MRD)" if local_d == p.delta else f"(expected {p.delta})"
    else:
        local_tag = "(sampled)"
    local_label = f"local d={local_d} {local_tag}"
    report = verify_subspace_locality(code, budget=args.budget, seed=args.seed)
    for block in report.blocks:
        print(
            f"block_{block.block}: size_ok={block.size_ok} dim_ok={block.dim_ok}"
            f" projected_d={block.projected_distance}"
            f" required={block.required_distance} exact={block.exact}"
        )
    print(f"{d_label}, {local_label}, {lifted_label}, {report.summary()}")
    return 0 if report.passed else 2


def cmd_lift(args) -> int:
    spec, code = _load(args)
    p = code.params
    elements = parse_codeword(_read_stamped(args.codeword, spec), code.field, p.n)
    subspace = lift(code.field.to_matrix(elements), p.q)
    _write_stamped(args, spec, format_subspace, subspace.basis)
    return 0


def cmd_simulate(args) -> int:
    spec, code = _load(args)
    config = ChannelConfig(
        packets_per_rack=code.params.s,
        n_collect=args.collect,
        rho_max=args.rho,
        t_max=args.terr,
        links=args.links,
        seed=args.seed,
    )
    report = run_trials(code, args.rack, config, args.trials, budget=args.budget)
    print(f"{'rack':<14}{report.rack}")
    print(f"{'trials':<14}{report.trials}")
    print(f"{'successes':<14}{report.successes}")
    print(f"{'success_rate':<14}{report.success_rate:.6f}")
    print(f"{'enumerated':<14}{report.enumerated}")
    print(f"{'wall_time':<14}{report.wall_time:.3f}s")
    print(f"{'rho':>5}{'t':>4}{'count':>8}")
    for (rho, t), count in report.histogram:
        print(f"{rho:>5}{t:>4}{count:>8}")
    print("--- kv ---")
    for line in report.to_kv():
        print(line)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="rankloc",
        description="Rank-metric codes with rack locality: encode, repair, lift, simulate.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"rankloc spec-format {SPEC_FORMAT_VERSION}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        cmd = sub.add_parser(name, **kwargs)
        cmd.add_argument("--spec", required=True, help="code spec file")
        cmd.set_defaults(func=func)
        return cmd

    add("build", cmd_build, help="print code summary and partition")

    enc = add("encode", cmd_encode, help="encode a message file")
    enc.add_argument("--message", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--show-poly", action="store_true")

    inj = add("inject", cmd_inject, help="apply an erasure/error pattern")
    inj.add_argument("--codeword", required=True)
    inj.add_argument("--pattern", required=True)
    inj.add_argument("--errors", help="sidecar error values for 'E' cells")
    inj.add_argument("--out", required=True)

    dec = add("decode", cmd_decode, help="repair erasures locally, then globally")
    dec.add_argument("--received", required=True)
    dec.add_argument("--out")

    ver = add("verify", cmd_verify, help="distance and locality report")
    ver.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    ver.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)
    ver.add_argument(
        "--samples", type=int, default=10_000,
        help="sampled mode: random nonzero codewords ranked for each distance estimate"
        " (the code, then each rack); the block lines compare a fixed 2000 pairs"
        " whenever a block is not scanned exhaustively",
    )
    ver.add_argument(
        "--seed", type=int, default=0,
        help="seeds the sampled distance estimates and the sampled block-locality pairs",
    )

    lif = add("lift", cmd_lift, help="lift a codeword to a subspace file")
    lif.add_argument("--codeword", required=True)
    lif.add_argument("--out", required=True)

    sim = add("simulate", cmd_simulate, help="noisy-network download trials")
    sim.add_argument("--rack", type=int, required=True)
    sim.add_argument("--rho", type=int, default=0, help="erasure budget")
    sim.add_argument("--terr", type=int, default=0, help="error packet budget")
    sim.add_argument("--collect", type=int, required=True, help="packets collected")
    sim.add_argument("--links", type=int, default=8)
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleBudgetError as exc:
        print(f"error: {exc}; lower the instance size or use sampled mode", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        reason = "out of memory"
        if hasattr(args, "budget"):
            reason += f" at --budget {args.budget}; lower the budget"
        print(f"error: {reason}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

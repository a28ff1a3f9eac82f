"""Command-line workflows, end to end through main()."""

import numpy as np
import pytest

from rankloc import gf
from rankloc.cli import main
from rankloc.formats import CodeSpec, parse_codeword, parse_received

REFERENCE_SPEC = """\
q=2
m=9
n=9
k=4
r=2
delta=2
modulus=1,0,0,0,1,0,0,0,0,1
basisA=1,w^73,w^146
basisB=1,w^309,w^107
"""

TINY_SPEC = "q=2\nm=6\nn=6\nk=2\nr=1\ndelta=2\n"

REFERENCE_MESSAGE = "w^1\nw^2\nw^4\nw^8\n"

MIXED_PATTERN = "\n".join(
    [
        "??????...",
        "????.....",
        "????.....",
        "...?.....",
        "...?.....",
        "...?.....",
        "...?.....",
        "...?.....",
        "...?..???",
    ]
) + "\n"


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "ref.spec").write_text(REFERENCE_SPEC)
    (tmp_path / "tiny.spec").write_text(TINY_SPEC)
    (tmp_path / "msg.txt").write_text(REFERENCE_MESSAGE)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "rankloc spec-format 1"


def test_build_summary(ws, capsys):
    code, out, _ = run(capsys, "build", "--spec", ws / "ref.spec")
    assert code == 0
    assert "code=(9x9, k=4, r=2, delta=2) over GF(2^9)" in out
    assert "modulus=x^9 + x^4 + 1" in out
    assert "mu=3 s=3" in out
    assert "d_bound=5" in out
    assert "local=(3,2) MRD, local_distance=2" in out
    assert "rack_1=1,w^73,w^146" in out
    assert "rack_2=w^309,w^382,w^455" in out
    assert "rack_3=w^107,w^180,w^253" in out
    assert "fingerprint=6a0a39270873" in out


REFERENCE_BUILD_STDOUT = """\
code=(9x9, k=4, r=2, delta=2) over GF(2^9)
modulus=x^9 + x^4 + 1
mu=3 s=3
d_bound=5
local=(3,2) MRD, local_distance=2
rack_1=1,w^73,w^146
rack_2=w^309,w^382,w^455
rack_3=w^107,w^180,w^253
fingerprint=6a0a39270873
"""

TINY_BUILD_STDOUT = """\
code=(6x6, k=2, r=1, delta=2) over GF(2^6)
modulus=x^6 + x + 1
mu=3 s=2
d_bound=4
local=(2,1) MRD, local_distance=2
rack_1=1,w^21
rack_2=w^1,w^22
rack_3=w^2,w^23
fingerprint=9be733e767c5
"""

REFERENCE_HEADER = """\
# spec: ref.spec
# spec-fingerprint: 6a0a39270873
"""

REFERENCE_MATRIX_ROWS = """\
001000001
110001101
101010111
011100011
111100101
001000001
001110001
010001001
100101000
"""

REFERENCE_CODEWORD_TEXT = (
    "# rankloc codeword format 1\n" + REFERENCE_HEADER
    + "# columns: 9 elements of GF(2^9)\n"
    + "w^440\nw^307\nw^81\nw^465\nw^11\nw^174\nw^236\nw^132\nw^399\n"
    + "# matrix: 9 x 9 over GF(2), column t expands element t"
    " (low coefficient first)\n"
    + REFERENCE_MATRIX_ROWS
)

REFERENCE_MIXED_RECEIVED_TEXT = (
    "# rankloc received format 1\n" + REFERENCE_HEADER
    + "# 9 x 9 over GF(q); '?' marks an erased cell\n"
    "??????001\n"
    "????01101\n"
    "????10111\n"
    "011?00011\n"
    "111?00101\n"
    "001?00001\n"
    "001?10001\n"
    "010?01001\n"
    "100?01???\n"
)

REFERENCE_SUBSPACE_TEXT = (
    "# rankloc subspace format 1\n" + REFERENCE_HEADER + "M=18 dim=9\n"
    + "".join("0" * i + "1" + "0" * (8 - i) + "\n" for i in range(9))
    + REFERENCE_MATRIX_ROWS
)


def test_build_stdout_golden(ws, capsys):
    for name, expected in (("ref", REFERENCE_BUILD_STDOUT), ("tiny", TINY_BUILD_STDOUT)):
        code, out, _ = run(capsys, "build", "--spec", ws / f"{name}.spec")
        assert code == 0
        assert out == expected


def test_written_files_golden(ws, capsys):
    # every file the CLI writes, headers included, and the stdout of each
    # writing command, on the reference code with the mixed pattern
    (ws / "mixed.pat").write_text(MIXED_PATTERN)
    spec = ("--spec", ws / "ref.spec")
    steps = [
        (
            ("encode", *spec, "--message", ws / "msg.txt", "--out", ws / "cw.txt",
             "--show-poly"),
            "f = w^1*X^[0] + w^2*X^[1] + w^4*X^[3] + w^8*X^[4]\n"
            f"wrote {ws / 'cw.txt'}\n",
        ),
        (
            ("inject", *spec, "--codeword", ws / "cw.txt", "--pattern",
             ws / "mixed.pat", "--out", ws / "recv.txt"),
            f"wrote {ws / 'recv.txt'}\n",
        ),
        (
            ("decode", *spec, "--received", ws / "recv.txt", "--out", ws / "back.txt"),
            f"LOCAL j=3\nGLOBAL\nwrote {ws / 'back.txt'}\n",
        ),
        (("decode", *spec, "--received", ws / "recv.txt"), "LOCAL j=3\nGLOBAL\n"),
        (
            ("lift", *spec, "--codeword", ws / "cw.txt", "--out", ws / "sub.txt"),
            f"wrote {ws / 'sub.txt'}\n",
        ),
    ]
    for argv, expected in steps:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, expected, "")
    assert (ws / "cw.txt").read_text() == REFERENCE_CODEWORD_TEXT
    assert (ws / "recv.txt").read_text() == REFERENCE_MIXED_RECEIVED_TEXT
    assert (ws / "back.txt").read_text() == REFERENCE_CODEWORD_TEXT
    assert (ws / "sub.txt").read_text() == REFERENCE_SUBSPACE_TEXT
    assert sorted(p.name for p in ws.iterdir()) == [
        "back.txt", "cw.txt", "mixed.pat", "msg.txt", "recv.txt", "ref.spec",
        "sub.txt", "tiny.spec",
    ]


def test_encode_golden(ws, capsys):
    code, out, _ = run(
        capsys, "encode", "--spec", ws / "ref.spec", "--message", ws / "msg.txt",
        "--out", ws / "cw.txt", "--show-poly",
    )
    assert code == 0
    assert "f = w^1*X^[0] + w^2*X^[1] + w^4*X^[3] + w^8*X^[4]" in out
    lines = [
        l for l in (ws / "cw.txt").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert lines[:9] == [
        "w^440", "w^307", "w^81", "w^465", "w^11", "w^174", "w^236", "w^132", "w^399",
    ]


def encode_reference(ws, capsys):
    run(capsys, "encode", "--spec", ws / "ref.spec", "--message", ws / "msg.txt",
        "--out", ws / "cw.txt")


def test_zero_pattern_round_trip(ws, capsys):
    encode_reference(ws, capsys)
    (ws / "none.pat").write_text(("." * 9 + "\n") * 9)
    code, _, _ = run(
        capsys, "inject", "--spec", ws / "ref.spec", "--codeword", ws / "cw.txt",
        "--pattern", ws / "none.pat", "--out", ws / "recv.txt",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "decode", "--spec", ws / "ref.spec", "--received", ws / "recv.txt",
        "--out", ws / "back.txt",
    )
    assert code == 0
    assert "exact" not in out  # decode prints verdicts, not diffs
    # byte-identical round trip apart from the generated headers
    strip = lambda p: [
        l for l in (ws / p).read_text().splitlines() if not l.startswith("#")
    ]
    assert strip("back.txt") == strip("cw.txt")


def test_mixed_pattern_decode(ws, capsys):
    encode_reference(ws, capsys)
    (ws / "mixed.pat").write_text(MIXED_PATTERN)
    run(capsys, "inject", "--spec", ws / "ref.spec", "--codeword", ws / "cw.txt",
        "--pattern", ws / "mixed.pat", "--out", ws / "recv.txt")
    assert "?" in (ws / "recv.txt").read_text()
    code, out, _ = run(
        capsys, "decode", "--spec", ws / "ref.spec", "--received", ws / "recv.txt",
        "--out", ws / "back.txt",
    )
    assert code == 0
    assert "LOCAL j=3" in out and "GLOBAL" in out
    strip = lambda p: [
        l for l in (ws / p).read_text().splitlines() if not l.startswith("#")
    ]
    assert strip("back.txt") == strip("cw.txt")


def test_heavy_pattern_fails_cleanly(ws, capsys):
    encode_reference(ws, capsys)
    heavy = "\n".join(["?" * 9] * 6 + ["." * 9] * 3) + "\n"
    (ws / "heavy.pat").write_text(heavy)
    run(capsys, "inject", "--spec", ws / "ref.spec", "--codeword", ws / "cw.txt",
        "--pattern", ws / "heavy.pat", "--out", ws / "recv.txt")
    code, out, err = run(
        capsys, "decode", "--spec", ws / "ref.spec", "--received", ws / "recv.txt",
    )
    assert code == 2
    assert "FAIL" in out
    assert "exceeds guarantee" in err


def test_inject_with_error_values(ws, capsys):
    encode_reference(ws, capsys)
    pattern = "\n".join(["E" + "." * 8] + ["." * 9] * 8) + "\n"
    (ws / "err.pat").write_text(pattern)
    (ws / "err.val").write_text("1\n")
    code, _, _ = run(
        capsys, "inject", "--spec", ws / "ref.spec", "--codeword", ws / "cw.txt",
        "--pattern", ws / "err.pat", "--errors", ws / "err.val",
        "--out", ws / "recv.txt",
    )
    assert code == 0
    # exactly one cell flipped relative to the pristine grid
    (ws / "none.pat").write_text(("." * 9 + "\n") * 9)
    run(capsys, "inject", "--spec", ws / "ref.spec", "--codeword", ws / "cw.txt",
        "--pattern", ws / "none.pat", "--out", ws / "clean.txt")
    dirty = [l for l in (ws / "recv.txt").read_text().splitlines() if not l.startswith("#")]
    clean = [l for l in (ws / "clean.txt").read_text().splitlines() if not l.startswith("#")]
    flips = sum(a != b for row_a, row_b in zip(dirty, clean) for a, b in zip(row_a, row_b))
    assert flips == 1


def test_decode_refuses_a_corrupted_cell(ws, capsys):
    # an E cell with no erasures is not a codeword: exit 2, never a verdict
    encode_reference(ws, capsys)
    (ws / "err.pat").write_text("\n".join(["E" + "." * 8] + ["." * 9] * 8) + "\n")
    (ws / "err.val").write_text("1\n")
    run(capsys, "inject", "--spec", ws / "ref.spec", "--codeword", ws / "cw.txt",
        "--pattern", ws / "err.pat", "--errors", ws / "err.val", "--out", ws / "recv.txt")
    code, out, err = run(
        capsys, "decode", "--spec", ws / "ref.spec", "--received", ws / "recv.txt",
        "--out", ws / "back.txt",
    )
    assert code == 2
    assert out == "FAIL\n"
    assert "decoded word is not a codeword" in err
    assert not (ws / "back.txt").exists()


def test_decode_refuses_a_flip_in_a_rack_left_with_r_columns(ws, capsys):
    # rack 3 loses column 6 and keeps r = 2 columns, so its local solve
    # has no check rows and repairs column 6 from the flipped cell (4, 7)
    # without complaint; the final parity check refuses the word: exit 2
    encode_reference(ws, capsys)
    rows = ["......?.."] * 9
    rows[4] = "......?E."
    (ws / "err.pat").write_text("\n".join(rows) + "\n")
    (ws / "err.val").write_text("1\n")
    code, _, _ = run(capsys, "inject", "--spec", ws / "ref.spec", "--codeword", ws / "cw.txt",
                     "--pattern", ws / "err.pat", "--errors", ws / "err.val",
                     "--out", ws / "recv.txt")
    assert code == 0
    code, out, err = run(
        capsys, "decode", "--spec", ws / "ref.spec", "--received", ws / "recv.txt",
        "--out", ws / "back.txt",
    )
    assert code == 2
    assert out == "FAIL\n"
    assert "decoded word is not a codeword" in err
    assert not (ws / "back.txt").exists()


def test_verify_tiny_exact(ws, capsys):
    code, out, _ = run(capsys, "verify", "--spec", ws / "tiny.spec")
    assert code == 0
    assert "d_bound=4" in out
    assert "good_poly_per_rack=1,w^3,w^6" in out
    assert out.strip().splitlines()[-1] == (
        "d=4 (optimal), local d=2 (MRD), lifted d_S=8, subspace-locality (1,4): PASS"
    )


def test_verify_reference_sampled(ws, capsys):
    code, out, _ = run(
        capsys, "verify", "--spec", ws / "ref.spec", "--mode", "sampled",
        "--samples", "300", "--seed", "1",
    )
    assert code == 0
    # whole stdout pinned: the sampled distance and locality scans are both
    # seeded by --seed, so every observed minimum is reproducible.  The
    # block lines compare 2000 pairs whatever --samples says; each block's
    # minimum 4 turns up among them at every seed from 0 to 199
    assert out == (
        "d_bound=5\n"
        "good_poly_per_rack=1,w^119,w^238\n"
        "samples=300 (observed minima, not exhaustive)\n"
        "block_1: size_ok=True dim_ok=True projected_d=4 required=4 exact=False\n"
        "block_2: size_ok=True dim_ok=True projected_d=4 required=4 exact=False\n"
        "block_3: size_ok=True dim_ok=True projected_d=4 required=4 exact=False\n"
        "d<=6 (sampled), local d=2 (sampled), lifted d_S<=12,"
        " subspace-locality (2,4): PASS (sampled)\n"
    )


@pytest.mark.parametrize("mode, seed", [("sampled", "7"), ("exact", "5")])
def test_verify_seeds_the_locality_check(ws, capsys, monkeypatch, mode, seed):
    # --seed reaches the block-locality scan
    from rankloc import cli

    calls = []
    check = cli.verify_subspace_locality

    def recorded(lifted, **kwargs):
        calls.append(kwargs)
        return check(lifted, **kwargs)

    monkeypatch.setattr(cli, "verify_subspace_locality", recorded)
    spec = ws / ("ref.spec" if mode == "sampled" else "tiny.spec")
    code, _, _ = run(
        capsys, "verify", "--spec", spec, "--mode", mode, "--samples", "300", "--seed", seed,
    )
    assert code == 0
    assert [c["seed"] for c in calls] == [int(seed)]


def test_verify_sampled_over_budget_pairs_distinct_messages(ws, capsys):
    # past --budget the block lines pair random messages; the tiny code's
    # 64 local messages repeat among them, and a repeated one must not
    # count as a pair at distance 0
    code, out, _ = run(
        capsys, "verify", "--spec", ws / "tiny.spec", "--mode", "sampled", "--budget", "10",
    )
    assert code == 0
    assert out.splitlines()[3:] == [
        f"block_{j}: size_ok=True dim_ok=True projected_d=4 required=4 exact=False"
        for j in (1, 2, 3)
    ] + [
        "d<=4 (sampled), local d=2 (sampled), lifted d_S<=8, subspace-locality (1,4):"
        " PASS (sampled)"
    ]


def test_verify_sampled_ranks_codes_without_unpacking(ws, capsys, monkeypatch):
    # sampled verify ranks the encoder's element codes as they stand
    from rankloc.gf import Field

    calls = []
    unpack = Field.matrix_batch

    def counted(self, codes):
        calls.append(codes.shape)
        return unpack(self, codes)

    monkeypatch.setattr(Field, "matrix_batch", counted)
    code, out, _ = run(
        capsys, "verify", "--spec", ws / "ref.spec", "--mode", "sampled",
        "--samples", "300", "--seed", "1",
    )
    assert code == 0 and out.endswith("PASS (sampled)\n")
    assert calls == []


def test_verify_sampled_on_a_64_bit_lift(ws, capsys):
    # GF(4^16) with n = 16: lifted columns are 2^64-valued packed codes
    (ws / "wide.spec").write_text(
        "q=4\nm=16\nn=16\nk=2\nr=1\ndelta=1\n"
        "modulus=2,1,0,2,0,0,0,0,3,1,3,0,1,3,3,1,1\n"
    )
    code, out, err = run(
        capsys, "verify", "--spec", ws / "wide.spec", "--mode", "sampled", "--samples", "50",
    )
    assert code == 0, err
    assert out.endswith("subspace-locality (1,2): PASS (sampled)\n")


def test_verify_reference_exact_overruns_budget(ws, capsys):
    code, _, err = run(capsys, "verify", "--spec", ws / "ref.spec")
    assert code == 3
    assert "use --mode sampled" in err


def test_lift_writes_subspace(ws, capsys):
    encode_reference(ws, capsys)
    code, _, _ = run(
        capsys, "lift", "--spec", ws / "ref.spec", "--codeword", ws / "cw.txt",
        "--out", ws / "sub.txt",
    )
    assert code == 0
    body = (ws / "sub.txt").read_text()
    assert "M=18 dim=9" in body
    rows = [l for l in body.splitlines() if l and not l.startswith("#")][1:]
    assert rows[:9] == [
        "100000000", "010000000", "001000000", "010001000", "000100000",
        "000010000", "000001000", "000000100", "000000010",
    ] or (np.array([[int(c) for c in r] for r in rows[:9]]) == np.eye(9)).all()


def test_simulate_deterministic(ws, capsys):
    args = (
        "simulate", "--spec", ws / "tiny.spec", "--rack", "1", "--rho", "1",
        "--collect", "3", "--links", "4", "--trials", "200", "--seed", "2024",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)

    def stable(out):
        # wall_time is the one line allowed to differ between runs
        return [l for l in out.splitlines() if not l.startswith("wall_time")]

    assert stable(out1) == stable(out2)
    kv = out1.split("--- kv ---", 1)[1]
    assert "rack=1" in kv and "seed=2024" in kv
    assert "success_rate=1.000000" in kv


def test_simulate_budget_and_enumerated_line(ws, capsys):
    args = ("simulate", "--spec", ws / "tiny.spec", "--rack", "1", "--collect", "3",
            "--links", "4", "--trials", "200", "--seed", "77")
    # the local code's 64 candidates are refused up front, solve or not
    code, out, err = run(capsys, *args, "--budget", "10")
    assert code == 3 and out == ""
    assert err == "error: oracle scale exceeded; lower the instance size or use sampled mode\n"
    # injected packets leave some trials to enumeration; the count stays
    # out of the kv block
    code, out, _ = run(capsys, *args, "--terr", "1")
    assert code == 0
    table, kv = out.split("--- kv ---", 1)
    (line,) = [l for l in table.splitlines() if l.startswith("enumerated")]
    assert int(line.split()[1]) > 0
    assert "enumerated" not in kv


@pytest.mark.parametrize("q", [2, 3])
def test_degree_one_field_builds_and_verifies(ws, capsys, q):
    # m = 1: the modulus x would make x = 0, which is never primitive, and
    # with mu = 1 the power basis over GF(q^s) is just (1,)
    (ws / "deg1.spec").write_text(f"q={q}\nm=1\nn=1\nk=1\nr=1\ndelta=1\n")
    code, out, _ = run(capsys, "build", "--spec", ws / "deg1.spec")
    assert code == 0
    assert f"over GF({q}^1)" in out
    assert "modulus=x + 1" in out
    code, out, _ = run(capsys, "verify", "--spec", ws / "deg1.spec", "--mode", "exact")
    assert code == 0
    assert out.strip().splitlines()[-1] == (
        "d=1 (optimal), local d=1 (MRD), lifted d_S=2, subspace-locality (1,2): PASS"
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_grid_round_trip(ws, capsys, q):
    # symbols from 10 up are written a..f in the grids, one character a cell
    (ws / "q.spec").write_text(f"q={q}\nm=2\nn=2\nk=1\nr=1\ndelta=1\n")
    (ws / "msg.txt").write_text(f"{q - 1},{q - 2}\n")
    (ws / "col2.pat").write_text(".?\n.?\n")
    spec = ("--spec", ws / "q.spec")
    assert run(capsys, "encode", *spec, "--message", ws / "msg.txt",
               "--out", ws / "cw.txt")[0] == 0
    assert run(capsys, "inject", *spec, "--codeword", ws / "cw.txt",
               "--pattern", ws / "col2.pat", "--out", ws / "recv.txt")[0] == 0
    code, out, _ = run(capsys, "decode", *spec, "--received", ws / "recv.txt",
                       "--out", ws / "dec.txt")
    assert code == 0, out
    spec_obj = CodeSpec.from_text((ws / "q.spec").read_text())
    f = spec_obj.build().field
    sent = parse_codeword((ws / "cw.txt").read_text(), f, 2)
    assert parse_codeword((ws / "dec.txt").read_text(), f, 2) == sent
    values, erased = parse_received((ws / "recv.txt").read_text(), q, 2, 2)
    assert (erased[:, 1] == 1).all() and not erased[:, 0].any()
    assert (values[:, 0] == f.to_matrix(sent)[:, 0]).all()
    rows = (ws / "cw.txt").read_text().splitlines()[-2:]
    assert all(len(row) == 2 for row in rows)
    assert any(ch.isalpha() for row in rows for ch in row) == (q > 10)


def test_default_modulus_search_refuses(ws, capsys):
    (ws / "big.spec").write_text("q=13\nm=8\nn=8\nk=2\nr=2\ndelta=1\n")
    code, out, err = run(capsys, "build", "--spec", ws / "big.spec")
    assert (code, out) == (3, "")
    assert "no default modulus for GF(13^8) within 50000 trial divisions" in err


def test_field_past_the_factoring_limit_refused(ws, capsys):
    # x^16 + 2 is irreducible over GF(5), but 5^16 - 1 passes 2**32
    modulus = ",".join(["2"] + ["0"] * 15 + ["1"])
    (ws / "big.spec").write_text(f"q=5\nm=16\nn=8\nk=2\nr=2\ndelta=1\nmodulus={modulus}\n")
    code, out, err = run(capsys, "build", "--spec", ws / "big.spec")
    assert (code, out) == (3, "")
    assert "GF(5^16) unsupported: q^m - 1 exceeds 2**32" in err


@pytest.mark.parametrize(
    "modulus, reason",
    [
        # x^4 + x^3 + x^2 + x + 1 is irreducible, but x has order 5, not 15
        ("1,1,1,1,1", "tower construction needs a designated primitive element"),
        ("1,1,0,1,1", "modulus not irreducible"),  # (x + 1)(x^3 + 1)
    ],
    ids=["x-not-primitive", "reducible"],
)
def test_modulus_without_a_primitive_x_refused_after_one_irreducibility_test(
    ws, capsys, monkeypatch, modulus, reason
):
    calls = []
    is_irreducible = gf._poly_is_irreducible

    def counting(mod, t):
        calls.append(tuple(mod))
        return is_irreducible(mod, t)

    monkeypatch.setattr(gf, "_poly_is_irreducible", counting)
    (ws / "x.spec").write_text(f"q=2\nm=4\nn=4\nk=2\nr=1\ndelta=2\nmodulus={modulus}\n")
    assert run(capsys, "build", "--spec", ws / "x.spec") == (3, "", f"error: {reason}\n")
    assert calls == [tuple(int(c) for c in modulus.split(","))]


def test_bad_spec_reports_reason(ws, capsys):
    (ws / "bad.spec").write_text("q=2\nm=9\nn=9\nk=3\nr=2\ndelta=2\n")
    code, _, err = run(capsys, "build", "--spec", ws / "bad.spec")
    assert code == 3
    assert "r must divide k" in err


def test_tampered_fingerprint_rejected(ws, capsys):
    encode_reference(ws, capsys)
    cw = (ws / "cw.txt").read_text()
    other = CodeSpec.from_text(TINY_SPEC).fingerprint()
    tampered = cw.replace("6a0a39270873", other)
    assert tampered != cw
    (ws / "cw.txt").write_text(tampered)
    (ws / "none.pat").write_text(("." * 9 + "\n") * 9)
    code, _, err = run(
        capsys, "inject", "--spec", ws / "ref.spec", "--codeword", ws / "cw.txt",
        "--pattern", ws / "none.pat", "--out", ws / "recv.txt",
    )
    assert code == 3
    assert "spec mismatch" in err


def test_missing_file_reports_error(ws, capsys):
    code, _, err = run(capsys, "build", "--spec", ws / "nope.spec")
    assert code == 3
    assert "error:" in err


SUPERSCRIPT_TWO = "\u00b2"


@pytest.mark.parametrize(
    "command, filename, text, reason",
    [
        ("build", "ref.spec", "q=" + SUPERSCRIPT_TWO + "\n",
         "line 1: q must be an integer"),
        ("encode", "msg.txt", "w^1\nw^" + SUPERSCRIPT_TWO + "\n",
         "line 2: "),
        ("inject", "mixed.pat",
         MIXED_PATTERN.replace("..???", "..?" + SUPERSCRIPT_TWO + "?"),
         "line 9: bad pattern"),
        ("decode", "recv.txt",
         REFERENCE_MIXED_RECEIVED_TEXT.replace("011?", "01" + SUPERSCRIPT_TWO + "?"),
         "line 8: bad received character"),
        ("lift", "cw.txt",
         REFERENCE_CODEWORD_TEXT.replace("\n001000001\n", "\n00" + SUPERSCRIPT_TWO
                                         + "000001\n", 1),
         "line 15: bad matrix character"),
    ],
    ids=["build", "encode", "inject", "decode", "lift"],
)
def test_malformed_input_exits_3(ws, capsys, command, filename, text, reason):
    # each reading command refuses a malformed file with exit 3 and the line
    (ws / "mixed.pat").write_text(MIXED_PATTERN)
    (ws / "cw.txt").write_text(REFERENCE_CODEWORD_TEXT)
    (ws / "recv.txt").write_text(REFERENCE_MIXED_RECEIVED_TEXT)
    (ws / filename).write_text(text)
    argv = {
        "build": (),
        "encode": ("--message", ws / "msg.txt", "--out", ws / "out.txt"),
        "inject": ("--codeword", ws / "cw.txt", "--pattern", ws / "mixed.pat",
                   "--out", ws / "out.txt"),
        "decode": ("--received", ws / "recv.txt"),
        "lift": ("--codeword", ws / "cw.txt", "--out", ws / "out.txt"),
    }[command]
    code, out, err = run(capsys, command, "--spec", ws / "ref.spec", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and reason in err
    assert not (ws / "out.txt").exists()


def test_out_of_memory_exits_3(ws, capsys, monkeypatch):
    # the exact scan asks for q^(mk) message codes; stand in for the
    # allocation failure instead of allocating for real
    from rankloc.codes import _EvaluationCode

    def no_memory(self, budget):
        raise MemoryError

    monkeypatch.setattr(_EvaluationCode, "message_codes", no_memory)
    code, out, err = run(
        capsys, "verify", "--spec", ws / "ref.spec", "--mode", "exact",
        "--budget", "100000000000",
    )
    assert code == 3
    assert out == "d_bound=5\ngood_poly_per_rack=1,w^119,w^238\n"
    assert err == "error: out of memory at --budget 100000000000; lower the budget\n"


def test_sampled_out_of_memory_names_samples(ws, capsys, monkeypatch):
    # the sampled estimate draws --samples messages at once; stand in for
    # the allocation failure instead of allocating for real
    import rankloc.cli

    def no_memory(code, samples, seed):
        raise MemoryError

    monkeypatch.setattr(rankloc.cli, "sampled_min_ranks", no_memory)
    code, out, err = run(
        capsys, "verify", "--spec", ws / "ref.spec", "--mode", "sampled",
        "--samples", "100000000000",
    )
    assert code == 3
    assert out == "d_bound=5\ngood_poly_per_rack=1,w^119,w^238\n"
    assert err == "error: out of memory at --samples 100000000000; lower the sample count\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_refuses_samples_below_one(ws, capsys, samples):
    # up front in both modes, as --budget is, though exact mode samples nothing
    for mode in ("exact", "sampled"):
        code, out, err = run(
            capsys, "verify", "--spec", ws / "tiny.spec", "--mode", mode, "--samples", samples,
        )
        assert (code, out) == (3, "")
        assert err == f"error: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_verify_refuses_budget_below_one(ws, capsys, mode, budget):
    code, out, err = run(
        capsys, "verify", "--spec", ws / "tiny.spec", "--mode", mode, "--budget", budget,
    )
    assert (code, out) == (3, "")
    assert err == f"error: --budget must be at least 1, got {budget}\n"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_simulate_refuses_budget_below_one(ws, capsys, budget):
    code, out, err = run(
        capsys, "simulate", "--spec", ws / "tiny.spec", "--rack", "1", "--collect", "3",
        "--budget", budget,
    )
    assert (code, out) == (3, "")
    assert err == f"error: --budget must be at least 1, got {budget}\n"


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_seed_outside_64_bits_refused(ws, capsys, command, seed):
    # verify refuses as simulate does, instead of reducing the seed mod 2^64
    argv = ("--mode", "sampled") if command == "verify" else ("--rack", "1", "--collect", "3")
    code, out, err = run(capsys, command, "--spec", ws / "tiny.spec", *argv, "--seed", seed)
    assert (code, out) == (3, "")
    assert err == "error: seed must fit in 64 bits\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_simulate_refuses_trials_below_one(ws, capsys, trials):
    code, out, err = run(
        capsys, "simulate", "--spec", ws / "tiny.spec", "--rack", "1", "--collect", "3",
        "--trials", trials,
    )
    assert code == 3 and out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"

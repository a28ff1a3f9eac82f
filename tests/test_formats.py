"""Text formats: spec files, codewords, patterns, received grids, subspaces."""

import numpy as np
import pytest

from rankloc import gf
from rankloc.formats import (
    CodeSpec,
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
from rankloc.gf import Field, FieldSpec
from rankloc.rng import SplitMix64
from rankloc.subspace import rcef

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


# ---------------------------------------------------------------------------
# spec files


def test_spec_round_trip_and_fingerprint():
    spec = CodeSpec.from_text(REFERENCE_SPEC)
    assert (spec.q, spec.m, spec.n, spec.k, spec.r, spec.delta) == (2, 9, 9, 4, 2, 2)
    assert spec.modulus == (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    assert spec.basis_a == ("1", "w^73", "w^146")
    assert spec.canonical_text() == REFERENCE_SPEC
    assert CodeSpec.from_text(spec.canonical_text()) == spec
    # frozen: any change to the canonical text is a format break
    assert spec.fingerprint() == "6a0a39270873"


def test_spec_parsing_tolerates_noise():
    noisy = "# a comment\n\n  q = 2\nm=6\nn=6\nk=2\nr=1\ndelta=2\n"
    spec = CodeSpec.from_text(noisy)
    assert spec == CodeSpec.from_text(TINY_SPEC)
    assert spec.fingerprint() == CodeSpec.from_text(TINY_SPEC).fingerprint()


def test_spec_error_reporting():
    with pytest.raises(FormatError, match="missing key 'delta'"):
        CodeSpec.from_text("q=2\nm=6\nn=6\nk=2\nr=1\n")
    with pytest.raises(FormatError, match="line 2: unknown key"):
        CodeSpec.from_text("q=2\nbogus=1\nm=6\nn=6\nk=2\nr=1\ndelta=2\n")
    with pytest.raises(FormatError, match="line 1: q must be an integer"):
        CodeSpec.from_text("q=two\nm=6\nn=6\nk=2\nr=1\ndelta=2\n")
    with pytest.raises(FormatError, match="modulus"):
        CodeSpec.from_text(TINY_SPEC + "modulus=1,x,1\n")
    with pytest.raises(FormatError, match="duplicate"):
        CodeSpec.from_text("q=2\nq=3\nm=6\nn=6\nk=2\nr=1\ndelta=2\n")


def test_spec_build_reference(example2_code):
    code = CodeSpec.from_text(REFERENCE_SPEC).build()
    f = code.field
    assert [f.log_omega(p) for p in code.eval_points] == [
        f2.log_omega(p) for f2, p in zip([example2_code.field] * 9, example2_code.eval_points)
    ]


def test_spec_build_defaults():
    code = CodeSpec.from_text(TINY_SPEC).build()
    p = code.params
    assert (p.q, p.m, p.r, p.delta) == (2, 6, 1, 2)


def test_spec_build_makes_one_field(tmp_path, monkeypatch, example2_code, tiny_code):
    # the field the spec builds is the one the tower and the code use
    init = Field.__init__
    fields = []

    def counting(self, *args, **kwargs):
        fields.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(gf.Field, "__init__", counting)
    for name, text, same in (
        ("ref", REFERENCE_SPEC, example2_code),
        ("tiny", TINY_SPEC, tiny_code),
    ):
        path = tmp_path / f"{name}.spec"
        path.write_text(text)
        fields.clear()
        code = load_code_spec(str(path)).build()
        assert fields == [code.field]
        assert code.tower.field is code.field
        assert code.eval_points == same.eval_points
        assert np.array_equal(code.generator_gfq(), same.generator_gfq())


def test_load_and_atomic_write(tmp_path):
    path = tmp_path / "code.spec"
    atomic_write(str(path), TINY_SPEC)
    assert path.read_text() == TINY_SPEC
    spec = load_code_spec(str(path))
    assert spec.n == 6
    # atomic_write replaces, never appends
    atomic_write(str(path), REFERENCE_SPEC)
    assert load_code_spec(str(path)).n == 9
    assert not list(tmp_path.glob(".code.spec*"))  # no temp droppings


def test_fingerprint_check():
    text = "# spec-fingerprint: abc123\ndata\n"
    check_fingerprint(text, "abc123")
    with pytest.raises(FormatError, match="spec mismatch"):
        check_fingerprint(text, "def456")
    check_fingerprint("no header here\n", "abc123")  # absent prints no claim


# ---------------------------------------------------------------------------
# codeword and message files


def test_codeword_round_trip_all_forms(example2_field):
    f = example2_field
    rng = SplitMix64(601)
    elements = [rng.randbelow(f.order) for _ in range(9)]
    text = format_codeword(f, elements, fingerprint="6a0a39270873", spec_name="x.spec")
    assert text.startswith("# rankloc codeword format 1")
    assert "# spec-fingerprint: 6a0a39270873" in text
    assert parse_codeword(text, f, 9) == elements  # both blocks, cross-checked

    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    element_only = "\n".join(lines[:9]) + "\n"
    matrix_only = "\n".join(lines[9:]) + "\n"
    assert parse_codeword(element_only, f, 9) == elements
    assert parse_codeword(matrix_only, f, 9) == elements


def test_codeword_disagreement_detected(example2_field):
    f = example2_field
    elements = [f.omega_pow(i) for i in range(9)]
    text = format_codeword(f, elements)
    lines = text.splitlines()
    # flip one matrix digit
    for i, line in enumerate(lines):
        if line and not line.startswith("#") and len(line) == 9 and line.isdigit():
            lines[i] = ("1" if line[0] == "0" else "0") + line[1:]
            break
    with pytest.raises(FormatError, match="disagree"):
        parse_codeword("\n".join(lines) + "\n", f, 9)


def test_codeword_shape_errors(example2_field):
    f = example2_field
    with pytest.raises(FormatError, match="found 2 data lines"):
        parse_codeword("w^1\nw^2\n", f, 9)
    with pytest.raises(FormatError, match="line 1"):
        parse_codeword("\n".join(["z"] * 9) + "\n", f, 9)


def test_message_round_trip(example2_field):
    f = example2_field
    msg = [f.omega_pow(e) for e in (1, 2, 4, 8)]
    text = "# rankloc message format 1\n" + "".join(f"w^{e}\n" for e in (1, 2, 4, 8))
    assert parse_message(text, f, 4) == msg
    with pytest.raises(FormatError, match="expected 4"):
        parse_message(text + "w^3\n", f, 4)


# ---------------------------------------------------------------------------
# patterns and received grids


def test_pattern_parsing():
    text = "# demo\n" + "\n".join(
        ["?" * 6] + ["..E..."] + ["." * 6] * 4
    ) + "\n"
    erased, errored = parse_pattern(text, 6, 6)
    assert erased[0].all() and erased.sum() == 6
    assert errored[1, 2] == 1 and errored.sum() == 1
    with pytest.raises(FormatError, match="bad pattern character"):
        parse_pattern("x" * 6 + "\n" + "\n".join(["." * 6] * 5), 6, 6)
    with pytest.raises(FormatError, match="expected 6 pattern rows"):
        parse_pattern("." * 6, 6, 6)


def test_error_values_sidecar(example2_field):
    f = example2_field
    errored = np.zeros((9, 9), dtype=np.uint8)
    errored[2, 3] = errored[5, 1] = 1
    values = parse_error_values("1\n1\n", f, errored)
    assert values[2, 3] == 1 and values[5, 1] == 1 and values.sum() == 2
    with pytest.raises(FormatError, match="expected 2 error values"):
        parse_error_values("1\n", f, errored)
    with pytest.raises(FormatError, match="base-field"):
        parse_error_values("w^3\n1\n", f, errored)


def test_received_round_trip():
    rng = SplitMix64(607)
    values = np.array(
        [[rng.randbelow(2) for _ in range(6)] for _ in range(6)], dtype=np.uint8
    )
    erased = np.zeros((6, 6), dtype=np.uint8)
    erased[0, :3] = 1
    values[erased.astype(bool)] = 0
    text = format_received(values, erased, fingerprint="cafe00000000")
    got_vals, got_erased = parse_received(text, 2, 6, 6)
    assert (got_vals == values).all() and (got_erased == erased).all()
    with pytest.raises(FormatError, match="bad received character"):
        parse_received("2" * 6 + "\n" + "\n".join(["0" * 6] * 5) + "\n", 2, 6, 6)


# ---------------------------------------------------------------------------
# subspace files


def test_subspace_round_trip(tiny_code):
    mats = tiny_code.field.matrix_batch(tiny_code.codeword_codes())
    basis = rcef(np.vstack([np.eye(6, dtype=np.uint8), mats[77]]).reshape(12, 6))
    text = format_subspace(basis, fingerprint="cafe00000000", spec_name="tiny.spec")
    lines = text.splitlines()
    assert lines[:4] == [
        "# rankloc subspace format 1",
        "# spec: tiny.spec",
        "# spec-fingerprint: cafe00000000",
        "M=12 dim=6",
    ]
    # the basis reads back from its rows, one digit a cell
    assert np.array_equal(np.array([[int(ch) for ch in row] for row in lines[4:]]), basis)


# ---------------------------------------------------------------------------
# malformed input: every parser refuses with FormatError, never a bare
# ValueError or IndexError, and names the line when one line is at fault

SUPERSCRIPT_TWO = "\u00b2"  # isdigit() is true, int() refuses it
ARABIC_THREE = "\u0663"  # int() reads it as 3

_F2 = Field(FieldSpec.default(2, 3))
_TWO_ERRORS = np.array([[1, 0, 0], [0, 0, 1]], dtype=np.uint8)


def _spec(line):
    return TINY_SPEC.replace("q=2\n", line + "\n")


_PARSERS = {
    "spec": CodeSpec.from_text,
    "codeword": lambda text: parse_codeword(text, _F2, 2),
    "message": lambda text: parse_message(text, _F2, 2),
    "pattern": lambda text: parse_pattern(text, 2, 3),
    "errors": lambda text: parse_error_values(text, _F2, _TWO_ERRORS),
    "received": lambda text: parse_received(text, 5, 2, 3),
}

_MALFORMED = [
    ("spec", "width", "modulus=1,,1\n" + TINY_SPEC, "line 1: modulus"),
    ("spec", "rows", "q=2\nm=6\n", "missing key 'n'"),
    ("spec", "bad", _spec("q=2x"), "line 1: q must be an integer"),
    ("spec", "superscript", _spec("q=" + SUPERSCRIPT_TWO), "line 1: q must"),
    ("spec", "arabic", _spec("q=" + ARABIC_THREE), "line 1: q must"),
    ("spec", "q_over_36", _spec("q=37"), "line 1: q=37 exceeds 36"),
    # codewords of n=2 over GF(2^3): 2 element lines or a 3 x 2 digit block
    ("codeword", "width", "01\n011\n10\n", "line 2: expected 2 matrix characters"),
    ("codeword", "rows", "01\n10\n11\n00\n", "found 4 data lines"),
    ("codeword", "bad", "01\n0x\n10\n", "line 2: bad matrix character 'x'"),
    ("codeword", "superscript", "01\n1" + SUPERSCRIPT_TWO + "\n10\n",
     "line 2: bad matrix"),
    ("codeword", "arabic", "01\n10\n" + ARABIC_THREE + "0\n", "line 3: bad matrix"),
    ("codeword", "arabic_element", "w^1\nw^" + ARABIC_THREE + "\n", "line 2: cannot parse"),
    ("message", "width", "w^1\n0101\n", "line 2: cannot parse"),
    ("message", "rows", "w^1\nw^2\nw^3\n", "expected 2 message elements, found 3"),
    ("message", "bad", "w^x\nw^2\n", "line 1: "),
    ("message", "superscript", "w^1\nw^" + SUPERSCRIPT_TWO + "\n", "line 2: "),
    ("message", "arabic", "# m\nw^" + ARABIC_THREE + "\nw^2\n", "line 2: cannot parse"),
    ("pattern", "width", "...\n..\n", "line 2: expected 3 pattern characters"),
    ("pattern", "rows", "...\n", "expected 2 pattern rows, found 1"),
    ("pattern", "bad", "...\n.x.\n", "line 2: bad pattern character 'x'"),
    ("pattern", "superscript", SUPERSCRIPT_TWO + "..\n...\n", "line 1: bad pattern"),
    ("pattern", "arabic", "...\n" + ARABIC_THREE + "..\n", "line 2: bad pattern"),
    ("errors", "width", "1\n0101\n", "line 2: cannot parse"),
    ("errors", "rows", "1\n", "expected 2 error values, found 1"),
    ("errors", "bad", "1\nw^x\n", "line 2: "),
    ("errors", "superscript", SUPERSCRIPT_TWO + "\n1\n", "line 1: "),
    ("errors", "arabic", "1\n" + ARABIC_THREE + "\n", "line 2: cannot parse"),
    ("received", "width", "012\n34\n", "line 2: expected 3 received characters"),
    ("received", "rows", "012\n", "expected 2 received rows, found 1"),
    ("received", "bad", "012\n3?5\n", "line 2: bad received character '5'"),
    ("received", "superscript", "0" + SUPERSCRIPT_TWO + "2\n???\n",
     "line 1: bad received character"),
    ("received", "arabic", "012\n?" + ARABIC_THREE + "?\n", "line 2: bad received"),
    # int() also reads underscores and signs; integers are ASCII digits only
    ("spec", "underscore", _spec("q=1_6"), "line 1: q must be an integer"),
    ("spec", "sign", _spec("q=+16"), "line 1: q must be an integer"),
    ("message", "underscore", "w^1_0\nw^2\n", "line 1: expected ASCII digits"),
    ("message", "sign", "w^1\nw^+3\n", "line 2: expected ASCII digits"),
    ("message", "comma_sign", "w^1\n1,+0,1\n", "line 2: expected ASCII digits"),
]


@pytest.mark.parametrize(
    "parser, text, reason",
    [pytest.param(parser, text, reason, id=f"{parser}-{kind}")
     for parser, kind, text, reason in _MALFORMED],
)
def test_malformed_input_raises_format_error(parser, text, reason):
    with pytest.raises(ValueError) as exc:
        _PARSERS[parser](text)
    assert type(exc.value) is FormatError
    assert reason in str(exc.value)

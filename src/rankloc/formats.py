"""Text file formats for code specs, codewords, patterns, and subspaces.

Everything is line-oriented text so golden files diff cleanly.  Files
produced by the CLI embed a fingerprint of the canonical code-spec text;
consumers reject mixed-spec inputs when both sides carry fingerprints.
Parsers report the offending line number on malformed input.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .codes import LocalRankCode, build_code
from .gf import Field, FieldSpec, parse_uint

SPEC_FORMAT_VERSION = "1"

_SPEC_KEYS = ("q", "m", "n", "k", "r", "delta")
_SPEC_OPTIONAL = ("modulus", "basisA", "basisB")


class FormatError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# the one grid alphabet: symbol v of GF(q) is written _DIGITS[v], so a grid
# row holds one character per cell for every q <= 36
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _data_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped line) of every non-blank, non-comment line."""
    stripped = (raw.strip() for raw in text.splitlines())
    return [
        (lineno, line)
        for lineno, line in enumerate(stripped, start=1)
        if line and not line.startswith("#")
    ]


def _check_count(found: int, expected: int, what: str) -> None:
    if found != expected:
        raise FormatError(f"expected {expected} {what}, found {found}")


def _read_elements(lines: list[tuple[int, str]], field: Field) -> list[int]:
    out = []
    for lineno, line in lines:
        try:
            out.append(field.parse_element(line))
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
    return out


def _read_grid(
    lines: list[tuple[int, str]], width: int, alphabet: str, name: str
) -> np.ndarray:
    """Fixed-width character rows as a (rows, width) array of alphabet indices."""
    rows = []
    for lineno, line in lines:
        if len(line) != width:
            raise FormatError(f"expected {width} {name} characters", lineno)
        bad = next((ch for ch in line if ch not in alphabet), None)
        if bad is not None:
            raise FormatError(f"bad {name} character {bad!r}", lineno)
        rows.append([alphabet.index(ch) for ch in line])
    return np.array(rows, dtype=np.uint8).reshape(len(rows), width)


def _grid_row(row) -> str:
    return "".join(_DIGITS[v] for v in row)


def _read_kv_lines(text: str) -> tuple[dict[str, str], dict[str, int]]:
    values: dict[str, str] = {}
    where: dict[str, int] = {}
    for lineno, line in _data_lines(text):
        if "=" not in line:
            raise FormatError("expected key=value", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise FormatError(f"duplicate key {key!r}", lineno)
        values[key] = value
        where[key] = lineno
    return values, where


@dataclass(frozen=True)
class CodeSpec:
    """Parsed contents of a code-spec file."""

    q: int
    m: int
    n: int
    k: int
    r: int
    delta: int
    modulus: tuple[int, ...] | None = None
    basis_a: tuple[str, ...] | None = None
    basis_b: tuple[str, ...] | None = None

    @classmethod
    def from_text(cls, text: str) -> "CodeSpec":
        values, where = _read_kv_lines(text)
        unknown = set(values) - set(_SPEC_KEYS) - set(_SPEC_OPTIONAL)
        if unknown:
            key = sorted(unknown)[0]
            raise FormatError(f"unknown key {key!r}", where[key])
        nums = {}
        for key in _SPEC_KEYS:
            if key not in values:
                raise FormatError(f"missing key {key!r}")
            try:
                nums[key] = parse_uint(values[key])
            except ValueError:
                raise FormatError(f"{key} must be an integer", where[key]) from None
        if nums["q"] > len(_DIGITS):
            raise FormatError(
                f"q={nums['q']} exceeds {len(_DIGITS)}: grids write one"
                " character per symbol, 0-9a-z",
                where["q"],
            )
        modulus = None
        if "modulus" in values:
            try:
                modulus = tuple(parse_uint(c) for c in values["modulus"].split(","))
            except ValueError:
                raise FormatError(
                    "modulus must be comma-separated integers", where["modulus"]
                ) from None
        basis_a = basis_b = None
        if "basisA" in values:
            basis_a = tuple(part.strip() for part in values["basisA"].split(","))
        if "basisB" in values:
            basis_b = tuple(part.strip() for part in values["basisB"].split(","))
        return cls(
            q=nums["q"], m=nums["m"], n=nums["n"], k=nums["k"], r=nums["r"],
            delta=nums["delta"], modulus=modulus, basis_a=basis_a, basis_b=basis_b,
        )

    def canonical_text(self) -> str:
        lines = [f"{key}={getattr(self, key)}" for key in _SPEC_KEYS]
        if self.modulus is not None:
            lines.append("modulus=" + ",".join(str(c) for c in self.modulus))
        if self.basis_a is not None:
            lines.append("basisA=" + ",".join(self.basis_a))
        if self.basis_b is not None:
            lines.append("basisB=" + ",".join(self.basis_b))
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]

    def build(self) -> LocalRankCode:
        if self.modulus is not None:
            f = Field(FieldSpec(self.q, self.m, self.modulus))
        else:
            f = Field(FieldSpec.default(self.q, self.m))
        basis_a = basis_b = None
        if self.basis_a is not None:
            basis_a = [f.parse_element(el) for el in self.basis_a]
        if self.basis_b is not None:
            basis_b = [f.parse_element(el) for el in self.basis_b]
        return build_code(
            self.q, self.m, self.n, self.k, self.r, self.delta,
            field=f, basis_a=basis_a, basis_b=basis_b,
        )


def load_code_spec(path: str) -> CodeSpec:
    with open(path, encoding="utf-8") as fh:
        return CodeSpec.from_text(fh.read())


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rankloc-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(kind: str, fingerprint: str | None, spec_name: str | None) -> list[str]:
    lines = [f"# rankloc {kind} format {SPEC_FORMAT_VERSION}"]
    if spec_name:
        lines.append(f"# spec: {spec_name}")
    if fingerprint:
        lines.append(f"# spec-fingerprint: {fingerprint}")
    return lines


def _scan_fingerprint(text: str) -> str | None:
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#") and "spec-fingerprint:" in line:
            return line.split("spec-fingerprint:", 1)[1].strip()
    return None


def check_fingerprint(text: str, expected: str) -> None:
    found = _scan_fingerprint(text)
    if found is not None and found != expected:
        raise FormatError("spec mismatch")


# ---------------------------------------------------------------------------
# Codeword files: n element lines, an m x n digit-matrix block, or both.


def format_codeword(
    field: Field,
    elements: list[int],
    fingerprint: str | None = None,
    spec_name: str | None = None,
) -> str:
    lines = _header("codeword", fingerprint, spec_name)
    lines.append(f"# columns: {len(elements)} elements of GF({field.q}^{field.m})")
    lines.extend(field.format_element(c) for c in elements)
    mat = field.to_matrix(elements)
    lines.append(f"# matrix: {mat.shape[0]} x {mat.shape[1]} over GF({field.q}),"
                 " column t expands element t (low coefficient first)")
    lines.extend(_grid_row(row) for row in mat)
    return "\n".join(lines) + "\n"


def parse_codeword(text: str, field: Field, n: int) -> list[int]:
    """Accept element lines, a digit-matrix block, or both (cross-checked)."""
    lines = _data_lines(text)
    m = field.m

    def parse_matrix(rows: list[tuple[int, str]]) -> list[int]:
        return field.from_matrix(_read_grid(rows, n, _DIGITS[: field.q], "matrix"))

    if len(lines) == n + m:
        elements = _read_elements(lines[:n], field)
        if elements != parse_matrix(lines[n:]):
            raise FormatError(
                "element lines disagree with matrix block", lines[n][0]
            )
        return elements
    if len(lines) == n and not all(
        len(line) == n and all(ch in _DIGITS for ch in line) for _, line in lines
    ):
        return _read_elements(lines, field)
    if len(lines) == m:
        return parse_matrix(lines)
    if len(lines) == n:
        return _read_elements(lines, field)
    raise FormatError(
        f"expected {n} element lines, {m} matrix rows, or both;"
        f" found {len(lines)} data lines"
    )


def parse_message(text: str, field: Field, k: int) -> list[int]:
    entries = _read_elements(_data_lines(text), field)
    _check_count(len(entries), k, "message elements")
    return entries


# ---------------------------------------------------------------------------
# Pattern files: m lines of n characters, '.' ok / '?' erased / 'E' errored.


def parse_pattern(text: str, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Returns (erasure mask, error-location mask)."""
    grid = _read_grid(_data_lines(text), n, ".?E", "pattern")
    _check_count(len(grid), m, "pattern rows")
    return (grid == 1).astype(np.uint8), (grid == 2).astype(np.uint8)


def parse_error_values(
    text: str, field: Field, errored: np.ndarray
) -> np.ndarray:
    """Sidecar element list, one value per 'E' cell in row-major order."""
    lines = _data_lines(text)
    values = _read_elements(lines, field)
    for (lineno, _), code in zip(lines, values):
        if field.m != 1 and code >= field.q:
            raise FormatError("error values are base-field symbols", lineno)
    cells = np.argwhere(errored)
    _check_count(len(values), len(cells), "error values")
    out = np.zeros_like(errored)
    for (i, j), v in zip(cells, values):
        out[i, j] = v
    return out


# ---------------------------------------------------------------------------
# Received files: m lines of n characters, digits or '?' for erased cells.


def format_received(
    values: np.ndarray,
    erased: np.ndarray,
    fingerprint: str | None = None,
    spec_name: str | None = None,
) -> str:
    lines = _header("received", fingerprint, spec_name)
    m, n = values.shape
    lines.append(f"# {m} x {n} over GF(q); '?' marks an erased cell")
    for i in range(m):
        lines.append(
            "".join("?" if erased[i, j] else _DIGITS[values[i, j]] for j in range(n))
        )
    return "\n".join(lines) + "\n"


def parse_received(text: str, q: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    digits = _DIGITS[:q]
    grid = _read_grid(_data_lines(text), n, digits + "?", "received")
    _check_count(len(grid), m, "received rows")
    erased = grid == len(digits)
    return np.where(erased, 0, grid).astype(np.uint8), erased.astype(np.uint8)


# ---------------------------------------------------------------------------
# Subspace files: header M=<int> dim=<int>, then M rows of dim digits.


def format_subspace(
    basis: np.ndarray, fingerprint: str | None = None, spec_name: str | None = None
) -> str:
    ambient, dim = basis.shape
    lines = _header("subspace", fingerprint, spec_name)
    lines.append(f"M={ambient} dim={dim}")
    lines.extend(_grid_row(row) for row in basis)
    return "\n".join(lines) + "\n"

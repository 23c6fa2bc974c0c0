"""Readers and writers for the spec-csv v1 and plmap v1 formats, plus run reports.

Floats are written with ``repr`` so save/load round trips are bit-exact. ``_rows``
reads a CSV input's bytes once, so pipes and FIFOs load like files, and parses them
with one ``np.loadtxt`` call or, where that declines, line by line (the only source
of parse errors). Each loader runs each check once on those rows; ``_line_no`` finds
a failing row's line. ``_text_file`` decodes CSV and JSON bytes; non-UTF-8 raises
``ParseError``.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import hashlib
import io
import itertools
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ClampedNegativeWarning, ParseError, ValidationError
from .maps import PLMap
from .spectrum import Spectrum

__all__ = [
    "SPEC_CSV_HEADER",
    "save_spectrum",
    "load_spectrum",
    "save_map",
    "load_map",
    "map_paths",
    "RunReport",
]

SPEC_CSV_HEADER = "# spec-csv v1"

_NEGATIVE_MODES = ("error", "clamp", "allow")


def _check_negative_mode(mode: str) -> None:
    if mode not in _NEGATIVE_MODES:
        raise ValidationError(f"negative mode must be one of {_NEGATIVE_MODES}, got {mode!r}")


@contextlib.contextmanager
def _text_file(path: str | os.PathLike, data: bytes):
    """``data``, read from ``path``, as UTF-8 text lines split as ``open`` splits
    them; bytes that do not decode raise ``ParseError``."""
    try:
        yield io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _data_lines(lines):
    """``(line number, stripped line)`` of each line that is neither blank nor ``#``."""
    for n, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield n, line


def _line_no(data: bytes, i: int) -> int:
    """The line number of data row ``i`` of ``data``, which decodes as UTF-8."""
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    return next(itertools.islice(_data_lines(lines), i, None))[0]


def _fast_rows(data: bytes, width: int) -> np.ndarray | None:
    """``data``'s rows parsed by ``np.loadtxt``, or None on no data row, a field
    ``loadtxt`` rejects (a blank or ``#`` line after the first data row included),
    a wrong field count or a non-finite value."""
    # np.loadtxt strips \x1c-\x1f around a field and float() does not.
    if any(space in data for space in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
        return None
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        head = next(_data_lines(lines), None)
        if head is None:
            return None
        rows = np.loadtxt(itertools.chain((head[1],), lines), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        return None
    return rows if rows.shape[1] == width and np.isfinite(rows).all() else None


def _rows(path: str | os.PathLike, width: int) -> tuple[np.ndarray, bytes]:
    """``path``'s rows of ``width`` comma-separated finite floats, blank and ``#`` lines
    skipped, and its bytes; the line reader parses what ``_fast_rows`` declines."""
    with open(path, "rb") as fh:
        data = fh.read()
    rows = _fast_rows(data, width)
    if rows is not None:
        return rows, data
    values: list[float] = []
    with _text_file(path, data) as lines:
        for n, line in _data_lines(lines):
            parts = line.split(",")
            if len(parts) != width:
                raise ParseError(f"{path}: line {n}: expected {width} fields, got {len(parts)}")
            try:
                values.extend(map(float, parts))
            except ValueError as exc:
                raise ParseError(f"{path}: line {n}: {exc}") from exc
    rows = np.array(values).reshape(-1, width)
    finite = np.isfinite(rows)
    if not finite.all():
        n = _line_no(data, int(np.argmin(finite)) // width)
        raise ParseError(f"{path}: line {n}: non-finite value")
    return rows, data


def _apply_negative(values: np.ndarray, data: bytes, negative: str, path) -> np.ndarray:
    """Apply the ``negative`` mode to ``values``, whose row ``i`` is data row
    ``i`` of ``data``, read from ``path``."""
    if negative == "allow" or not np.any(below := values < 0.0):
        return values
    if negative == "error":
        first = np.unravel_index(np.argmax(below), values.shape)
        raise ParseError(
            f"{path}: line {_line_no(data, first[0])}: negative value {float(values[first])!r} "
            "(pass negative='clamp' or 'allow' for computed data)"
        )
    message = f"{path}: clamped {int(np.count_nonzero(below))} negative values to 0"
    warnings.warn(message, ClampedNegativeWarning, stacklevel=3)
    return np.maximum(values, 0.0)


def load_json(path: str | os.PathLike, kind: type, what: str):
    """Read a UTF-8 JSON file whose top level must be of type ``kind``
    (``dict`` or ``list``); ``what`` names the file in error messages."""
    with open(path, "rb") as fh, _text_file(path, fh.read()) as lines:
        text = lines.read()
    try:
        value = json.loads(text)
        json.dumps(value, ensure_ascii=False).encode("utf-8")  # a lone \ud800 escape is not text
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid {what} JSON: {exc}") from exc
    if not isinstance(value, kind):
        raise ParseError(f"{path}: {what} must be a JSON {'object' if kind is dict else 'list'}")
    return value


def save_spectrum(s: Spectrum, path: str | os.PathLike) -> None:
    """Write a spectrum as spec-csv v1 (wavelength_nm,intensity rows)."""
    lines = [SPEC_CSV_HEADER]
    lines.extend(
        f"{w!r},{y!r}" for w, y in zip(s.wavelengths.tolist(), s.intensities.tolist())
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_spectrum(path: str | os.PathLike, *, negative: str = "error") -> Spectrum:
    """Read a spec-csv v1 file.

    ``negative`` controls how negative intensities are treated: ``"error"``
    rejects the file (raw measurements must be nonnegative), ``"clamp"`` sets
    them to zero with a warning, ``"allow"`` keeps them (use for computed
    difference spectra).
    """
    _check_negative_mode(negative)
    rows, data = _rows(path, 2)
    if not len(rows):
        raise ParseError(f"{path}: no data rows")
    w = rows[:, 0]
    stalls = np.flatnonzero(w[1:] <= w[:-1])
    if stalls.size:
        i = int(stalls[0]) + 1
        raise ParseError(
            f"{path}: line {_line_no(data, i)}: wavelength {float(w[i])!r} "
            f"does not increase past {float(w[i - 1])!r}"
        )
    return Spectrum(w, _apply_negative(rows[:, 1], data, negative, path))


def map_paths(path: str | os.PathLike) -> tuple[str, str]:
    """Resolve a plmap stem, .json, or .csv path to its (json, csv) pair."""
    p = str(path)
    for ext in (".json", ".csv"):
        if p.endswith(ext):
            p = p[: -len(ext)]
            break
    return p + ".json", p + ".csv"


def save_map(m: PLMap, path: str | os.PathLike) -> tuple[str, str]:
    """Write a map as plmap v1: a JSON sidecar plus a CSV grid of floats."""
    json_path, csv_path = map_paths(path)
    sidecar = {
        "format": "plmap",
        "version": 1,
        "width": m.width,
        "height": m.height,
        "pixel_pitch_um": m.pixel_pitch_um,
    }
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        for row in m.values:
            fh.write(",".join(repr(v) for v in row.tolist()) + "\n")
    return json_path, csv_path


def load_map(path: str | os.PathLike, *, negative: str = "allow") -> PLMap:
    """Read a plmap v1 map addressed by stem, sidecar, or CSV path.

    Negative pixels are allowed by default because unmixed maps carry
    diagnostic negatives; pass ``negative="error"`` for raw acquisitions.
    """
    _check_negative_mode(negative)
    json_path, csv_path = map_paths(path)
    sidecar = load_json(json_path, dict, "plmap sidecar")
    if sidecar.get("format") != "plmap" or sidecar.get("version") != 1:
        raise ParseError(f"{json_path}: not a plmap v1 sidecar")
    try:
        width = int(sidecar["width"])
        height = int(sidecar["height"])
        pitch = float(sidecar["pixel_pitch_um"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{json_path}: bad sidecar fields: {exc}") from exc
    if width < 1 or height < 1:
        raise ParseError(f"{json_path}: width and height must be positive")
    values, data = _rows(csv_path, width)
    if len(values) != height:
        raise ParseError(
            f"{csv_path}: expected {height} rows for a {width}x{height} map, got {len(values)}"
        )
    return PLMap(_apply_negative(values, data, negative, csv_path), pitch)


def _sha256(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunReport:
    """Record of one CLI run: inputs (with sha256 digests, None for an input that
    is not a regular file), effective parameters, produced outputs, and diagnostics."""

    command: str
    inputs: list[tuple[str, str | None]] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    timestamp: str = ""

    @classmethod
    def create(
        cls,
        command: str,
        input_paths: list[str],
        parameters: dict,
        outputs: list[str],
        diagnostics: dict,
    ) -> "RunReport":
        return cls(
            command=command,
            inputs=[(p, _sha256(p) if os.path.isfile(p) else None) for p in input_paths],
            parameters=dict(parameters),
            outputs=list(outputs),
            diagnostics=dict(diagnostics),
            timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        )

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": [list(pair) for pair in self.inputs],
            "parameters": self.parameters,
            "outputs": self.outputs,
            "diagnostics": self.diagnostics,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        parameters = d.get("parameters", {})
        diagnostics = d.get("diagnostics", {})
        if not (isinstance(parameters, dict) and isinstance(diagnostics, dict)):
            raise TypeError("parameters and diagnostics must be JSON objects")
        return cls(
            command=str(d.get("command", "")),
            inputs=[(path, digest) for path, digest in d.get("inputs", [])],
            parameters=dict(parameters),
            outputs=list(d.get("outputs", [])),
            diagnostics=dict(diagnostics),
            timestamp=str(d.get("timestamp", "")),
        )

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunReport":
        d = load_json(path, dict, "report")
        try:
            return cls.from_dict(d)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad report fields: {exc}") from exc

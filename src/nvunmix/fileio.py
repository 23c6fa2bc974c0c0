"""Readers and writers for the spec-csv v1 and plmap v1 formats, plus run reports.

Every CSV and JSON file the package writes is written here. ``save_csv``
writes equal-length float columns with ``repr``, so save/load round trips are
bit-exact, formatting at most ``_WRITE_VALUES`` values (or one row) per write;
``save_json`` writes every JSON file. ``_read`` reads an input's bytes once, so
pipes and FIFOs load like files, and checks once that they are UTF-8 (ASCII needs
no decode; other bytes are decoded once and the text dropped), naming the first
bad byte's absolute offset. ``_rows`` parses a CSV input's bytes with one
``np.loadtxt`` call or, where that declines, line by line (the only source of parse
errors). Each loader runs each check once on those rows; ``_line_no`` finds a
failing row's line.
"""

from __future__ import annotations

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


_WRITE_VALUES = 1024  # values save_csv formats per write (one row at least)


def save_csv(path: str | os.PathLike, header: str | None, columns) -> None:
    """Write equal-length float ``columns`` (1-D arrays, or the rows of a 2-D array)
    as comma-separated ``repr`` rows, after a ``header`` line unless it is None."""
    width, n = len(columns), len(columns[0])
    step = max(1, _WRITE_VALUES // width)
    row = ",".join(["%r"] * width) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for i in range(0, n, step):
            if isinstance(columns, np.ndarray):  # one slice, not one per column of a wide map
                block = columns[:, i:i + step].T
            else:
                block = np.stack([c[i:i + step] for c in columns], axis=1)
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def save_json(path: str | os.PathLike, value) -> None:
    """Write ``value`` as JSON with sorted keys and two-space indents."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read(path: str | os.PathLike) -> bytes:
    """``path``'s bytes, read once; bytes that are not UTF-8 raise ``ParseError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return data


def _data_lines(lines):
    """``(line number, stripped line)`` of each line that is neither blank nor ``#``."""
    for n, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield n, line


def _line_no(data: bytes, i: int) -> int:
    """The line number of data row ``i`` of ``data``, which is UTF-8."""
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
    except ValueError:
        return None
    return rows if rows.shape[1] == width and np.isfinite(rows).all() else None


def _rows(path: str | os.PathLike, width: int) -> tuple[np.ndarray, bytes]:
    """``path``'s rows of ``width`` comma-separated finite floats, blank and ``#`` lines
    skipped, and its bytes; the line reader parses what ``_fast_rows`` declines."""
    data = _read(path)
    rows = _fast_rows(data, width)
    if rows is not None:
        return rows, data
    values: list[float] = []
    for n, line in _data_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")):
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
    text = _read(path).decode("utf-8")
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
    save_csv(path, SPEC_CSV_HEADER, (s.wavelengths, s.intensities))


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
    save_json(json_path, sidecar)
    save_csv(csv_path, None, m.values.T)
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
        width, height, pitch = (sidecar[k] for k in ("width", "height", "pixel_pitch_um"))
        pitch = float(pitch) if type(pitch) in (int, float) else None  # bool is not a number
    except (KeyError, OverflowError) as exc:
        raise ParseError(f"{json_path}: bad sidecar fields: {exc}") from exc
    if type(width) is not int or type(height) is not int or pitch is None:
        raise ParseError(
            f"{json_path}: width and height must be JSON integers, pixel_pitch_um a JSON number")
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

    def save(self, path: str | os.PathLike) -> None:
        save_json(path, vars(self))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunReport":
        d = load_json(path, dict, "report")
        r = cls(**{name: d.get(name, empty) for name, empty in vars(cls("")).items()})
        valid = {
            "command": isinstance(r.command, str),
            "inputs": isinstance(r.inputs, list) and all(
                isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
                and (p[1] is None or isinstance(p[1], str)) for p in r.inputs),
            "parameters": isinstance(r.parameters, dict),
            "outputs": isinstance(r.outputs, list) and all(isinstance(p, str) for p in r.outputs),
            "diagnostics": isinstance(r.diagnostics, dict),
            "timestamp": isinstance(r.timestamp, str),
        }
        bad = [name for name, ok in valid.items() if not ok]
        if bad:
            raise ParseError(f"{path}: bad report fields: {', '.join(bad)}")
        r.inputs = [(p, digest) for p, digest in r.inputs]
        return r

"""Readers and writers for the spec-csv v1 and plmap v1 formats, plus run reports.

Floats are written with ``repr`` so save/load round trips are bit-exact. Every
input file is opened by ``_text_file``, for the CSV row reader ``_read_rows`` or
for ``load_json``; a file that does not decode as UTF-8 raises ``ParseError``.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ClampedNegativeWarning, ParseError
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
        raise ValueError(f"negative mode must be one of {_NEGATIVE_MODES}, got {mode!r}")


@contextlib.contextmanager
def _text_file(path: str | os.PathLike):
    """Open a UTF-8 text file; bytes that do not decode raise ``ParseError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_rows(path: str | os.PathLike, width: int) -> tuple[list[int], np.ndarray]:
    """Parse the rows of ``width`` comma-separated finite floats in ``path``
    line by line, skipping blank and ``#`` lines; return each row's line
    number and the ``(rows, width)`` array."""
    line_nos: list[int] = []
    values: list[float] = []
    with _text_file(path) as fh:
        for n, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise ParseError(f"{path}: line {n}: expected {width} fields, got {len(parts)}")
            try:
                values.extend(map(float, parts))
            except ValueError as exc:
                raise ParseError(f"{path}: line {n}: {exc}") from exc
            line_nos.append(n)
    rows = np.array(values).reshape(len(line_nos), width)
    finite = np.isfinite(rows)
    if not finite.all():
        n = line_nos[int(np.argmin(finite)) // width]
        raise ParseError(f"{path}: line {n}: non-finite value")
    return line_nos, rows


def _apply_negative(values: np.ndarray, line_nos: list[int], negative: str, path) -> np.ndarray:
    """Apply the ``negative`` mode to ``values``, whose row ``i`` was read from
    line ``line_nos[i]`` of ``path``."""
    below = values < 0.0
    if negative == "allow" or not np.any(below):
        return values
    if negative == "error":
        first = np.unravel_index(np.argmax(below), values.shape)
        raise ParseError(
            f"{path}: line {line_nos[first[0]]}: negative value {float(values[first])!r} "
            "(pass negative='clamp' or 'allow' for computed data)"
        )
    message = f"{path}: clamped {int(np.count_nonzero(below))} negative values to 0"
    warnings.warn(message, ClampedNegativeWarning, stacklevel=3)
    return np.maximum(values, 0.0)


def load_json(path: str | os.PathLike, kind: type, what: str):
    """Read a UTF-8 JSON file whose top level must be of type ``kind``
    (``dict`` or ``list``); ``what`` names the file in error messages."""
    with _text_file(path) as fh:
        text = fh.read()
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
    line_nos, rows = _read_rows(path, 2)
    if not line_nos:
        raise ParseError(f"{path}: no data rows")
    w = rows[:, 0]
    stalls = np.flatnonzero(w[1:] <= w[:-1])
    if stalls.size:
        i = int(stalls[0]) + 1
        raise ParseError(
            f"{path}: line {line_nos[i]}: wavelength {float(w[i])!r} "
            f"does not increase past {float(w[i - 1])!r}"
        )
    return Spectrum(w, _apply_negative(rows[:, 1], line_nos, negative, path))


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
    line_nos, values = _read_rows(csv_path, width)
    if len(line_nos) != height:
        raise ParseError(
            f"{csv_path}: expected {height} rows for a {width}x{height} map, got {len(line_nos)}"
        )
    return PLMap(_apply_negative(values, line_nos, negative, csv_path), pitch)


def _sha256(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunReport:
    """Record of one CLI run: inputs (with hashes), effective parameters,
    produced outputs, and diagnostics."""

    command: str
    inputs: list[tuple[str, str]] = field(default_factory=list)
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
            inputs=[(p, _sha256(p)) for p in input_paths],
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

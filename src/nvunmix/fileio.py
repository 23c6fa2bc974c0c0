"""Readers and writers for the spec-csv v1 and plmap v1 formats, plus run reports.

Every file the package writes is opened here, by ``_replacing``. ``save_csv``
writes equal-length float columns as ``repr`` text, so save/load round trips are
bit-exact, formatting at most ``_WRITE_VALUES`` values (or one row) per write. orjson
formats each block whose values are all 0.0, -0.0 or finite with 1e-4 <= |x| < 1e16,
where its shortest round-trip text is byte-identical to ``repr``'s, and ``repr`` any
other block; importing orjson costs a process about 4 ms, once. ``_save_bytes``
writes ``render``'s bytes and every JSON file, which ``save_json`` serializes whole
before its file opens.
``_read`` reads an input's bytes once, so pipes and FIFOs load like files. Inside
a run's scope (``_run_log``) it logs each input with the sha256 of those bytes, in read
order, and ``_replacing`` each output, in write order: a CLI report lists these. It
checks once that they are UTF-8 (ASCII needs no decode; other bytes are decoded
once and the text dropped), naming the first bad byte's absolute offset. ``_rows``
parses a CSV input with one ``np.loadtxt`` call on those bytes (no decoded copy) or,
where it declines, line by line (the only source of parse errors), then refuses a
non-finite value once. Each loader runs each check once on those rows; ``_line_no``
finds a failing row's line.
"""

from __future__ import annotations

import contextlib
import contextvars
import datetime as _dt
import hashlib
import io
import itertools
import json
import math
import os
import re
import stat
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import ParseError, ValidationError
from .maps import PLMap
from .spectrum import Spectrum, _require_number

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

_NEGATIVE_MODES = ("error", "allow")


def _check_negative_mode(mode: str) -> None:
    if mode not in _NEGATIVE_MODES:
        raise ValidationError(f"negative mode must be one of {_NEGATIVE_MODES}, got {mode!r}")


def _replacing(path: str, flags: int) -> int:
    """``open``'s opener for every output: a regular file that this user owns and may write is
    unlinked and created anew with its mode bits; any other path opens as ``open`` opens it."""
    try:
        st = os.lstat(path)
        fresh = stat.S_ISREG(st.st_mode) and st.st_uid == os.geteuid() and os.access(path, os.W_OK)
        if fresh:
            os.unlink(path)
    except (OSError, AttributeError):  # no such path, or a refused unlink; no os.geteuid
        fresh = False
    fd = os.open(path, flags, 0o666)
    if (log := _LOG.get()) is not None:
        log.written.append(os.fspath(path))
    if fresh:
        os.fchmod(fd, stat.S_IMODE(st.st_mode))
    return fd


def _save_bytes(path: str | os.PathLike, data: bytes) -> None:
    with open(path, "wb", opener=_replacing) as fh:
        fh.write(data)


# Values save_csv formats per write (one row at least). orjson's output buffer grows by
# doubling, to about 3.5x a block's text, so a larger block raises the writers' peak memory.
_WRITE_VALUES = 512


def _csv_lines(block: np.ndarray, row: str) -> bytes:
    """The CSV lines of ``block``, a C-contiguous 2-D float64 array, each value as ``repr``
    writes it: by orjson when every value is 0.0, -0.0 or finite with 1e-4 <= |x| < 1e16, where
    its shortest round-trip text is ``repr``'s, else by ``row``, one ``%r`` line."""
    a = np.abs(block)
    if a.max() < 1e16 and ((a >= 1e-4) | (a == 0.0)).all():  # NaN fails the first test
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        return text[2:-2].replace(b"],[", b"\n") + b"\n"
    return (row * len(block) % tuple(block.ravel().tolist())).encode()


def save_csv(path: str | os.PathLike, header: str | None, columns) -> None:
    """Write equal-length float ``columns`` (1-D arrays, or the rows of a 2-D array)
    as comma-separated ``repr`` rows, after a ``header`` line unless it is None."""
    width, n = len(columns), len(columns[0])
    step = max(1, _WRITE_VALUES // width)
    row = ",".join(["%r"] * width) + "\n"
    with open(path, "wb", opener=_replacing) as fh:
        if header is not None:
            fh.write((header + "\n").encode())
        for i in range(0, n, step):
            if isinstance(columns, np.ndarray):  # one slice, not one per column of a wide map
                block = np.ascontiguousarray(columns[:, i:i + step].T)
            else:
                block = np.stack([c[i:i + step] for c in columns], axis=1)
            fh.write(_csv_lines(block, row))


def save_json(path: str | os.PathLike, value) -> None:
    """Write ``value`` as JSON with sorted keys and two-space indents; a NaN or infinite
    float, which JSON does not have, raises ``ValueError`` before ``path`` is opened."""
    text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    _save_bytes(path, (text + "\n").encode())


@dataclass
class _RunLog:
    """The files one run read, each with the sha256 of the bytes read, and wrote, in order."""

    read: list[tuple[str, str]] = field(default_factory=list)
    written: list[str] = field(default_factory=list)


_LOG = contextvars.ContextVar("_LOG", default=None)  # the run's _RunLog, or None


@contextlib.contextmanager
def _run_log():
    """A run's scope: yields the log to which ``_read`` and ``_replacing`` add its files."""
    token = _LOG.set(log := _RunLog())
    try:
        yield log
    finally:
        _LOG.reset(token)


def _read(path: str | os.PathLike) -> bytes:
    """``path``'s bytes, read once (and logged in a run); bytes not UTF-8 raise ``ParseError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if (log := _LOG.get()) is not None:
        log.read.append((os.fspath(path), hashlib.sha256(data).hexdigest()))
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
    """``data``'s rows parsed by ``np.loadtxt`` from the bytes, or None on no data row, a
    field ``loadtxt`` rejects (a blank or ``#`` line, or a lone ``\\r`` line end, after the
    first data row included), or a wrong field count."""
    # np.loadtxt strips \x1c-\x1f around a field and float() does not.
    if any(space in data for space in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
        return None
    for m in re.finditer(rb"[^\r\n]*(?:\r\n?|\n)?", data):  # lines split as TextIOWrapper splits
        line = m[0].decode("utf-8").strip()  # them, up to the first _data_lines keeps
        if line and line[0] != "#":
            break
    else:
        return None
    fh = io.BytesIO(data)  # shares data's buffer
    fh.seek(m.start())
    try:
        rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    return rows if rows.shape[1] == width else None


def _rows(path: str | os.PathLike, width: int) -> tuple[np.ndarray, bytes]:
    """``path``'s rows of ``width`` comma-separated finite floats, blank and ``#`` lines
    skipped, and its bytes; the line reader parses what ``_fast_rows`` declines, and one
    check after either parser names the line of a non-finite value."""
    data = _read(path)
    rows = _fast_rows(data, width)
    if rows is None:
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


def _refuse_negative(values: np.ndarray, data: bytes, negative: str, path) -> None:
    """Refuse a negative value in ``values``, whose row ``i`` is data row ``i`` of ``data``,
    read from ``path``, unless ``negative`` is ``"allow"``."""
    if negative == "error" and np.any(below := values < 0.0):
        first = np.unravel_index(np.argmax(below), values.shape)
        raise ParseError(
            f"{path}: line {_line_no(data, first[0])}: negative value {float(values[first])!r} "
            '(pass --negative allow, or negative="allow" in the library, for computed data)'
        )


def load_json(path: str | os.PathLike, spec):
    """The value of a UTF-8 JSON file, read by ``spec`` (see ``_from_json``)."""
    text = _read(path).decode("utf-8")
    try:
        value = json.loads(text)
        json.dumps(value, ensure_ascii=False).encode("utf-8")  # a lone \ud800 escape is not text
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return _from_json(value, spec, path)


_REQUIRED = object()  # a key spec default: the key must be set
_ABSENT = object()  # a key spec default: an unset key stays out of the result
_JSON_TYPES = {dict: "object", list: "list", float: "number", int: "integer", str: "string"}


def _from_json(value, spec, where, path: str = ""):
    """``value``, parsed from JSON, read by ``spec``; a mismatch raises one ``ParseError`` line
    naming ``where`` (the file) and the key path. Specs: ``float`` (a finite JSON number, never
    a bool), ``int``, ``str``, ``dict`` or ``list`` (any object or list, as it is); ``[spec]`` (a
    list of any length) or ``[spec, spec, ...]`` (one item per spec); ``{key: (spec, default)}``
    (an object of those keys only, an unset key refused if its default is ``_REQUIRED``, left
    out if ``_ABSENT``, else read as its default); ``(build, key spec)`` (``build(**keys)``,
    whose ``ValidationError`` becomes the ``ParseError`` line naming ``where`` and the path)."""
    at = f"{where}: {path}: " if path else f"{where}: "  # what a refusal names
    if spec is None or value is _REQUIRED:  # a key the key spec lacks, or a required key unset
        raise ParseError(at + ("unknown key" if spec is None else "missing required key"))
    if isinstance(spec, tuple):
        try:
            return spec[0](**_from_json(value, spec[1], where, path))
        except ValidationError as exc:  # build's own; a key's refusal is a ParseError already
            raise ParseError(f"{at}{exc}") from exc
    kind = type(spec) if isinstance(spec, (dict, list)) else spec
    if type(value) is not kind and (kind, type(value)) != (float, int):
        got = {dict: "a JSON object", list: "a JSON list"}.get(type(value)) or json.dumps(value)
        raise ParseError(f"{at}expected a JSON {_JSON_TYPES[kind]}, got {got}")
    if isinstance(spec, dict):
        keys = {key: (None, None) for key in value if key not in spec} | spec  # unknown ones first
        return {key: _from_json(value.get(key, default), item, where, _key_path(path, key))
                for key, (item, default) in keys.items() if key in value or default is not _ABSENT}
    if isinstance(spec, list):
        if len(spec) > 1 and len(value) != len(spec):
            raise ParseError(f"{at}expected a JSON list of {len(spec)} items, got {len(value)}")
        items = spec if len(spec) > 1 else itertools.repeat(spec[0])
        return [_from_json(v, s, where, f"{path}[{i}]")
                for i, (v, s) in enumerate(zip(value, items))]
    try:
        read = kind(value)
    except OverflowError:
        raise ParseError(f"{at}number beyond the float range") from None
    if kind is float and not math.isfinite(read):  # NaN, Infinity: Python's literals, not JSON's
        raise ParseError(f"{at}expected a JSON number, got {json.dumps(value)}")
    return read


def _key_path(path: str, key: str) -> str:
    key = key if key.isprintable() and key else json.dumps(key)  # one line, never empty
    return f"{path}.{key}" if path else key


def save_spectrum(s: Spectrum, path: str | os.PathLike) -> None:
    """Write a spectrum as spec-csv v1 (wavelength_nm,intensity rows)."""
    save_csv(path, SPEC_CSV_HEADER, (s.wavelengths, s.intensities))


def load_spectrum(path: str | os.PathLike, *, negative: str = "error") -> Spectrum:
    """Read a spec-csv v1 file.

    ``negative`` is the package's one nonnegativity check: ``"error"`` rejects
    a negative intensity (raw measurements must be nonnegative), ``"allow"``
    keeps it (computed spectra, such as ``decompose``'s outputs, are signed, and
    every computation takes them).
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
    _refuse_negative(rows[:, 1], data, negative, path)
    del data  # the file's bytes go before the Spectrum's copies are made
    return Spectrum(w, rows[:, 1])


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
    sidecar = load_json(json_path, {
        "format": (str, _REQUIRED), "version": (int, _REQUIRED), "width": (int, _REQUIRED),
        "height": (int, _REQUIRED), "pixel_pitch_um": (float, _REQUIRED)})
    if sidecar["format"] != "plmap" or sidecar["version"] != 1:
        raise ParseError(f"{json_path}: not a plmap v1 sidecar")
    width, height, pitch = (sidecar[k] for k in ("width", "height", "pixel_pitch_um"))
    if width < 1 or height < 1:
        raise ParseError(f"{json_path}: width and height must be positive")
    try:
        _require_number("pixel_pitch_um", pitch, "positive")
    except ValidationError as exc:
        raise ParseError(f"{json_path}: {exc}") from None
    values, data = _rows(csv_path, width)
    if len(values) != height:
        raise ParseError(
            f"{csv_path}: expected {height} rows for a {width}x{height} map, got {len(values)}"
        )
    _refuse_negative(values, data, negative, csv_path)
    return PLMap._of_fresh(values, pitch)


_REPORT_KEYS = {"command": (str, _REQUIRED), "inputs": ([[str, str]], _REQUIRED),
                "parameters": (dict, _REQUIRED), "outputs": ([str], _REQUIRED),
                "diagnostics": (dict, _REQUIRED), "timestamp": (str, _REQUIRED)}


@dataclass
class RunReport:
    """Record of one run: inputs (with the sha256 of the bytes the run read), parameters,
    outputs, and diagnostics, a NaN or infinite one recorded as None (JSON ``null``), so
    ``load`` refuses a report holding one. A CLI run's parameters are its command line and its
    inputs and outputs the files its log holds."""

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
        """A report of the run in progress; an input it has not read raises ``ValidationError``."""
        digests = dict(log.read) if (log := _LOG.get()) is not None else {}
        if unread := [p for p in input_paths if p not in digests]:
            raise ValidationError(f"{unread[0]}: not read in this run, so it has no digest")
        return cls(
            command=command,
            inputs=[(p, digests[p]) for p in input_paths],
            parameters=dict(parameters),
            outputs=list(outputs),
            diagnostics={key: None if isinstance(value, float) and not math.isfinite(value)
                         else value for key, value in diagnostics.items()},
            timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        )

    def save(self, path: str | os.PathLike) -> None:
        save_json(path, vars(self))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunReport":
        value = load_json(path, dict)
        try:
            json.dumps(value, allow_nan=False)  # reports are strict JSON, as save_json writes them
        except ValueError:
            raise ParseError(f"{path}: not a run report: holds a NaN or an infinity") from None
        r = _from_json(value, (cls, _REPORT_KEYS), f"{path}: not a run report")
        r.inputs = [(p, digest) for p, digest in r.inputs]
        return r

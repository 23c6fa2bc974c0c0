"""Mutation fuzzing of the CLI input boundary.

Each case starts from valid input files for one command, mutates one of them
(a flipped or inserted byte, a JSON value swapped for another, or a JSON key
renamed) and runs ``cli.main``: it must return a documented exit code, never
raise. In a file the typed JSON reader reads (a params file, a manifest or a
plmap sidecar), a renamed key, a value swapped for one of another JSON type,
and a count (``scans``, ``width``, ``height``) swapped for anything but a
positive integer must exit 2 with one line and write nothing.
Each case runs twice, the second time with ``fileio``'s ``np.loadtxt`` fast path
declined, and both runs must give the same exit code, stderr and warnings.
Mutations are single edits of small files so that no example can ask for a
large grid or map.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvunmix import Spectrum, fileio
from nvunmix.cli import main
from nvunmix.fileio import save_spectrum
from nvunmix.synth import make_spectrum

from conftest import CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE

_SPECTRUM = b"# spec-csv v1\n" + b"".join(
    b"%r,%r\n" % (600.0 + 10.0 * i, 1.0 + 0.25 * i) for i in range(11)
)
_SIDECAR = json.dumps(
    {"format": "plmap", "version": 1, "width": 3, "height": 2, "pixel_pitch_um": 0.1}
).encode()
_MAP_CSV = b"1.0,2.5,0.0\n4.0,-1.0,6.0\n"
_MANIFEST = json.dumps(
    [{"b_field_gauss": 170.0, "path": "low.csv"}, {"b_field_gauss": 975.0, "path": "high.csv"}]
).encode()
_PARAMS = json.dumps(
    {
        "shape": {"zpl_center": 637.0, "zpl_width": 1.7, "zpl_weight": 0.4,
                  "sidebands": [[660.0, 9.0, 0.6]]},
        "grid": {"lo": 600, "hi": 700, "step": 1},
        "total_counts": 100.0,
    }
).encode()
_SWEEP_PARAMS = json.dumps(
    {
        "grid": {"lo": 600, "hi": 700, "step": 1},
        "fields": [170.0, 975.0],
        "noise": {"kind": "poisson", "scans": 3, "dwell": 0.01},
    }
).encode()
_LETTER_PARAMS = json.dumps(
    {"width": 24, "height": 16, "pl_nv0": 8000.0, "t0": 0.3, "tminus": 0.8}
).encode()
_PAIR_PARAMS = json.dumps({"letter_map": {"width": 24, "height": 16}, "suppression": 0.25}).encode()
_REPORT = json.dumps(
    {
        "command": "decompose",
        "inputs": [["low.csv", "ab" * 32]],
        "parameters": {"f_range": "1:50", "negative": "error"},
        "outputs": ["nv0.csv", "nvm.csv"],
        "diagnostics": {"f": 6.2, "f_at_bound": False},
        "timestamp": "2026-01-01T00:00:00+00:00",
    }
).encode()

# kind: (file mutated, its valid contents, command line with {d} for the directory)
CASES = {
    "spec-csv": ("s.csv", _SPECTRUM, ["transmissivity", "--spectrum", "{d}/s.csv",
                                      "--window", "600:700"]),
    "plmap-sidecar": ("m.json", _SIDECAR, ["render", "--map", "{d}/m", "--out", "{d}/m.pgm"]),
    "plmap-csv": ("m.csv", _MAP_CSV, ["render", "--map", "{d}/m", "--out", "{d}/m.pgm"]),
    "manifest": ("manifest.json", _MANIFEST, [
        "fit-series", "--basis-nv0", "{d}/b0.csv", "--basis-nvm", "{d}/bm.csv",
        "--series", "{d}/manifest.json", "--out-table", "{d}/table.csv",
        "--out-surface", "{d}/surface.csv"]),
    "params": ("p.json", _PARAMS, ["simulate", "spectrum", "--params", "{d}/p.json",
                                   "--out", "{d}/sim"]),
    "sweep-params": ("sw.json", _SWEEP_PARAMS, ["simulate", "sweep", "--params", "{d}/sw.json",
                                                "--out", "{d}/sweep"]),
    "letter-params": ("lm.json", _LETTER_PARAMS, ["simulate", "letter-map", "--params",
                                                  "{d}/lm.json", "--out", "{d}/letters"]),
    "pair-params": ("fp.json", _PAIR_PARAMS, ["simulate", "field-map-pair", "--params",
                                              "{d}/fp.json", "--out", "{d}/pair"]),
    "report": ("r.json", _REPORT, ["report", "--run", "{d}/r.json"]),
}
_TYPED = set(CASES) - {"spec-csv", "plmap-csv", "report"}  # files the typed JSON reader reads

_SWAP_VALUES = [None, True, 0, -1, 2.5, "x", [], {}, [1.0], {"a": 1}]


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    """A directory holding the basis and sweep spectra the manifest names."""
    d = tmp_path_factory.mktemp("fuzz")
    grid = np.linspace(550.0, 850.0, 151)
    s0 = make_spectrum(CLEAN_NV0_SHAPE, grid, 1.0)
    sm = make_spectrum(CLEAN_NVM_SHAPE, grid, 1.0)
    save_spectrum(s0, d / "b0.csv")
    save_spectrum(sm, d / "bm.csv")
    for name, cminus in (("low.csv", 62000.0), ("high.csv", 52000.0)):
        save_spectrum(Spectrum(grid, 10000.0 * s0.intensities + cminus * sm.intensities), d / name)
    return d


def _write_inputs(d: Path, name: str, data: bytes) -> None:
    for valid_name, valid, _ in CASES.values():
        (d / valid_name).write_bytes(valid)
    (d / name).write_bytes(data)


def _run_once(argv, d: Path) -> tuple[int, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([a.format(d=d) for a in argv])
    return rc, err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]


def _run(argv, d: Path) -> tuple[int, str, list[str]]:
    """Exit code, stderr and warnings of ``cli.main``, which must not change when
    the fast CSV path declines every file."""
    result = _run_once(argv, d)
    with mock.patch.object(fileio, "_fast_rows", return_value=None):
        assert _run_once(argv, d) == result
    return result


def _value_paths(doc, prefix=()):
    """Every path of keys/indices into ``doc``, the top level included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _value_paths(value, prefix + (key,))


def _json_type(value) -> str:
    """JSON's type of ``value``: an int and a float are both numbers."""
    return {bool: "boolean", int: "number", float: "number", str: "string", list: "array",
            dict: "object", type(None): "null"}[type(value)]


def _refused(path: tuple, old, new) -> bool:
    """Whether the typed JSON reader refuses ``new`` swapped in for ``old`` at ``path``: a value
    of another JSON type, or a count that is not a positive integer."""
    if _json_type(new) != _json_type(old):
        return True
    return path[-1:] in (("scans",), ("width",), ("height",)) and (type(new) is not int or new < 1)


@st.composite
def _mutated(draw, data: bytes) -> tuple[bytes, bool]:
    """The mutated bytes, and whether the typed JSON reader refuses the edit: a swap that
    ``_refused`` names, or a key renamed to one its object does not hold."""
    edits = ["flip", "insert"] + (["swap", "rename"] if data.startswith((b"{", b"[")) else [])
    edit = draw(st.sampled_from(edits))
    if edit in ("swap", "rename"):
        doc = json.loads(data)
        paths = list(_value_paths(doc))
        if edit == "rename":
            paths = [p for p in paths if isinstance(_at(doc, p), dict) and _at(doc, p)]
            path = draw(st.sampled_from(paths))
            obj = _at(doc, path)
            key = draw(st.sampled_from(sorted(obj)))
            new_key = draw(st.sampled_from([key[:-1], key + "s", key + "_", key.upper()]))
            renamed = {new_key if k == key else k: v for k, v in obj.items()}
            doc = _replaced(doc, path, renamed)
            return json.dumps(doc).encode(), new_key not in obj
        path = draw(st.sampled_from(paths))
        value = draw(st.sampled_from(_SWAP_VALUES))
        refused = _refused(path, _at(doc, path), value)
        return json.dumps(_replaced(doc, path, value)).encode(), refused
    byte = draw(st.integers(1, 255))
    if edit == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ byte]) + data[i + 1:], False
    i = draw(st.integers(0, len(data)))
    return data[:i] + bytes([byte]) + data[i:], False


def _at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path: tuple, value):
    """``doc`` with ``value`` at ``path`` (``doc`` itself changed, unless ``path`` is empty)."""
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _written(d: Path) -> dict:
    """Every file and directory under ``d``, with what tells a rewritten file from the old one."""
    return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in d.rglob("*")}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_valid_inputs_succeed(work, kind):
    name, data, argv = CASES[kind]
    _write_inputs(work, name, data)
    assert _run(argv, work) == (0, "", [])


@pytest.mark.parametrize("kind", sorted(CASES))
@given(data=st.data())
def test_mutated_input_never_escapes(work, kind, data):
    name, valid, argv = CASES[kind]
    mutated, refused = data.draw(_mutated(valid), label="mutated")
    refused = refused and kind in _TYPED
    _write_inputs(work, name, mutated)
    before = _written(work)
    rc, err, _ = _run(argv, work)
    assert rc in (0, 2, 3, 4)
    if refused:
        assert rc == 2
        assert _written(work) == before
    if rc != 0:
        assert err.count("\n") == 1 and err.startswith(("error: ", "i/o error: "))

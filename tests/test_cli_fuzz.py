"""Mutation fuzzing of the CLI input boundary.

Each case starts from valid input files for one command, mutates one of them
(a flipped or inserted byte, or a JSON value swapped for one of another type)
and runs ``cli.main``: it must return a documented exit code, never raise.
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

from nvunmix import Spectrum, fileio, make_spectrum, save_spectrum
from nvunmix.cli import main

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
    "report": ("r.json", _REPORT, ["report", "--run", "{d}/r.json"]),
}

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


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    edits = ["flip", "insert"] + (["swap"] if data.startswith((b"{", b"[")) else [])
    edit = draw(st.sampled_from(edits))
    if edit == "swap":
        doc = json.loads(data)
        path = draw(st.sampled_from(list(_value_paths(doc))))
        value = draw(st.sampled_from(_SWAP_VALUES))
        if not path:
            return json.dumps(value).encode()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return json.dumps(doc).encode()
    byte = draw(st.integers(1, 255))
    if edit == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ byte]) + data[i + 1:]
    i = draw(st.integers(0, len(data)))
    return data[:i] + bytes([byte]) + data[i:]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_valid_inputs_succeed(work, kind):
    name, data, argv = CASES[kind]
    _write_inputs(work, name, data)
    assert _run(argv, work) == (0, "", [])


@pytest.mark.parametrize("kind", sorted(CASES))
@given(data=st.data())
def test_mutated_input_never_escapes(work, kind, data):
    name, valid, argv = CASES[kind]
    _write_inputs(work, name, data.draw(_mutated(valid), label="mutated"))
    rc, err, _ = _run(argv, work)
    assert rc in (0, 2, 3, 4)
    if rc != 0:
        assert err.count("\n") == 1 and err.startswith(("error: ", "i/o error: "))

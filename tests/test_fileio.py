"""File format round trips, parse errors, and run reports."""

import json
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from nvunmix import ParseError, PLMap, Spectrum, fileio, load_map, load_spectrum, save_map, save_spectrum
from nvunmix.cli import main
from nvunmix.errors import ClampedNegativeWarning, NvUnmixError, ValidationError
from nvunmix.fileio import SPEC_CSV_HEADER, RunReport, map_paths

from conftest import assert_spectra_equal


def tricky_spectrum():
    rng = np.random.default_rng(31)
    w = np.cumsum(rng.uniform(0.01, 2.0, 200)) + 550.0
    y = rng.uniform(0.0, 1e6, 200)
    y[0] = 0.1  # not exactly representable
    y[1] = 1.0 / 3.0
    y[2] = 1e-300
    y[3] = 12345678.901234567
    return Spectrum(w, y)


class TestSpectrumFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        s = tricky_spectrum()
        path = tmp_path / "s.csv"
        save_spectrum(s, path)
        back = load_spectrum(path)
        assert_spectra_equal(s, back)

    def test_header_emitted(self, tmp_path):
        path = tmp_path / "s.csv"
        save_spectrum(Spectrum([600.0, 601.0], [1.0, 2.0]), path)
        assert path.read_text().splitlines()[0] == SPEC_CSV_HEADER

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# a comment\n\n600.0,1.0\n# another\n601.0,2.0\n")
        s = load_spectrum(path)
        assert len(s) == 2

    def test_decreasing_wavelengths_name_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# spec-csv v1\n600.0,1.0\n599.0,2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_spectrum(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("600.0,1.0,9\n")
        with pytest.raises(ParseError, match="line 1"):
            load_spectrum(path)

    def test_bad_float(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("600.0,abc\n")
        with pytest.raises(ParseError, match="line 1"):
            load_spectrum(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("600.0,nan\n601.0,1.0\n")
        with pytest.raises(ParseError):
            load_spectrum(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# only comments\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_spectrum(path)

    def test_negative_modes(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("600.0,1.0\n601.0,-2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_spectrum(path)
        with pytest.warns(ClampedNegativeWarning):
            clamped = load_spectrum(path, negative="clamp")
        assert clamped.intensities.tolist() == [1.0, 0.0]
        allowed = load_spectrum(path, negative="allow")
        assert allowed.intensities.tolist() == [1.0, -2.0]

    def test_unknown_negative_mode_is_validation_error(self, tmp_path):
        save_spectrum(Spectrum([600.0, 601.0], [1.0, 2.0]), tmp_path / "s.csv")
        with pytest.raises(ValidationError, match="negative mode"):
            load_spectrum(tmp_path / "s.csv", negative="drop")


class TestMapFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        m = PLMap(rng.uniform(-5.0, 1e5, (13, 9)), pixel_pitch_um=0.0390625)
        stem = tmp_path / "m"
        save_map(m, stem)
        back = load_map(stem)
        assert np.array_equal(back.values, m.values)
        assert back.pixel_pitch_um == m.pixel_pitch_um

    def test_addressable_by_any_path_form(self, tmp_path):
        m = PLMap(np.ones((2, 3)))
        save_map(m, tmp_path / "m")
        for suffix in ("m", "m.json", "m.csv"):
            assert load_map(tmp_path / suffix).width == 3

    def test_sidecar_validation(self, tmp_path):
        m = PLMap(np.ones((2, 3)))
        json_path, _ = save_map(m, tmp_path / "m")
        sidecar = json.loads(Path(json_path).read_text())
        sidecar["format"] = "other"
        Path(json_path).write_text(json.dumps(sidecar))
        with pytest.raises(ParseError, match="plmap"):
            load_map(tmp_path / "m")

    def test_cell_count_mismatch(self, tmp_path):
        json_path, csv_path = map_paths(tmp_path / "m")
        Path(json_path).write_text(
            json.dumps({"format": "plmap", "version": 1, "width": 3, "height": 2, "pixel_pitch_um": 1.0})
        )
        Path(csv_path).write_text("1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_map(tmp_path / "m")

    def test_row_count_mismatch(self, tmp_path):
        json_path, csv_path = map_paths(tmp_path / "m")
        Path(json_path).write_text(
            json.dumps({"format": "plmap", "version": 1, "width": 3, "height": 2, "pixel_pitch_um": 1.0})
        )
        Path(csv_path).write_text("1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match="expected 2 rows"):
            load_map(tmp_path / "m")

    def test_negative_error_mode(self, tmp_path):
        m = PLMap(np.array([[1.0, -2.0]]))
        save_map(m, tmp_path / "m")
        with pytest.raises(ParseError):
            load_map(tmp_path / "m", negative="error")

    def test_negative_and_non_finite_cells_name_line(self, tmp_path):
        save_map(PLMap(np.array([[1.0, 2.0], [3.0, -4.0]])), tmp_path / "m")
        with pytest.raises(ParseError, match="line 2: negative value -4.0"):
            load_map(tmp_path / "m", negative="error")
        with pytest.warns(ClampedNegativeWarning):
            clamped = load_map(tmp_path / "m", negative="clamp")
        assert clamped.values.tolist() == [[1.0, 2.0], [3.0, 0.0]]
        (tmp_path / "m.csv").write_text("# header\n1.0,2.0\n3.0,inf\n")
        with pytest.raises(ParseError, match="line 3: non-finite"):
            load_map(tmp_path / "m")

    def test_unknown_negative_mode_is_validation_error(self, tmp_path):
        save_map(PLMap(np.ones((2, 3))), tmp_path / "m")
        with pytest.raises(ValidationError, match="negative mode"):
            load_map(tmp_path / "m", negative="drop")


class TestPipedInput:
    """A CSV input is read once, so a pipe loads as the same bytes in a file do."""

    def test_row_loadtxt_declines_loads(self, piped):
        s = load_spectrum(piped(b"500.0,1_0\n900.0,2.0\n"))
        assert s.intensities.tolist() == [10.0, 2.0]

    def test_non_increasing_wavelength_names_line(self, piped):
        with pytest.raises(ParseError, match="line 2: wavelength 599.0 does not increase"):
            load_spectrum(piped(b"600.0,1.0\n599.0,2.0\n"))

    def test_negative_value_names_line(self, piped):
        with pytest.raises(ParseError, match="line 3: negative value -2.0"):
            load_spectrum(piped(b"# spec-csv v1\n600.0,1.0\n601.0,-2.0\n"))


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
]
_FINITE_FIELDS = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
).map(repr)
# 17-40 significant digits, more than repr writes, so both parsers must round; the
# exponents stay finite and reach the subnormal range.
_LONG_FIELDS = st.from_regex(
    r"-?[0-9]{1,20}\.[0-9]{16,20}(e(-?[0-9]{1,2}|-3[0-3][0-9]))?", fullmatch=True
)
# Fields that float() accepts and loadtxt rejects ("1_0", the Arabic-Indic digit one),
# that loadtxt accepts and float() rejects (\x1c-\x1f next to a number), spellings
# both accept, and fields both reject.
_ODD_FIELDS = st.sampled_from([
    "1_0", "\u0661", "1_000.5", "1.0\x1c", "\x1d2", "3 \x1e", "\x1f2.5", " 2.5 ", "+3", ".5", "5.",
    "1E5", "0x1p3", "nan", "inf", "-inf", "infinity", "-Infinity", "", "abc", "1 0", "\u00a01.5",
])
_FILLERS = st.sampled_from(["", "   ", "\t", "#", "# spec-csv v1", "  # indented"])


@st.composite
def _csv_text(draw, width: int) -> tuple[str, int, bool]:
    """A CSV file of ``width``-field rows, its data row count, and whether it is
    clean: finite fields only, fillers only before the first data row, no
    trailing comma. Other files add one odd field, one or two interior blank,
    whitespace-only or ``#`` lines, or trailing commas, or all three; any may use
    CRLF."""
    fields = st.one_of(_FINITE_FIELDS, _LONG_FIELDS)
    if draw(st.booleans()):  # nonnegative, so negative="error" can load the file
        fields = fields.map(lambda f: f.lstrip("-"))
    rows = draw(st.lists(st.lists(fields, min_size=width, max_size=width), max_size=6))
    if width == 2 and draw(st.booleans()):  # increasing wavelengths, so the file can load
        w = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=len(rows), max_size=len(rows), unique=True))
        rows = [[repr(x), row[1]] for x, row in zip(sorted(w), rows)]
    mess = draw(st.sampled_from(["none", "odd field", "commas", "interior lines", "all"]))
    mess = mess if rows else "none"
    if mess in ("odd field", "all"):
        draw(st.sampled_from(rows))[draw(st.integers(0, width - 1))] = draw(_ODD_FIELDS)
    commas = mess in ("commas", "all")
    lines = draw(st.lists(_FILLERS, max_size=3))
    lead = len(lines)
    lines += [",".join(row) + ("," if commas and draw(st.booleans()) else "") for row in rows]
    if mess in ("interior lines", "all"):
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(lead + 1, len(lines))), draw(_FILLERS))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol])), len(rows), bool(rows) and mess == "none"


def _outcome(load, path, **kw):
    """Every value ``load`` reads from ``path`` by ``float.hex``, or its error;
    and every warning it gives, with the line it is attributed to."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loaded = load(path, **kw)
        except NvUnmixError as exc:
            result = (type(exc), str(exc))
        else:
            arrays = [loaded.values] if isinstance(loaded, PLMap) else [
                loaded.wavelengths, loaded.intensities]
            result = [(a.shape, [v.hex() for v in a.ravel().tolist()]) for a in arrays]
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _same_on_both_paths(load, path, width, clean, **kw):
    """``load`` gives the same values, error and warnings with and without the
    ``np.loadtxt`` fast path; a clean file takes the fast path."""
    fast = fileio._fast_rows(path.read_bytes(), width)
    event("fast path parsed" if fast is not None else "fast path declined")
    if clean:
        assert fast is not None
    with mock.patch.object(fileio, "_fast_rows", return_value=None):
        line_reader = _outcome(load, path, **kw)
    assert _outcome(load, path, **kw) == line_reader


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("oracle")


class TestFastPathOracle:
    """The ``np.loadtxt`` fast path against the line reader."""

    @given(text=_csv_text(2), negative=st.sampled_from(["error", "clamp", "allow"]))
    def test_spectrum_loads_as_line_reader(self, oracle_dir, text, negative):
        text, _, clean = text
        path = oracle_dir / "s.csv"
        path.write_bytes(text.encode())
        _same_on_both_paths(load_spectrum, path, 2, clean, negative=negative)

    # The sidecar mostly gives the true height, sometimes one row more.
    @given(width=st.integers(1, 4), data=st.data(), height_off=st.sampled_from([0, 0, 0, 1]),
           negative=st.sampled_from(["error", "clamp", "allow"]))
    def test_map_loads_as_line_reader(self, oracle_dir, width, data, height_off, negative):
        text, height, clean = data.draw(_csv_text(width), label="csv")
        (oracle_dir / "m.json").write_text(json.dumps(
            {"format": "plmap", "version": 1, "width": width, "height": max(1, height + height_off),
             "pixel_pitch_um": 1.0}))
        (oracle_dir / "m.csv").write_bytes(text.encode())
        _same_on_both_paths(load_map, oracle_dir / "m.csv", width, clean, negative=negative)

    @pytest.mark.parametrize(
        "text, intensities",
        [
            ("600.0,1_0\n", [10.0]),
            ("600.0,\u0661\n", [1.0]),
            ("600.0,1.0\n   \n601.0,2.0\n", [1.0, 2.0]),
            ("600.0,1.0\n# note\n601.0,2.0\n", [1.0, 2.0]),
        ],
        ids=["underscore", "arabic-indic-digit", "interior-whitespace-line", "interior-comment"],
    )
    def test_line_reader_takes_what_loadtxt_declines(self, tmp_path, text, intensities):
        path = tmp_path / "s.csv"
        path.write_text(text, encoding="utf-8")
        assert fileio._fast_rows(path.read_bytes(), 2) is None
        assert load_spectrum(path).intensities.tolist() == intensities

    def test_separator_spaces_are_left_to_the_line_reader(self, tmp_path):
        r"""loadtxt strips \x1c-\x1f around a field; float() rejects the field."""
        path = tmp_path / "s.csv"
        path.write_text("600.0\x1c,1.0\n", encoding="utf-8")
        assert fileio._fast_rows(path.read_bytes(), 2) is None
        with pytest.raises(ParseError, match="line 1: could not convert"):
            load_spectrum(path)

    def test_repr_written_files_take_the_fast_path(self, tmp_path):
        save_spectrum(tricky_spectrum(), tmp_path / "s.csv")
        save_map(PLMap(np.array([[-0.0, 5e-324], [1.7976931348623157e308, 1.0]])), tmp_path / "m")
        assert fileio._fast_rows((tmp_path / "s.csv").read_bytes(), 2) is not None
        assert fileio._fast_rows((tmp_path / "m.csv").read_bytes(), 2) is not None


class TestRunReport:
    def test_round_trip_and_hashing(self, tmp_path):
        data = tmp_path / "in.csv"
        save_spectrum(Spectrum([600.0, 601.0], [1.0, 2.0]), data)
        report = RunReport.create(
            "decompose", [str(data)], {"f_range": "1:50"}, ["out.csv"], {"f": 6.2}
        )
        path = tmp_path / "run.report.json"
        report.save(path)
        back = RunReport.load(path)
        assert back.command == "decompose"
        assert back.diagnostics["f"] == 6.2
        assert back.inputs[0][0] == str(data)
        assert len(back.inputs[0][1]) == 64  # sha256 hex
        # hash is reproducible
        again = RunReport.create("decompose", [str(data)], {}, [], {})
        assert again.inputs[0][1] == back.inputs[0][1]

    def test_input_that_is_not_a_regular_file_has_null_digest(self, tmp_path, piped):
        path = piped(b"600.0,1.0\n")
        RunReport.create("transmissivity", [path], {}, [], {}).save(tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text())["inputs"] == [[path, None]]
        assert RunReport.load(tmp_path / "r.json").inputs == [(path, None)]

    def test_bad_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            RunReport.load(path)

    def test_deeply_nested_parameters_round_trip(self, tmp_path):
        """Saving does not copy the parameters recursively, so a nested parameter file
        that JSON reads is also written."""
        nested: dict = {}
        for _ in range(600):
            nested = {"x": nested}
        RunReport("simulate spectrum", parameters={"params": nested}).save(tmp_path / "r.json")
        assert RunReport.load(tmp_path / "r.json").parameters == {"params": nested}


def _csv_oracle(header, columns) -> bytes:
    """The bytes of ``columns`` as CSV, formatted one row at a time."""
    lines = [] if header is None else [header]
    lines += [",".join(map(repr, row)) for row in zip(*(np.asarray(c).tolist() for c in columns))]
    return "".join(line + "\n" for line in lines).encode()


class TestCsvWriter:
    """``save_csv`` against a row-by-row ``repr`` oracle."""

    @given(width=st.sampled_from([1, 2, 3, 4, 700]), data=st.data())
    def test_matches_row_by_row_repr(self, oracle_dir, width, data):
        step = max(1, fileio._WRITE_VALUES // width)
        # Row counts on both sides of one and two write steps, and a few small ones.
        n = data.draw(st.sampled_from([step - 1, step, step + 1, 2 * step, 2 * step + 1])
                      | st.integers(0, 5), label="rows")
        pool = data.draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(
            allow_nan=False, allow_infinity=False)), min_size=1, max_size=40), label="values")
        values = np.resize(np.array(pool), (width, n))
        form = data.draw(st.sampled_from(["1-D arrays", "2-D array", "map columns"]))
        columns = {
            "1-D arrays": tuple(np.array(c) for c in values),
            "2-D array": values,
            "map columns": np.ascontiguousarray(values.T).T,  # as save_map passes m.values.T
        }[form]
        header = data.draw(st.sampled_from([None, SPEC_CSV_HEADER, "b1,b2,f"]))
        fileio.save_csv(oracle_dir / "w.csv", header, columns)
        assert (oracle_dir / "w.csv").read_bytes() == _csv_oracle(header, columns)

    def test_memory_is_bounded(self, tmp_path):
        """Each write formats a bounded slice, so a long file needs no per-row lists."""
        n = 200_000
        columns = tuple(np.linspace(1.0, 2.0, n) * k for k in (1.0, 3.0, 7.0))
        tracemalloc.start()
        try:
            fileio.save_csv(tmp_path / "surface.csv", "b1,b2,f", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


GOLDEN = Path(__file__).parent / "golden"
# golden file name: the file of write_golden_outputs' directory that must match it
_GOLDEN_FILES = {
    "spectrum.csv": "spectrum.csv",
    "map.json": "map.json",
    "map.csv": "map.csv",
    "table.csv": "table.csv",
    "surface.csv": "surface.csv",
    "manifest.json": "sweep/manifest.json",
}


def write_golden_outputs(d: Path) -> None:
    """Write each file of ``_GOLDEN_FILES`` into ``d`` from fixed noiseless inputs.

    Regenerate the goldens (after an intentional format change) by calling this on an
    empty directory and copying each file of ``_GOLDEN_FILES`` into ``tests/golden``.
    """
    save_spectrum(Spectrum([550.0, 600.1, 637.0, 700.25, 850.0],
                           [0.1, 1.0 / 3.0, 5e-324, 12345678.901234567, 1.7976931348623157e308]),
                  d / "spectrum.csv")
    save_map(PLMap(np.array([[-0.0, 5e-324, 0.1], [1.0 / 3.0, -1.7976931348623157e308, 1e-310]]),
                   pixel_pitch_um=0.0390625), d / "map")
    # Basis shapes on disjoint supports with areas 4 and 8, so every fitted coefficient,
    # residual and factor is exact in binary and the same on every platform.
    grid = np.arange(600.0, 612.0)
    s0 = np.array([0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    sm = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 4.0, 2.0, 0.0, 0.0])
    save_spectrum(Spectrum(grid, s0), d / "b0.csv")
    save_spectrum(Spectrum(grid, sm), d / "bm.csv")
    cminus = {170.3: 62000.0, 400.5: 57000.0, 829.0: 50000.0, 975.0: 57000.0}
    for i, cm in enumerate(cminus.values()):
        save_spectrum(Spectrum(grid, 10000.0 * s0 / 4.0 + cm * sm / 8.0), d / f"s{i}.csv")
    (d / "series.json").write_text(
        json.dumps([{"b_field_gauss": b, "path": f"s{i}.csv"} for i, b in enumerate(cminus)]))
    assert main(["fit-series", "--basis-nv0", str(d / "b0.csv"), "--basis-nvm", str(d / "bm.csv"),
                 "--series", str(d / "series.json"), "--out-table", str(d / "table.csv"),
                 "--out-surface", str(d / "surface.csv")]) == 0
    (d / "sweep.json").write_text(json.dumps(
        {"fields": [170.0, 400.5, 975.0], "noise": {"kind": "none"},
         "grid": {"lo": 600.0, "hi": 610.0, "step": 1.0}}))
    assert main(["simulate", "sweep", "--params", str(d / "sweep.json"), "--out", str(d / "sweep")]) == 0


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("golden")
    write_golden_outputs(d)
    return d


class TestGoldenBytes:
    """Every writer's bytes against files written by the code before the writers were merged."""

    @pytest.mark.parametrize("golden, written", _GOLDEN_FILES.items())
    def test_matches_golden_file(self, golden_outputs, golden, written):
        assert (golden_outputs / written).read_bytes() == (GOLDEN / golden).read_bytes()

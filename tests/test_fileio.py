"""File format round trips, parse errors, and run reports."""

import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from nvunmix import ParseError, PLMap, Spectrum, fileio, load_map, load_spectrum, save_map, save_spectrum
from nvunmix.errors import ClampedNegativeWarning, NvUnmixError
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
    fast = fileio._fast_rows(path, width)
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
    """The ``np.loadtxt`` fast path against the line reader ``_read_rows``."""

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
        assert fileio._fast_rows(path, 2) is None
        assert load_spectrum(path).intensities.tolist() == intensities

    def test_separator_spaces_are_left_to_the_line_reader(self, tmp_path):
        r"""loadtxt strips \x1c-\x1f around a field; float() rejects the field."""
        path = tmp_path / "s.csv"
        path.write_text("600.0\x1c,1.0\n", encoding="utf-8")
        assert fileio._fast_rows(path, 2) is None
        with pytest.raises(ParseError, match="line 1: could not convert"):
            load_spectrum(path)

    def test_repr_written_files_take_the_fast_path(self, tmp_path):
        save_spectrum(tricky_spectrum(), tmp_path / "s.csv")
        save_map(PLMap(np.array([[-0.0, 5e-324], [1.7976931348623157e308, 1.0]])), tmp_path / "m")
        assert fileio._fast_rows(tmp_path / "s.csv", 2) is not None
        assert fileio._fast_rows(tmp_path / "m.csv", 2) is not None


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

    def test_bad_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            RunReport.load(path)

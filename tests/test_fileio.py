"""File format round trips, parse errors, and run reports."""

import json

import numpy as np
import pytest

from nvunmix import ParseError, PLMap, Spectrum, load_map, load_spectrum, save_map, save_spectrum
from nvunmix.errors import ClampedNegativeWarning
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
        sidecar = json.loads(open(json_path).read())
        sidecar["format"] = "other"
        open(json_path, "w").write(json.dumps(sidecar))
        with pytest.raises(ParseError, match="plmap"):
            load_map(tmp_path / "m")

    def test_cell_count_mismatch(self, tmp_path):
        json_path, csv_path = map_paths(tmp_path / "m")
        open(json_path, "w").write(
            json.dumps({"format": "plmap", "version": 1, "width": 3, "height": 2, "pixel_pitch_um": 1.0})
        )
        open(csv_path, "w").write("1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_map(tmp_path / "m")

    def test_row_count_mismatch(self, tmp_path):
        json_path, csv_path = map_paths(tmp_path / "m")
        open(json_path, "w").write(
            json.dumps({"format": "plmap", "version": 1, "width": 3, "height": 2, "pixel_pitch_um": 1.0})
        )
        open(csv_path, "w").write("1.0,2.0,3.0\n")
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

"""End-to-end CLI flows against synthetic data in temporary directories."""

import json

import numpy as np
import pytest

from nvunmix import (
    BasisPair,
    FieldSeries,
    NonPhysicalWarning,
    PLMap,
    Spectrum,
    default_letter_masks,
    fileio,
    fit_series,
    load_map,
    load_spectrum,
    make_spectrum,
    resample,
    save_map,
    save_spectrum,
)
from nvunmix.cli import build_parser, main
from nvunmix.fileio import RunReport

from conftest import CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE


def write_low_high(tmp_path, grid):
    s0 = make_spectrum(CLEAN_NV0_SHAPE, grid, 10000.0)
    sm = make_spectrum(CLEAN_NVM_SHAPE, grid, 1.0)
    low = Spectrum(grid, s0.intensities + 62000.0 * sm.intensities)
    high = Spectrum(grid, s0.intensities + 52000.0 * sm.intensities)
    save_spectrum(low, tmp_path / "low.csv")
    save_spectrum(high, tmp_path / "high.csv")
    return s0


class TestDecomposeCommand:
    def test_full_flow(self, tmp_path, grid02, capsys):
        s0 = write_low_high(tmp_path, grid02)
        rc = main(
            [
                "decompose",
                "--low", str(tmp_path / "low.csv"),
                "--high", str(tmp_path / "high.csv"),
                "--out-nv0", str(tmp_path / "nv0.csv"),
                "--out-nvm", str(tmp_path / "nvm.csv"),
            ]
        )
        assert rc == 0
        report = RunReport.load(tmp_path / "nv0.report.json")
        assert report.diagnostics["f"] == pytest.approx(6.2, abs=0.01)
        assert set(report.diagnostics) == {"f", "zpl_metric", "nv0_zpl575_score", "f_at_bound"}
        assert report.diagnostics["f_at_bound"] is False
        nv0 = load_spectrum(tmp_path / "nv0.csv", negative="allow")
        assert np.max(np.abs(nv0.intensities - s0.intensities)) < 1e-3 * np.max(s0.intensities)
        assert "f = 6.2" in capsys.readouterr().out

    def test_factor_on_bound_flagged(self, tmp_path, grid02):
        write_low_high(tmp_path, grid02)
        with pytest.warns(NonPhysicalWarning, match=r"\[1, 3\]"):
            rc = main(
                [
                    "decompose",
                    "--low", str(tmp_path / "low.csv"),
                    "--high", str(tmp_path / "high.csv"),
                    "--out-nv0", str(tmp_path / "nv0.csv"),
                    "--out-nvm", str(tmp_path / "nvm.csv"),
                    "--f-range", "1:3",
                ]
            )
        assert rc == 0
        report = RunReport.load(tmp_path / "nv0.report.json")
        assert report.diagnostics["f"] == 3.0
        assert report.diagnostics["f_at_bound"] is True

    def test_missing_file_is_io_error(self, tmp_path):
        rc = main(
            [
                "decompose",
                "--low", str(tmp_path / "absent.csv"),
                "--high", str(tmp_path / "absent.csv"),
                "--out-nv0", str(tmp_path / "a.csv"),
                "--out-nvm", str(tmp_path / "b.csv"),
            ]
        )
        assert rc == 4

    def test_identical_inputs_numerical_error(self, tmp_path, grid02):
        write_low_high(tmp_path, grid02)
        rc = main(
            [
                "decompose",
                "--low", str(tmp_path / "low.csv"),
                "--high", str(tmp_path / "low.csv"),
                "--out-nv0", str(tmp_path / "a.csv"),
                "--out-nvm", str(tmp_path / "b.csv"),
            ]
        )
        assert rc == 3

    def test_malformed_file_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("600.0,1.0\n599.0,2.0\n")
        rc = main(
            [
                "decompose",
                "--low", str(bad),
                "--high", str(bad),
                "--out-nv0", str(tmp_path / "a.csv"),
                "--out-nvm", str(tmp_path / "b.csv"),
            ]
        )
        assert rc == 2


class TestTransmissivityCommand:
    def test_flat_spectrum_prints_six_digits(self, tmp_path, capsys):
        grid = np.linspace(550.0, 850.0, 1501)
        save_spectrum(Spectrum(grid, np.full_like(grid, 3.0)), tmp_path / "flat.csv")
        rc = main(["transmissivity", "--spectrum", str(tmp_path / "flat.csv")])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.615"

    def test_filter_table_backend(self, tmp_path, capsys):
        grid = np.linspace(550.0, 850.0, 1501)
        save_spectrum(Spectrum(grid, np.full_like(grid, 3.0)), tmp_path / "flat.csv")
        # step-edge table: 0 below 645, 0.9 above
        table = Spectrum([550.0, 644.999, 645.001, 850.0], [0.0, 0.0, 0.9, 0.9])
        save_spectrum(table, tmp_path / "filter.csv")
        rc = main(
            [
                "transmissivity",
                "--spectrum", str(tmp_path / "flat.csv"),
                "--filter-table", str(tmp_path / "filter.csv"),
            ]
        )
        assert rc == 0
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(0.9 * 205.0 / 300.0, rel=1e-3)


class TestMapCommands:
    def test_noiseless_field_pair_has_no_negative_pixels(self, tmp_path):
        """A noiseless pair at the default suppression, unmixed at its own f: the
        NV0 pixels that should be 0 come out as rounding residue (about -4e-12),
        which is not counted."""
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"letter_map": {"width": 96, "height": 64}}))
        argv = ["simulate", "field-map-pair", "--params", str(params), "--out", str(tmp_path / "sim")]
        assert main(argv) == 0
        argv = ["unmix-map-field", "--low", str(tmp_path / "sim" / "low"),
                "--high", str(tmp_path / "sim" / "high"), "--f", "6.2", "--out", str(tmp_path / "sep")]
        assert main(argv) == 0
        diagnostics = RunReport.load(tmp_path / "sep.nv0.report.json").diagnostics
        assert diagnostics["nv0_min"] < 0.0
        assert diagnostics["negative_pixel_count"] == 0

    def test_simulate_then_field_unmix(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps(
                {
                    "letter_map": {"width": 96, "height": 64, "pl_nv0": 8000.0, "pl_nvm": 12000.0},
                    "suppression": 0.5,
                }
            )
        )
        out_dir = tmp_path / "sim"
        assert main(["simulate", "field-map-pair", "--params", str(params), "--out", str(out_dir)]) == 0
        rc = main(
            [
                "unmix-map-field",
                "--low", str(out_dir / "low"),
                "--high", str(out_dir / "high"),
                "--f", "2.0",
                "--out", str(tmp_path / "sep"),
            ]
        )
        assert rc == 0
        nv0 = load_map(tmp_path / "sep.nv0")
        nvm = load_map(tmp_path / "sep.nvm")
        truth0 = load_map(out_dir / "nv0_truth")
        truthm = load_map(out_dir / "nvm_truth")
        assert np.array_equal(nv0.values, truth0.values)
        assert np.array_equal(nvm.values, truthm.values)
        report = RunReport.load(tmp_path / "sep.nv0.report.json")
        assert report.diagnostics["negative_pixel_count"] == 0
        assert report.diagnostics["reconstruction_residual"] == 0.0

    def test_simulate_then_filter_unmix(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps(
                {"width": 96, "height": 64, "pl_nv0": 8000.0, "pl_nvm": 12000.0,
                 "t0": 0.3, "tminus": 0.8}
            )
        )
        out_dir = tmp_path / "sim"
        assert main(["simulate", "letter-map", "--params", str(params), "--out", str(out_dir)]) == 0
        rc = main(
            [
                "unmix-map-filter",
                "--m0", str(out_dir / "m0"),
                "--mlpf", str(out_dir / "mlpf"),
                "--t0", "0.3",
                "--tm", "0.8",
                "--out", str(tmp_path / "sep"),
            ]
        )
        assert rc == 0
        nv0 = load_map(tmp_path / "sep.nv0")
        truth0 = load_map(out_dir / "nv0_truth")
        assert np.allclose(nv0.values, truth0.values, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("route", ["unmix-map-filter", "unmix-map-field"])
    def test_fraction_diagnostics_exact(self, tmp_path, route):
        """Noiseless letters: NV- fraction is 1 in the NV- letters, 0 in the NV0 ones."""
        out_dir = tmp_path / "sim"
        params = tmp_path / "params.json"
        if route == "unmix-map-filter":
            params.write_text(json.dumps({"width": 96, "height": 64, "t0": 0.3, "tminus": 0.8}))
            assert main(["simulate", "letter-map", "--params", str(params), "--out", str(out_dir)]) == 0
            inputs = ["--m0", str(out_dir / "m0"), "--mlpf", str(out_dir / "mlpf"),
                      "--t0", "0.3", "--tm", "0.8"]
        else:
            params.write_text(json.dumps({"letter_map": {"width": 96, "height": 64}, "suppression": 0.5}))
            assert main(["simulate", "field-map-pair", "--params", str(params), "--out", str(out_dir)]) == 0
            inputs = ["--low", str(out_dir / "low"), "--high", str(out_dir / "high"), "--f", "2.0"]
        assert main([route, *inputs, "--out", str(tmp_path / "sep")]) == 0
        diagnostics = RunReport.load(tmp_path / "sep.nv0.report.json").diagnostics
        mask0, maskm = default_letter_masks(96, 64)
        assert diagnostics["zero_total_pixels"] == int(np.count_nonzero(~(mask0 | maskm)))
        assert diagnostics["nvm_fraction_mean"] == np.count_nonzero(maskm) / np.count_nonzero(mask0 | maskm)

    def test_fraction_mean_null_when_every_total_is_zero(self, tmp_path):
        save_map(PLMap(np.zeros((3, 4))), tmp_path / "z")
        argv = ["--low", str(tmp_path / "z"), "--high", str(tmp_path / "z"), "--f", "2.0"]
        assert main(["unmix-map-field", *argv, "--out", str(tmp_path / "sep")]) == 0
        diagnostics = RunReport.load(tmp_path / "sep.nv0.report.json").diagnostics
        assert diagnostics["zero_total_pixels"] == 12
        assert diagnostics["nvm_fraction_mean"] is None

    def test_equal_transmissivities_exit_numerical(self, tmp_path):
        save_map(PLMap(np.ones((4, 4))), tmp_path / "m")
        rc = main(
            [
                "unmix-map-filter",
                "--m0", str(tmp_path / "m"),
                "--mlpf", str(tmp_path / "m"),
                "--t0", "0.5",
                "--tm", "0.5",
                "--out", str(tmp_path / "sep"),
            ]
        )
        assert rc == 3


class TestSweepFlow:
    def test_simulate_sweep_then_fit_series(self, tmp_path, capsys):
        basis_dir = tmp_path / "basis"
        # pure-shape spectra to act as the fitting dictionary
        p0 = tmp_path / "p0.json"
        p0.write_text(json.dumps({"shape": {
            "zpl_center": 575.0, "zpl_width": 1.8, "zpl_weight": 0.35,
            "sidebands": [[591.0, 5.0, 0.40], [602.0, 4.5, 0.25]]},
            "total_counts": 1.0}))
        pm = tmp_path / "pm.json"
        pm.write_text(json.dumps({"shape": {
            "zpl_center": 637.0, "zpl_width": 1.7, "zpl_weight": 0.25,
            "sidebands": [[702.0, 13.0, 0.45], [748.0, 15.0, 0.30]]},
            "total_counts": 1.0}))
        assert main(["simulate", "spectrum", "--params", str(p0), "--out", str(basis_dir / "nv0")]) == 0
        assert main(["simulate", "spectrum", "--params", str(pm), "--out", str(basis_dir / "nvm")]) == 0

        sweep_params = tmp_path / "sweep.json"
        sweep_params.write_text(json.dumps({
            "shapes": {
                "nv0": json.loads(p0.read_text())["shape"],
                "nvminus": json.loads(pm.read_text())["shape"],
            },
            "fields": [170.0, 400.0, 700.0, 829.0, 975.0],
            "noise": {"kind": "none"},
        }))
        sweep_dir = tmp_path / "sweep"
        assert main(["simulate", "sweep", "--params", str(sweep_params), "--out", str(sweep_dir)]) == 0

        rc = main(
            [
                "fit-series",
                "--basis-nv0", str(basis_dir / "nv0" / "spectrum.csv"),
                "--basis-nvm", str(basis_dir / "nvm" / "spectrum.csv"),
                "--series", str(sweep_dir / "manifest.json"),
                "--out-table", str(tmp_path / "table.csv"),
                "--out-surface", str(tmp_path / "surface.csv"),
            ]
        )
        assert rc == 0
        rows = (tmp_path / "table.csv").read_text().splitlines()
        assert rows[0] == "b_gauss,c0,cminus,residual"
        data = {float(r.split(",")[0]): [float(v) for v in r.split(",")[1:]] for r in rows[1:]}
        assert data[170.0][1] == pytest.approx(62000.0, rel=1e-6)
        assert data[975.0][1] == pytest.approx(52000.0, rel=1e-6)
        surface = {(float(r.split(",")[0]), float(r.split(",")[1])): float(r.split(",")[2])
                   for r in (tmp_path / "surface.csv").read_text().splitlines()[1:]}
        assert surface[(170.0, 975.0)] == pytest.approx(6.2, rel=1e-9)

    def test_fit_series_table_is_bit_exact(self, tmp_path):
        """Every table.csv field parses to exactly the float fit_series returns in memory."""
        # Basis spectra on a finer grid than the sweep, so fit-series resamples them.
        grid = {"lo": 550.0, "hi": 850.0, "step": 0.1}
        shapes = {  # the default shapes, as in the README's parameter files
            "nv0": {"zpl_center": 575.0, "zpl_width": 1.8, "zpl_weight": 0.15,
                    "sidebands": [[598.0, 13.0, 0.22], [617.9, 22.0, 0.30], [652.0, 36.0, 0.33]]},
            "nvm": {"zpl_center": 637.0, "zpl_width": 1.7, "zpl_weight": 0.04,
                    "sidebands": [[687.0, 22.0, 0.60], [735.0, 26.0, 0.36]]},
        }
        for name, shape in shapes.items():
            params = tmp_path / f"{name}.json"
            params.write_text(json.dumps({"shape": shape, "grid": grid}))
            assert main(["simulate", "spectrum", "--params", str(params), "--out", str(tmp_path / name)]) == 0
        sweep_params = tmp_path / "sweep.json"
        sweep_params.write_text(json.dumps({"noise": {"kind": "poisson", "scans": 3000}}))
        sweep_dir = tmp_path / "sweep"
        argv = ["simulate", "sweep", "--params", str(sweep_params), "--seed", "3", "--out", str(sweep_dir)]
        assert main(argv) == 0
        rc = main(
            [
                "fit-series",
                "--basis-nv0", str(tmp_path / "nv0" / "spectrum.csv"),
                "--basis-nvm", str(tmp_path / "nvm" / "spectrum.csv"),
                "--series", str(sweep_dir / "manifest.json"),
                "--out-table", str(tmp_path / "table.csv"),
            ]
        )
        assert rc == 0

        manifest = json.loads((sweep_dir / "manifest.json").read_text())
        series = FieldSeries.ingest(
            [(e["b_field_gauss"], load_spectrum(sweep_dir / e["path"])) for e in manifest]
        )
        basis = BasisPair.from_spectra(
            load_spectrum(tmp_path / "nv0" / "spectrum.csv"),
            load_spectrum(tmp_path / "nvm" / "spectrum.csv"),
        )
        grid = series.entries[0][1].wavelengths
        basis = BasisPair.from_spectra(resample(basis.s0, grid), resample(basis.sminus, grid))
        table = fit_series(series, basis)
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert lines[0] == "b_gauss,c0,cminus,residual"
        got = [[float(v).hex() for v in line.split(",")] for line in lines[1:]]
        want = [
            [float(col[k]).hex() for col in (table.b_fields, table.c0, table.cminus, table.residuals)]
            for k in range(len(table))
        ]
        assert got == want

    @pytest.mark.parametrize(
        "manifest",
        [
            b'[{"b_field_gauss": 170.0}]',
            b'{"b_field_gauss": 170.0, "path": "s.csv"}',
            b'[{"b_field_gauss": "x", "path": "s.csv"}]',
            b"[]",
            b"\xff\xfe[]",
            b'[{"b_field_gauss": 170.0, "path": "s\\u0000.csv"}]',
            b'[{"b_field_gauss": 1' + b"0" * 400 + b', "path": "s.csv"}]',
        ],
        ids=["no-path", "object-not-list", "non-numeric-field", "empty", "not-utf8", "nul-path",
             "field-overflow"],
    )
    def test_malformed_manifest_parse_error(self, tmp_path, grid02, capsys, manifest):
        save_spectrum(make_spectrum(CLEAN_NVM_SHAPE, grid02, 1.0), tmp_path / "s.csv")
        (tmp_path / "m.json").write_bytes(manifest)
        rc = main(
            [
                "fit-series",
                "--basis-nv0", str(tmp_path / "s.csv"),
                "--basis-nvm", str(tmp_path / "s.csv"),
                "--series", str(tmp_path / "m.json"),
                "--out-table", str(tmp_path / "table.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRenderAndReportCommands:
    def test_render_spectrum(self, tmp_path, grid02):
        s = make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0)
        save_spectrum(s, tmp_path / "s.csv")
        out = tmp_path / "s.svg"
        assert main(["render", "--spectrum", str(tmp_path / "s.csv"), "--out", str(out), "--zpl-guides"]) == 0
        assert out.read_bytes().startswith(b"<svg")

    def test_render_map(self, tmp_path):
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        out = tmp_path / "m.pgm"
        assert main(["render", "--map", str(tmp_path / "m"), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P2")

    @pytest.mark.parametrize("clip", ["5000:0", "nan:1"])
    def test_render_bad_clip_exits_2(self, tmp_path, capsys, clip):
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        out = tmp_path / "m.pgm"
        assert main(["render", "--map", str(tmp_path / "m"), "--out", str(out), "--clip", clip]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: clip range") and err.count("\n") == 1
        assert not out.exists()

    def test_cached_parser_keeps_calls_apart(self):
        first = build_parser().parse_args(["render", "--out", "a.svg", "--clip", "0:1", "--clamp"])
        second = build_parser().parse_args(["render", "--out", "b.svg"])
        assert (first.clip, first.clamp) == ("0:1", True)
        assert (second.out, second.clip, second.clamp) == ("b.svg", None, False)

    def test_render_requires_one_input(self, tmp_path):
        assert main(["render", "--out", str(tmp_path / "x.svg")]) == 2

    def test_report_pretty_print(self, tmp_path, grid02, capsys):
        write_spec = make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0)
        save_spectrum(write_spec, tmp_path / "s.csv")
        main(["render", "--spectrum", str(tmp_path / "s.csv"), "--out", str(tmp_path / "s.svg"),
              "--report", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert main(["report", "--run", str(tmp_path / "r.json")]) == 0
        out = capsys.readouterr().out
        assert "command:    render" in out
        assert "sha256=" in out

    def test_bad_window_string(self, tmp_path, grid02):
        s = make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0)
        save_spectrum(s, tmp_path / "s.csv")
        rc = main(["transmissivity", "--spectrum", str(tmp_path / "s.csv"), "--window", "junk"])
        assert rc == 2


_RENDER_SPECTRUM = ["render", "--spectrum", "{d}/s.csv", "--out", "{d}/out", "--report", "{d}/r.json"]
_RENDER_MAP = ["render", "--map", "{d}/m", "--out", "{d}/out", "--report", "{d}/r.json"]
_TABLE_FILTER = ["transmissivity", "--spectrum", "{d}/s.csv", "--filter-table", "{d}/ft.csv",
                 "--report", "{d}/r.json"]
_ONE_FIELD_SERIES = ["fit-series", "--basis-nv0", "{d}/s0.csv", "--basis-nvm", "{d}/s.csv",
                     "--series", "{d}/one.json", "--out-table", "{d}/out", "--out-surface", "{d}/s2.csv",
                     "--report", "{d}/r.json"]


class TestRejectedFlags:
    """A flag that would have no effect is rejected before anything is written."""

    @pytest.mark.parametrize(
        "argv",
        [
            _RENDER_SPECTRUM + ["--clamp"],
            _RENDER_SPECTRUM + ["--clip", "0:1"],
            _RENDER_MAP + ["--zpl-guides"],
            _TABLE_FILTER + ["--tmax", "0.5"],
            _TABLE_FILTER + ["--center", "645"],
            _TABLE_FILTER + ["--width", "6.9"],
            _ONE_FIELD_SERIES,
        ],
        ids=["svg-clamp", "svg-clip", "pgm-zpl-guides", "table-tmax", "table-center", "table-width",
             "one-field-surface"],
    )
    def test_exit_2_one_line_no_output(self, tmp_path, grid02, capsys, argv):
        save_spectrum(make_spectrum(CLEAN_NV0_SHAPE, grid02, 100.0), tmp_path / "s0.csv")
        save_spectrum(make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0), tmp_path / "s.csv")
        save_spectrum(Spectrum([550.0, 645.0, 850.0], [0.0, 0.5, 0.9]), tmp_path / "ft.csv")
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        (tmp_path / "one.json").write_text(json.dumps([{"b_field_gauss": 170.0, "path": "s.csv"}]))
        before = set(tmp_path.iterdir())
        assert main([a.format(d=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert set(tmp_path.iterdir()) == before

    def test_reports_record_only_flags_that_apply(self, tmp_path, grid02):
        save_spectrum(make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0), tmp_path / "s.csv")
        save_spectrum(Spectrum([550.0, 645.0, 850.0], [0.0, 0.5, 0.9]), tmp_path / "ft.csv")
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        sigmoid = ["transmissivity", "--spectrum", "{d}/s.csv", "--width", "5", "--report", "{d}/r.json"]
        expected = [
            (_RENDER_SPECTRUM, {"zpl_guides": False}),
            (_RENDER_MAP + ["--clip", "0:5"], {"clamp": False, "clip": "0:5"}),
            (_TABLE_FILTER, {"filter_table": str(tmp_path / "ft.csv"), "window": "550:850"}),
            (sigmoid, {"tmax": 0.9, "center": 645.0, "width": 5.0, "window": "550:850",
                       "filter_table": None}),
        ]
        for argv, parameters in expected:
            assert main([a.format(d=tmp_path) for a in argv]) == 0
            assert RunReport.load(tmp_path / "r.json").parameters == parameters


_SIDECAR = b'{"format": "plmap", "version": 1, "width": 2, "height": 1, "pixel_pitch_um": 1.0}'
_MAP_ARGS = ["render", "--map", "{d}/m", "--out", "{d}/m.pgm"]
_PARAMS_ARGS = ["simulate", "spectrum", "--params", "{d}/p.json", "--out", "{d}/sim"]
_REPORT_ARGS = ["report", "--run", "{d}/r.json"]
_LETTER_MAP_ARGS = ["simulate", "letter-map", "--params", "{d}/p.json", "--out", "{d}/sim"]


class TestInputBoundary:
    """Malformed input files end in exit 2 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, name, data",
        [
            (["transmissivity", "--spectrum", "{d}/s.csv"], "s.csv", b"\xff\xfe"),
            (_MAP_ARGS, "m.csv", b"\xff\xfe"),
            (_MAP_ARGS, "m.json", b"\xff\xfe"),
            (_PARAMS_ARGS, "p.json", b"\xff\xfe"),
            (_REPORT_ARGS, "r.json", b"\xff\xfe"),
            (_MAP_ARGS, "m.json", b"[]"),
            (_PARAMS_ARGS, "p.json", b"[]"),
            (_REPORT_ARGS, "r.json", b"[]"),
            (_PARAMS_ARGS, "p.json", b'{"shape": {"zpl_center": 637}}'),
            (_PARAMS_ARGS, "p.json", b'{"grid": {"lo": "a"}}'),
            (_PARAMS_ARGS, "p.json", b'{"grid": [550, 850]}'),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"width": 2', b'"width": 1e400')),
            (_REPORT_ARGS, "r.json", b'{"inputs": 5}'),
            (_REPORT_ARGS, "r.json", b'{"inputs": [["a", "b", "c"]]}'),
            (_REPORT_ARGS, "r.json", b'{"parameters": [["a", 1], [2, 3]]}'),
            (_REPORT_ARGS, "r.json", b'{"command": "\\ud800"}'),
            (_REPORT_ARGS, "r.json", b"[" * 100_000 + b"]" * 100_000),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"width": 2', b'"width": 2' + b"0" * 5000)),
            # Each first array is petabytes, past any address space, so allocation fails at once.
            (_LETTER_MAP_ARGS, "p.json", b'{"width": 1000000000, "height": 1000000000}'),
            (_PARAMS_ARGS, "p.json", b'{"grid": {"step": 1e-12}}'),
        ],
        ids=[
            "spectrum-not-utf8",
            "plmap-csv-not-utf8",
            "sidecar-not-utf8",
            "params-not-utf8",
            "report-not-utf8",
            "sidecar-list",
            "params-list",
            "report-list",
            "params-missing-key",
            "params-bad-float",
            "params-grid-list",
            "sidecar-overflow",
            "report-inputs-number",
            "report-inputs-triple",
            "report-parameters-pairs",
            "report-lone-surrogate",
            "report-deep-nesting",
            "sidecar-int-too-long",
            "params-letter-map-too-large",
            "params-grid-too-fine",
        ],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, monkeypatch, argv, name, data):
        (tmp_path / "s.csv").write_text("600.0,1.0\n601.0,2.0\n")
        (tmp_path / "m.json").write_bytes(_SIDECAR)
        (tmp_path / "m.csv").write_text("1.0,2.0\n")
        (tmp_path / name).write_bytes(data)
        rc = main([a.format(d=tmp_path) for a in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # The line reader alone gives the same exit and message.
        monkeypatch.setattr(fileio, "_fast_rows", lambda path, width: None)
        assert main([a.format(d=tmp_path) for a in argv]) == rc
        assert capsys.readouterr().err == err

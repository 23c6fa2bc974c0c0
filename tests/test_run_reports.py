"""Every command's run report and closing stdout line against fixtures, and the
exit-4 path of every command that writes a report.

The fixtures in ``tests/golden/reports.json`` were written by the code in which
each command saved its own report and printed its own line. Regenerate them
(after an intentional change to a report or a closing line) with
``write_golden_reports(Path("tests/golden/reports.json"))``.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from nvunmix import PLMap, Spectrum, save_map, save_spectrum
from nvunmix.cli import main

GOLDEN = Path(__file__).parent / "golden" / "reports.json"

# case: (argv, report path); "{d}" is the run's directory
_CASES = {
    "decompose": (
        ["decompose", "--low", "{d}/low.csv", "--high", "{d}/high.csv",
         "--out-nv0", "{d}/nv0.csv", "--out-nvm", "{d}/nvm.csv"],
        "{d}/nv0.report.json",
    ),
    "fit-series": (
        ["fit-series", "--basis-nv0", "{d}/b0.csv", "--basis-nvm", "{d}/bm.csv",
         "--series", "{d}/series.json", "--out-table", "{d}/table.csv",
         "--out-surface", "{d}/surface.csv"],
        "{d}/table.report.json",
    ),
    "transmissivity": (
        ["transmissivity", "--spectrum", "{d}/low.csv", "--width", "5", "--window", "600:700",
         "--report", "{d}/t.json"],
        "{d}/t.json",
    ),
    "unmix-map-field": (
        ["unmix-map-field", "--low", "{d}/lowmap", "--high", "{d}/highmap", "--f", "2",
         "--out", "{d}/field"],
        "{d}/field.nv0.report.json",
    ),
    "unmix-map-filter": (
        ["unmix-map-filter", "--m0", "{d}/lowmap.json", "--mlpf", "{d}/highmap.csv", "--t0", "0.25",
         "--tm", "0.75", "--out", "{d}/filter", "--report", "{d}/filter.json"],
        "{d}/filter.json",
    ),
    "render-spectrum": (
        ["render", "--spectrum", "{d}/low.csv", "--out", "{d}/low.svg", "--zpl-guides",
         "--report", "{d}/svg.json"],
        "{d}/svg.json",
    ),
    "render-map": (
        ["render", "--map", "{d}/lowmap", "--out", "{d}/low.pgm", "--clamp", "--clip", "0:60",
         "--report", "{d}/pgm.json"],
        "{d}/pgm.json",
    ),
    "simulate-spectrum": (
        ["simulate", "spectrum", "--params", "{d}/spectrum.json", "--out", "{d}/sim-spectrum"],
        "{d}/sim-spectrum/metadata.json",
    ),
    "simulate-sweep": (
        ["simulate", "sweep", "--params", "{d}/sweep.json", "--seed", "3", "--out", "{d}/sim-sweep"],
        "{d}/sim-sweep/metadata.json",
    ),
    "simulate-letter-map": (
        ["simulate", "letter-map", "--params", "{d}/letter.json", "--out", "{d}/sim-letter"],
        "{d}/sim-letter/metadata.json",
    ),
    "simulate-field-map-pair": (
        ["simulate", "field-map-pair", "--params", "{d}/pair.json", "--out", "{d}/sim-pair"],
        "{d}/sim-pair/metadata.json",
    ),
}


def write_inputs(d: Path) -> None:
    """Inputs of small integers, so their bytes (and the digests a report records)
    are the same on every platform."""
    grid = np.arange(560.0, 701.0)
    def peak(center, height, slope):
        return np.maximum(0.0, height - slope * np.abs(grid - center))

    s0 = peak(575.0, 30.0, 10.0) + peak(600.0, 40.0, 5.0)
    sm = peak(637.0, 30.0, 15.0) + peak(670.0, 20.0, 1.0)
    save_spectrum(Spectrum(grid, s0 + 6.0 * sm), d / "low.csv")
    save_spectrum(Spectrum(grid, s0 + 5.0 * sm), d / "high.csv")
    # Basis shapes on disjoint supports, as in the fit-series format goldens.
    grid = np.arange(600.0, 612.0)
    b0 = np.array([0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    bm = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 4.0, 2.0, 0.0, 0.0])
    save_spectrum(Spectrum(grid, b0), d / "b0.csv")
    save_spectrum(Spectrum(grid, bm), d / "bm.csv")
    cminus = {170.3: 62000.0, 400.5: 57000.0, 975.0: 58000.0}
    for i, cm in enumerate(cminus.values()):
        save_spectrum(Spectrum(grid, 2500.0 * b0 + cm * bm / 8.0), d / f"s{i}.csv")
    (d / "series.json").write_text(
        json.dumps([{"b_field_gauss": b, "path": f"s{i}.csv"} for i, b in enumerate(cminus)]))
    low = np.array([[10.0, 20.0, 30.0, 0.0], [40.0, 50.0, 60.0, 5.0], [0.0, 7.0, 8.0, 9.0]])
    high = np.array([[9.0, 12.0, 30.0, 0.0], [33.0, 41.0, 44.0, 4.0], [0.0, 6.0, 9.0, 2.0]])
    save_map(PLMap(low, pixel_pitch_um=0.5), d / "lowmap")
    save_map(PLMap(high, pixel_pitch_um=0.5), d / "highmap")
    (d / "spectrum.json").write_text(json.dumps({"grid": {"lo": 600, "hi": 610, "step": 1}}))
    (d / "sweep.json").write_text(json.dumps(
        {"fields": [170.0, 400.5, 975.0], "noise": {"kind": "none"},
         "grid": {"lo": 600.0, "hi": 610.0, "step": 1.0}}))
    (d / "letter.json").write_text(json.dumps({"width": 24, "height": 16, "t0": 0.3, "tminus": 0.8}))
    (d / "pair.json").write_text(
        json.dumps({"suppression": 0.25, "letter_map": {"width": 24, "height": 16}}))


def _fill(template, d: Path):
    if isinstance(template, str):
        return template.replace("{d}", str(d))
    return [_fill(t, d) for t in template]


def _mask(value, d: Path):
    """``value`` with the run directory written as "{d}"."""
    if isinstance(value, str):
        return value.replace(str(d), "{d}")
    if isinstance(value, list):
        return [_mask(v, d) for v in value]
    if isinstance(value, dict):
        return {k: _mask(v, d) for k, v in value.items()}
    return value


def _without_report(argv: list[str]) -> list[str]:
    if "--report" not in argv:
        return argv
    i = argv.index("--report")
    return argv[:i] + argv[i + 2:]


def run_case(case: str, d: Path) -> dict:
    """The masked stdout and report of one case, run in ``d``."""
    argv, report = _CASES[case]
    with redirect_stdout(io.StringIO()) as out:
        assert main(_fill(argv, d)) == 0
    written = json.loads(Path(_fill(report, d)).read_text())
    assert isinstance(written.pop("timestamp"), str)
    return {"stdout": _mask(out.getvalue(), d), "report": _mask(written, d)}


def _assert_same(got, want, where="report"):
    """Equal, floats to 1e-9 relative: a derived diagnostic may differ in its last
    bits between numpy builds. Key order counts."""
    if isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-9), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


def write_golden_reports(path: Path) -> None:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in _CASES:
            d = Path(tmp) / case
            d.mkdir()
            write_inputs(d)
            golden[case] = run_case(case, d)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.fixture
def inputs(tmp_path) -> Path:
    write_inputs(tmp_path)
    return tmp_path


@pytest.mark.parametrize("case", _CASES)
def test_report_and_stdout_match_golden(inputs, case):
    want = json.loads(GOLDEN.read_text())[case]
    got = run_case(case, inputs)
    assert got["stdout"] == want["stdout"]
    _assert_same(got["report"], want["report"])


@pytest.mark.parametrize("case", _CASES)
def test_unwritable_report_exits_4_after_the_outputs(inputs, capsys, case):
    """Exit 4 with one line on stderr and nothing on stdout; the outputs written
    before the report stay."""
    argv, report = _CASES[case]
    if argv[0] == "simulate":
        Path(_fill(report, inputs)).mkdir(parents=True)  # metadata.json is a directory
    else:
        argv = _without_report(argv) + ["--report", "{d}/missing/r.json"]
    assert main(_fill(argv, inputs)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
    for output in json.loads(GOLDEN.read_text())[case]["report"]["outputs"]:
        assert Path(_fill(output, inputs)).is_file()


_REPORT = {
    "command": "simulate sweep",
    "inputs": [["p.json", "ab12cd"], ["/dev/fd/3", None]],
    "parameters": {"unconstrained": False, "seed": 3, "f_range": "1:50",
                   "params": {"grid": {"lo": 600.0, "step": 0.2}, "fields": [170, 975.5]}},
    "outputs": ["a.csv", "b c.csv"],
    "diagnostics": {"f": 6.123456789, "rows": 24, "f_at_bound": True, "nvm_fraction_mean": None,
                    "zpl_metric": 1.5e-07, "noise": "poisson", "big": 1e300},
    "timestamp": "2026-01-02T03:04:05+00:00",
}
# report --run output of the code that printed each line in turn
_PRINTED = (
    "command:    simulate sweep\n"
    "timestamp:  2026-01-02T03:04:05+00:00\n"
    "inputs:\n"
    "  p.json  sha256=ab12cd\n"
    "  /dev/fd/3  sha256=null\n"
    "parameters:\n"
    "  f_range = 1:50\n"
    "  params = {\"grid\": {\"lo\": 600.0, \"step\": 0.2}, \"fields\": [170, 975.5]}\n"
    "  seed = 3\n"
    "  unconstrained = false\n"
    "outputs:\n"
    "  a.csv\n"
    "  b c.csv\n"
    "diagnostics:\n"
    "  big = 1e+300\n"
    "  f = 6.12346\n"
    "  f_at_bound = true\n"
    "  noise = poisson\n"
    "  nvm_fraction_mean = null\n"
    "  rows = 24\n"
    "  zpl_metric = 1.5e-07\n"
)


@pytest.mark.parametrize("report, printed", [
    (_REPORT, _PRINTED),
    ({"command": "render"}, "command:    render\ntimestamp:  \ninputs:\nparameters:\noutputs:\ndiagnostics:\n"),
])
def test_report_run_prints_every_field(tmp_path, capsys, report, printed):
    (tmp_path / "r.json").write_text(json.dumps(report))
    assert main(["report", "--run", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr() == (printed, "")

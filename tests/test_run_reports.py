"""Every command's run report and closing stdout line against fixtures, the run each
report replays on its own, and the exit-4 path of every command that writes a report.

The fixtures in ``tests/golden/reports.json`` were written by the code in which
each command saved its own report and printed its own line. Regenerate them
(after an intentional change to a report or a closing line) with
``write_golden_reports(Path("tests/golden/reports.json"))``.
"""

import builtins
import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from nvunmix import PLMap, Spectrum, fileio
from nvunmix.cli import build_parser, main
from nvunmix.fileio import save_map, save_spectrum

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


def replayed_argv(report: dict) -> list[str]:
    """The command line a report records: its command, ``kind`` as a positional, then each
    other parameter as ``--<dest with dashes>=value`` (so a value may start with ``-``), a
    true flag bare, a null or false one left out."""
    parameters = dict(report["parameters"])
    argv = [report["command"]]
    if "kind" in parameters:
        argv.append(parameters.pop("kind"))
    for dest, value in parameters.items():
        if value is None or value is False:
            continue
        flag = "--" + dest.replace("_", "-")
        argv.append(flag if value is True else f"{flag}={value}")
    return argv


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
    # The parser declares the path main saves the report at; report --run saves none.
    argv, report = (_fill(t, inputs) for t in _CASES[case])
    args = build_parser().parse_args(argv)
    assert args.report_at(args) == report
    args = build_parser().parse_args(["report", "--run", report])
    assert args.report_at(args) is None


@pytest.mark.parametrize("case", _CASES)
def test_report_alone_replays_the_run(tmp_path, case):
    """The command line rebuilt from a report alone, rerun in a fresh directory that holds
    the same inputs, exits 0, writes the same bytes and the same report, with the directory
    and the timestamp masked."""
    first, second = tmp_path / "first", tmp_path / "second"
    for d in (first, second):
        d.mkdir()
        write_inputs(d)
    want = run_case(case, first)
    argv = _fill(replayed_argv(want["report"]), second)
    with redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    got = json.loads(Path(_fill(_CASES[case][1], second)).read_text())
    assert isinstance(got.pop("timestamp"), str)
    assert _mask(got, second) == want["report"]
    assert _mask(out.getvalue(), second) == want["stdout"]
    for output in want["report"]["outputs"]:
        assert Path(_fill(output, second)).read_bytes() == Path(_fill(output, first)).read_bytes()


def test_report_alone_replays_a_value_starting_with_a_dash(tmp_path):
    """``--clip=-5:5`` is recorded as ``"-5:5"``, which argparse takes for an option when
    it stands alone; the replay from the report alone exits 0 with the same bytes and
    the same report."""
    first, second = tmp_path / "first", tmp_path / "second"
    for d in (first, second):
        d.mkdir()
        write_inputs(d)
    argv = ["render", "--map", "{d}/lowmap", "--out", "{d}/low.pgm", "--clip=-5:5",
            "--report", "{d}/r.json"]
    reports = []
    for d in (first, second):
        run = _fill(argv if d is first else replayed_argv(reports[0]), d)
        with redirect_stdout(io.StringIO()):
            assert main(run) == 0
        report = json.loads((d / "r.json").read_text())
        assert isinstance(report.pop("timestamp"), str)
        reports.append(_mask(report, d))
    assert reports[0]["parameters"]["clip"] == "-5:5"
    assert reports[1] == reports[0]
    assert (second / "low.pgm").read_bytes() == (first / "low.pgm").read_bytes()


def test_transmissivity_report_records_the_negative_mode(inputs, capsys):
    """On a spectrum with no negative value, --negative error and --negative allow give
    reports that differ in parameters.negative only."""
    argv, report = _CASES["transmissivity"]
    reports = {}
    for mode in ("error", "allow"):
        assert main(_fill(argv + ["--negative", mode], inputs)) == 0
        reports[mode] = json.loads(Path(_fill(report, inputs)).read_text())
        reports[mode].pop("timestamp")
        assert reports[mode]["parameters"].pop("negative") == mode
    assert reports["error"] == reports["allow"]


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
    "inputs": [["p.json", "ab12cd"], ["/dev/fd/3", "ef34"]],
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
    "  /dev/fd/3  sha256=ef34\n"
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


@pytest.mark.parametrize("report, printed", [(_REPORT, _PRINTED)], ids=["every_field"])
def test_report_run_prints_every_field(tmp_path, capsys, report, printed):
    (tmp_path / "r.json").write_text(json.dumps(report))
    assert main(["report", "--run", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr() == (printed, "")


@pytest.mark.parametrize("value, refusal", [
    ({}, "command: missing required key"),
    ({"command": "render"}, "inputs: missing required key"),
    (None, "format: unknown key"),
    (_REPORT | {"schema": 1}, "schema: unknown key"),
    (_REPORT | {"inputs": [["p.json", "ab12cd"], ["/dev/fd/3", None]]},
     "inputs[1][1]: expected a JSON string, got null"),
], ids=["empty", "command_only", "plmap_sidecar", "unknown_key", "null_digest"])
def test_report_run_refuses_a_file_that_is_not_a_run_report(tmp_path, capsys, value, refusal):
    """A JSON object that is not a run report by its key spec (None: a plmap sidecar) exits 2
    with one line naming the file and the first key refused, instead of printing a report."""
    if value is None:
        path = Path(save_map(PLMap(np.ones((1, 2))), tmp_path / "m")[0])
    else:
        path = tmp_path / "r.json"
        path.write_text(json.dumps(value))
    assert main(["report", "--run", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: not a run report: {refusal}\n")


@pytest.mark.parametrize("text", [
    '{"command": "x", "inputs": [], "parameters": {"p": NaN}, "outputs": [], '
    '"diagnostics": {"f": Infinity}, "timestamp": ""}',
    '{"command": "x", "inputs": [], "parameters": {"params": {"grid": {"lo": [1, -Infinity]}}}, '
    '"outputs": [], "diagnostics": {}, "timestamp": ""}',
], ids=["top_level", "nested"])
def test_report_run_refuses_a_nan_or_an_infinity(tmp_path, capsys, text):
    """No run writes NaN or Infinity (reports are strict JSON), so a report holding one at
    any depth exits 2 with one line naming the file, instead of printing ``nan``."""
    (tmp_path / "r.json").write_text(text)
    assert main(["report", "--run", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr() == (
        "", f"error: {tmp_path / 'r.json'}: not a run report: holds a NaN or an infinity\n")


@pytest.mark.parametrize("spelling", ["same path", "symlink"])
def test_input_the_run_wrote_over_has_the_digest_of_what_was_read(inputs, spelling):
    """An input that is now one of the run's outputs keeps the digest of the bytes the run
    read, not the output's."""
    low = (inputs / "low.csv").read_bytes()
    out = inputs / "low.csv"
    if spelling == "symlink":
        (inputs / "link.csv").symlink_to(out)
        out = inputs / "link.csv"
    argv = ["decompose", "--low", str(inputs / "low.csv"), "--high", str(inputs / "high.csv"),
            "--out-nv0", str(out), "--out-nvm", str(inputs / "nvm.csv"),
            "--report", str(inputs / "r.json")]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert (inputs / "low.csv").read_bytes() != low  # the run wrote over it
    report = json.loads((inputs / "r.json").read_text())
    high = hashlib.sha256((inputs / "high.csv").read_bytes()).hexdigest()
    assert report["inputs"] == [[str(inputs / "low.csv"), hashlib.sha256(low).hexdigest()],
                                [str(inputs / "high.csv"), high]]


def test_an_input_read_twice_is_listed_twice(inputs):
    """A manifest that names one spectrum at two fields gives a report that lists it at each,
    with its sha256, in manifest order after the bases and the manifest."""
    (inputs / "series.json").write_text(json.dumps([
        {"b_field_gauss": 170.0, "path": "s0.csv"}, {"b_field_gauss": 400.0, "path": "s1.csv"},
        {"b_field_gauss": 975.0, "path": "s0.csv"}]))
    argv, report = _CASES["fit-series"]
    with redirect_stdout(io.StringIO()):
        assert main(_fill(argv, inputs)) == 0
    names = ["b0.csv", "bm.csv", "series.json", "s0.csv", "s1.csv", "s0.csv"]
    want = [[str(inputs / name), hashlib.sha256((inputs / name).read_bytes()).hexdigest()]
            for name in names]
    assert json.loads(Path(_fill(report, inputs)).read_text())["inputs"] == want


def _file_events(monkeypatch, argv) -> list[tuple[str, str, str]]:
    """Each ``("read", path, "")`` through ``fileio._read`` and ``("open", path, mode)``
    through ``open`` of one successful run of ``argv``, in order."""
    events = []
    read, opened = fileio._read, builtins.open

    def counted_read(path):
        events.append(("read", os.fspath(path), ""))
        return read(path)

    def counted_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            events.append(("open", os.fspath(file), mode))
        return opened(file, mode, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(fileio, "_read", counted_read)
        m.setattr(builtins, "open", counted_open)
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return events


@pytest.mark.parametrize("case", _CASES)
def test_each_input_is_read_once_before_any_output(inputs, monkeypatch, case):
    """Every input a report names goes through ``_read`` and is opened once in the run, and
    no input is opened once the run has begun writing; ``report --run`` reads its one report
    once."""
    argv, report = _CASES[case]
    events = _file_events(monkeypatch, _fill(argv, inputs))
    named = [path for path, _ in json.loads(Path(_fill(report, inputs)).read_text())["inputs"]]
    assert len(set(named)) == len(named)
    assert sorted(path for kind, path, _ in events if kind == "read") == sorted(named)
    assert sorted(path for kind, path, _ in events if kind == "open" and path in named) == sorted(named)
    first_write = next(k for k, (_, _, mode) in enumerate(events) if "w" in mode)
    assert not [e for e in events[first_write:] if e[1] in named]

    events = _file_events(monkeypatch, ["report", "--run", _fill(report, inputs)])
    assert [e for e in events if e[0] == "read"] == [("read", _fill(report, inputs), "")]
    assert not [e for e in events if "w" in e[2]]

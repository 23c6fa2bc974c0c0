"""The benchmark's two workloads: seeded inputs, one job, and its output check.

Inputs are generated before timing with ``nvunmix.synth`` and a numpy RNG for
the noise; a job receives only the generated files or objects. Each job is
one unit of user work whose parts run back to back. The program is always
reached through module attributes (``basisfit.fit_series``, ``cli.main``) so
the tracer's patches see every call.

A check raises ``CheckFailed``; the runner counts that job as failed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

from nvunmix import basisfit, cli, fileio, filters, maps, spectrum, synth

decompose_mod = importlib.import_module("nvunmix.decompose")

GRID = np.linspace(550.0, 850.0, 1501)  # the paper's 0.2 nm grid
SHAPES = (synth.DEFAULT_NV0_SHAPE, synth.DEFAULT_NVM_SHAPE)
RESPONSE = synth.DEFAULT_FIELD_RESPONSE
NOISE = synth.NoiseModel("poisson", scans=3000, dwell=0.01)  # as acceptance c5
F_TRUE = 62000.0 / (62000.0 - 52000.0)  # 170 G / 975 G pair of the default response


class CheckFailed(Exception):
    """A job's output disagrees with what its inputs imply."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class CliJob:
    """Runs a fixed list of ``nvunmix`` command lines through ``cli.main``.

    ``step_s`` holds the wall time of each command of the last run; the runner
    times such a job step by step.
    """

    uses_cli = True

    def __init__(self, commands: list[list[str]]) -> None:
        self.commands = commands
        self.step_s: list[float] = []

    def run(self) -> list[int]:
        codes, self.step_s = [], []
        for argv in self.commands:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code
            self.step_s.append(time.perf_counter() - start)
            codes.append(code)
            if code != 0:
                break
        return codes

    def check(self, codes: list[int], stdout: str) -> None:
        _require(len(codes) == len(self.commands) and not any(codes),
                 f"exit codes {codes} for {len(self.commands)} commands")
        self.check_outputs(stdout)

    def check_outputs(self, stdout: str) -> None:
        raise NotImplementedError


def _basis_files(work: str) -> tuple[str, str]:
    paths = (os.path.join(work, "basis_nv0.csv"), os.path.join(work, "basis_nvm.csv"))
    for shape, path in zip(SHAPES, paths):
        fileio.save_spectrum(synth.make_spectrum(shape, GRID, 1.0), path)
    return paths


class SweepCli(CliJob):
    """``fit-series --out-surface`` on an 8-field sweep written once."""

    FIELDS = np.linspace(170.0, 975.0, 8)

    def __init__(self, work: str, seed: int) -> None:
        b0, bm = _basis_files(work)
        manifest = []
        for i, b in enumerate(self.FIELDS):
            # make_sweep's per-field substreams, one spectrum in memory at a time
            s = synth.make_field_spectrum(b, RESPONSE, SHAPES, GRID, NOISE, seed=[seed, i])
            name = f"spec_{i:04d}.csv"
            fileio.save_spectrum(s, os.path.join(work, name))
            manifest.append({"b_field_gauss": float(b), "path": name})
        series = os.path.join(work, "manifest.json")
        with open(series, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        out = os.path.join(work, "out")
        os.makedirs(out)
        self.table = os.path.join(out, "table.csv")
        self.surface = os.path.join(out, "surface.csv")
        self.report = os.path.join(out, "table.report.json")
        super().__init__([["fit-series", "--basis-nv0", b0, "--basis-nvm", bm,
                           "--series", series, "--out-table", self.table,
                           "--out-surface", self.surface]])
        # Standard deviation of each unconstrained least-squares coefficient under
        # Poisson counting noise: var = M^2 @ clean / exposure with M = (A^T A)^-1 A^T.
        a = np.stack([synth.make_spectrum(s, GRID, 1.0).intensities for s in SHAPES])
        m = np.linalg.solve(a @ a.T, a)
        cminus = np.array([RESPONSE.cminus(b) for b in self.FIELDS])
        clean = RESPONSE.c0_const * a[0][None, :] + cminus[:, None] * a[1][None, :]
        exposure = NOISE.scans * NOISE.dwell
        self.truth = np.stack([np.full_like(cminus, RESPONSE.c0_const), cminus], axis=1)
        self.sigma = np.sqrt(clean @ (m**2).T / exposure)

    def check_outputs(self, stdout: str) -> None:
        n = len(self.FIELDS)
        pairs = n * (n - 1) // 2
        with open(self.table, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        _require(len(rows) == n, f"table has {len(rows)} rows, expected {n}")
        got = np.array([[float(r[1]), float(r[2])] for r in rows])
        z = (got - self.truth) / self.sigma
        # A |z| above 6 has odds ~2e-9 per coefficient, and the RMS z-score of a
        # correct fit lies within six of its standard errors, 1/sqrt(2 z.size), of 1.
        _require(float(np.max(np.abs(z))) <= 6.0, f"coefficient off by {np.max(np.abs(z)):.1f} sigma")
        rms = float(np.sqrt(np.mean(z**2)))
        band = 6.0 / np.sqrt(2 * z.size)
        _require(abs(rms - 1.0) <= band, f"RMS z-score {rms:.3f} outside 1 +/- {band:.3f}")
        with open(self.surface, "rb") as fh:
            surface_rows = fh.read().count(b"\n") - 1
        with open(self.report, encoding="utf-8") as fh:
            diag = json.load(fh)["diagnostics"]
        _require(diag["rows"] == n, f"report rows {diag['rows']}")
        _require(surface_rows == diag["surface_pairs"]
                 and diag["surface_pairs"] + diag["surface_skipped"] == pairs,
                 f"surface rows {surface_rows} + skipped {diag['surface_skipped']} != {pairs}")


class MapCli(CliJob):
    """``unmix-map-filter``, ``unmix-map-field`` and ``render --map`` on 64x64 maps."""

    SIZE = 64
    EXPOSURE = 0.3  # s per pixel; counts / exposure leaves full-precision cells
    BACKGROUND = 0.1  # uniform PL outside the letters, as a fraction of the letter level

    def __init__(self, work: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        nv0, nvm = synth.make_letter_map(self.SIZE, self.SIZE)
        nv0 = nv0.values + self.BACKGROUND * 8000.0
        nvm = nvm.values + self.BACKGROUND * 12000.0
        t = filters.transmissivity_pair(
            synth.make_spectrum(SHAPES[0], GRID, 1.0),
            synth.make_spectrum(SHAPES[1], GRID, 1.0),
            filters.FilterModel(),
        )
        suppression = 1.0 / F_TRUE
        clean = {
            "m0": nv0 + nvm,
            "mlpf": t.t0 * nv0 + t.tminus * nvm,
            "low": nv0 + nvm,
            "high": nv0 + (1.0 - suppression) * nvm,
        }
        self.peak = {}
        for name, values in clean.items():
            noisy = rng.poisson(values * self.EXPOSURE) / self.EXPOSURE
            fileio.save_map(maps.PLMap(noisy, 0.1), os.path.join(work, name))
            self.peak[name] = float(np.max(np.abs(noisy)))
        out = os.path.join(work, "out")
        os.makedirs(out)
        self.reports = {
            "m0": os.path.join(out, "filter.nv0.report.json"),
            "low": os.path.join(out, "field.nv0.report.json"),
        }
        self.pgm = os.path.join(out, "filter_nv0.pgm")
        w = functools.partial(os.path.join, work)
        super().__init__([
            ["unmix-map-filter", "--m0", w("m0"), "--mlpf", w("mlpf"),
             "--t0", repr(t.t0), "--tm", repr(t.tminus), "--out", os.path.join(out, "filter")],
            ["unmix-map-field", "--low", w("low"), "--high", w("high"),
             "--f", repr(F_TRUE), "--out", os.path.join(out, "field")],
            ["render", "--map", os.path.join(out, "filter.nv0"), "--out", self.pgm],
        ])

    def check_outputs(self, stdout: str) -> None:
        for source, path in self.reports.items():
            with open(path, encoding="utf-8") as fh:
                residual = json.load(fh)["diagnostics"]["reconstruction_residual"]
            # acceptance c1: reconstruction within 1e-12 relative
            _require(residual <= 1e-12 * self.peak[source],
                     f"{os.path.basename(path)}: reconstruction residual {residual!r}")
        with open(self.pgm, "rb") as fh:
            head = fh.read(512).decode("ascii").split("\n")
        dims = [line for line in head[1:] if not line.startswith("#")][0]
        _require(head[0] == "P2" and dims == f"{self.SIZE} {self.SIZE}",
                 f"PGM header {head[:4]!r}")


class CliSmall(CliJob):
    """``decompose``, ``render --spectrum``, ``transmissivity`` and ``report``."""

    def __init__(self, work: str, seed: int) -> None:
        low = synth.make_field_spectrum(170.0, RESPONSE, SHAPES, GRID, NOISE, seed=[seed, 0])
        high = synth.make_field_spectrum(975.0, RESPONSE, SHAPES, GRID, NOISE, seed=[seed, 1])
        low_path, high_path = os.path.join(work, "low.csv"), os.path.join(work, "high.csv")
        fileio.save_spectrum(low, low_path)
        fileio.save_spectrum(high, high_path)
        t = filters.transmissivity(fileio.load_spectrum(low_path), filters.FilterModel(),
                                   spectrum.WavelengthWindow(550.0, 850.0))
        self.expected = f"{t:.6g}"
        out = os.path.join(work, "out")
        os.makedirs(out)
        o = functools.partial(os.path.join, out)
        super().__init__([
            ["decompose", "--low", low_path, "--high", high_path,
             "--out-nv0", o("nv0.csv"), "--out-nvm", o("nvm.csv")],
            ["render", "--spectrum", o("nv0.csv"), "--out", o("nv0.svg"),
             "--report", o("render.report.json")],
            ["transmissivity", "--spectrum", low_path, "--report", o("t.report.json")],
            ["report", "--run", o("nv0.report.json")],
        ])

    def check_outputs(self, stdout: str) -> None:
        lines = stdout.splitlines()
        _require(self.expected in lines,
                 f"printed transmissivity is not the in-process value {self.expected}")


class Cli(CliJob):
    """The three command groups above, one after another, each in its own directory.

    One job covers every layer the CLI reaches (spec-csv and plmap I/O, reports,
    basisfit, maps, filters, both renderers). The sizes above keep each
    command near 20 ms or less; see ``bench/run.py`` for why steps are short.
    """

    def __init__(self, work: str, seed: int) -> None:
        self.parts = []
        for part in (SweepCli, MapCli, CliSmall):
            path = os.path.join(work, part.__name__)
            os.makedirs(path)
            self.parts.append(part(path, seed))
        super().__init__([argv for part in self.parts for argv in part.commands])

    def check_outputs(self, stdout: str) -> None:
        for part in self.parts:
            part.check_outputs(stdout)


class Library:
    """The in-memory API chain on a pool of noisy 24-field sweeps; no files."""

    uses_cli = False
    POOL = 16
    F_BAND = 0.8  # |f - 6.2|; the noisy f has sd ~0.13 around ~6.12

    def __init__(self, work: str, seed: int) -> None:
        self.basis = spectrum.BasisPair(*(synth.make_spectrum(s, GRID, 1.0) for s in SHAPES))
        self.pool = [
            synth.make_sweep(RESPONSE.fields, RESPONSE, SHAPES, GRID, NOISE, seed=seed * self.POOL + k)
            for k in range(self.POOL)
        ]
        self.turn = 0

    def run(self):
        entries = self.pool[self.turn % self.POOL]
        self.turn += 1
        series = basisfit.FieldSeries.ingest(entries)
        table = basisfit.fit_series(series, self.basis)
        surface = basisfit.scale_factor_surface(table)
        b_min = basisfit.find_full_mixing_field(table)
        result = decompose_mod.decompose(series.entries[0][1], series.entries[-1][1])
        return table, surface, b_min, result

    def check(self, outputs, stdout: str) -> None:
        table, surface, b_min, result = outputs
        n = len(RESPONSE.fields)
        _require(len(table) == n, f"table has {len(table)} rows")
        _require(len(surface.rows) + len(surface.skipped) == n * (n - 1) // 2,
                 "surface pairs do not cover every field pair")
        _require(b_min == 829.0, f"full-mixing field {b_min} G, expected 829 G")
        _require(abs(result.f - F_TRUE) <= self.F_BAND, f"f = {result.f} outside 6.2 +/- 0.8")


WORKLOADS = {
    "cli": Cli,
    "library": Library,
}

"""Command-line interface.

Exit codes: 0 success, 2 validation/parse error, 3 numerical error
(singularity/identifiability), 4 I/O error. ``fileio`` reads every input file
(JSON through ``load_json``) and writes every CSV and JSON output. Each command
returns a ``_Run``; ``main`` saves its report, capturing inputs (with hashes),
effective parameters, outputs and diagnostics, after every output is written, and
then prints its message.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .basisfit import FieldSeries, fit_series, scale_factor_surface
from .decompose import ScaleSearchConfig, ZplArtifactConfig, decompose
from .errors import (
    IdentifiabilityError,
    NoMinimumError,
    NvUnmixError,
    ParseError,
    SingularityError,
    ValidationError,
)
from .fileio import RunReport, load_json, load_map, load_spectrum, map_paths
from .fileio import save_csv, save_json, save_map, save_spectrum
from .filters import FilterModel, TabulatedFilter, TransmissivityPair, transmissivity
from .maps import PLMap, field_unmix, filter_unmix, fraction_map
from .render import render_map_pgm, render_spectrum_svg
from .spectrum import BasisPair, WavelengthWindow, resample
from .synth import (
    DEFAULT_FIELD_RESPONSE,
    DEFAULT_NV0_SHAPE,
    DEFAULT_NVM_SHAPE,
    NOISELESS,
    make_field_map_pair,
    make_letter_map,
    make_spectrum,
    make_sweep,
)

_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
_EXIT_IO = 4


@dataclass
class _Run:
    """What one command did: the report ``main`` saves at ``report`` (None: no
    report) and the ``message`` it prints after that."""

    report: str | None
    command: str
    inputs: list[str] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    message: str = ""


def _parse_window(text: str) -> WavelengthWindow:
    return WavelengthWindow(*_parse_range(text))


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise ValidationError(f"bad range {text!r} (expected LO:HI)") from exc


def _load_filter(args) -> tuple[FilterModel | TabulatedFilter, dict]:
    """The filter the flags select, and the parameters that define it."""
    sigmoid = {"t_max": args.tmax, "center": args.center, "width": args.width}
    sigmoid = {name: value for name, value in sigmoid.items() if value is not None}
    if args.filter_table:
        if sigmoid:
            raise ValidationError("--tmax, --center and --width do not apply with --filter-table")
        spec = load_spectrum(args.filter_table, negative="error")
        table = TabulatedFilter(spec.wavelengths, spec.intensities)
        return table, {"filter_table": args.filter_table}
    fm = FilterModel(**sigmoid)
    return fm, {"tmax": fm.t_max, "center": fm.center, "width": fm.width, "filter_table": None}


def cmd_decompose(args) -> _Run:
    run = _Run(
        args.report or os.path.splitext(args.out_nv0)[0] + ".report.json",
        "decompose",
        [args.low, args.high],
        {
            "zpl_center": args.zpl_center,
            "zpl_window": args.zpl_window,
            "edge": args.edge,
            "f_range": args.f_range,
            "negative": args.negative,
        },
    )
    low = load_spectrum(args.low, negative=args.negative)
    high = load_spectrum(args.high, negative=args.negative)
    cfg = ZplArtifactConfig(args.zpl_center, _parse_window(args.zpl_window), args.edge)
    f_min, f_max = _parse_range(args.f_range)
    search = ScaleSearchConfig(f_min, f_max)
    result = decompose(low, high, cfg, search)
    save_spectrum(result.nv0, args.out_nv0)
    save_spectrum(result.nvminus, args.out_nvm)
    run.outputs += [args.out_nv0, args.out_nvm]
    run.diagnostics = {
        "f": result.f,
        "zpl_metric": result.zpl_metric,
        "nv0_zpl575_score": result.zpl575_score,
        "f_at_bound": result.f_at_bound,
    }
    run.message = f"f = {result.f:.6g}  zpl_metric = {result.zpl_metric:.6g}  report = {run.report}"
    return run


def cmd_fit_series(args) -> _Run:
    run = _Run(
        args.report or os.path.splitext(args.out_table)[0] + ".report.json",
        "fit-series",
        [args.basis_nv0, args.basis_nvm, args.series],
        {"unconstrained": args.unconstrained, "negative": args.negative},
    )
    basis = BasisPair.from_spectra(
        load_spectrum(args.basis_nv0, negative=args.negative),
        load_spectrum(args.basis_nvm, negative=args.negative),
    )
    manifest = load_json(args.series, list, "manifest")
    if not manifest:
        raise ParseError(f"{args.series}: manifest must be a non-empty JSON list of entries")
    if args.out_surface and len(manifest) < 2:
        raise ValidationError(f"{args.series}: --out-surface needs at least two field entries")
    base_dir = os.path.dirname(os.path.abspath(args.series))
    entries = []
    for i, item in enumerate(manifest):
        path = item.get("path") if isinstance(item, dict) else None
        if not isinstance(path, str) or "\0" in path:
            raise ParseError(f"{args.series}: entry {i} needs a file name string 'path'")
        try:
            b_field = float(item["b_field_gauss"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{args.series}: entry {i} needs a numeric 'b_field_gauss'") from exc
        path = os.path.join(base_dir, path)  # an absolute path replaces base_dir
        run.inputs.append(path)
        entries.append((b_field, load_spectrum(path, negative=args.negative)))
    series = FieldSeries.ingest(entries)
    del entries  # the series shares one grid; drop the loaded spectra's own grids
    grid = series.entries[0][1].wavelengths
    if not np.array_equal(basis.grid, grid):
        basis = BasisPair.from_spectra(
            resample(basis.s0, grid), resample(basis.sminus, grid)
        )
    table = fit_series(series, basis, nonneg=not args.unconstrained)
    save_csv(args.out_table, "b_gauss,c0,cminus,residual",
             (table.b_fields, table.c0, table.cminus, table.residuals))
    surface = scale_factor_surface(table) if len(table) >= 2 else None
    run.outputs.append(args.out_table)
    if args.out_surface:
        save_csv(args.out_surface, "b1,b2,f", (surface.b1, surface.b2, surface.f))
        run.outputs.append(args.out_surface)
    run.diagnostics = {
        "rows": len(table),
        "surface_pairs": surface.f.size if surface else 0,
        "surface_skipped": surface.skipped_b1.size if surface else 0,
    }
    run.message = f"fitted {len(table)} spectra  report = {run.report}"
    return run


def cmd_transmissivity(args) -> _Run:
    run = _Run(
        args.report,
        "transmissivity",
        [args.spectrum] + ([args.filter_table] if args.filter_table else []),
        {"window": args.window},
    )
    spec = load_spectrum(args.spectrum, negative=args.negative)
    fm, parameters = _load_filter(args)
    run.parameters.update(parameters)
    t = transmissivity(spec, fm, _parse_window(args.window))
    run.diagnostics["transmissivity"] = t
    run.message = f"{t:.6g}"
    return run


def _unmix_common(args, run, unmixed, low_like) -> _Run:
    run.outputs += save_map(unmixed.nv0, args.out + ".nv0")
    run.outputs += save_map(unmixed.nvminus, args.out + ".nvm")
    recon = unmixed.nv0.values + unmixed.nvminus.values
    residual = float(np.max(np.abs(recon - low_like.values)))
    del recon  # released before the fraction map is built, to keep the peak low
    frac, zero_total = fraction_map(unmixed, low_like)
    counted = frac.values.size - zero_total
    run.diagnostics = {
        "negative_pixel_count": unmixed.negative_pixel_count,
        "nv0_min": float(np.min(unmixed.nv0.values)),
        "nv0_max": float(np.max(unmixed.nv0.values)),
        "nvm_min": float(np.min(unmixed.nvminus.values)),
        "nvm_max": float(np.max(unmixed.nvminus.values)),
        "reconstruction_residual": residual,
        "zero_total_pixels": zero_total,
        # Zero-total pixels hold 0 in the map, so the sum covers the others.
        "nvm_fraction_mean": float(np.sum(frac.values)) / counted if counted else None,
    }
    run.message = (
        f"negative pixels: {unmixed.negative_pixel_count}  "
        f"reconstruction residual: {residual:.6g}  report = {run.report}"
    )
    return run


def cmd_unmix_map_field(args) -> _Run:
    run = _Run(
        args.report or args.out + ".nv0.report.json",
        "unmix-map-field",
        [*map_paths(args.low), *map_paths(args.high)],
        {"f": args.f, "negative": args.negative},
    )
    low = load_map(args.low, negative=args.negative)
    high = load_map(args.high, negative=args.negative)
    unmixed = field_unmix(low, high, args.f)
    return _unmix_common(args, run, unmixed, low)


def cmd_unmix_map_filter(args) -> _Run:
    run = _Run(
        args.report or args.out + ".nv0.report.json",
        "unmix-map-filter",
        [*map_paths(args.m0), *map_paths(args.mlpf)],
        {"t0": args.t0, "tm": args.tm, "negative": args.negative},
    )
    m0 = load_map(args.m0, negative=args.negative)
    mlpf = load_map(args.mlpf, negative=args.negative)
    unmixed = filter_unmix(m0, mlpf, TransmissivityPair(args.t0, args.tm))
    return _unmix_common(args, run, unmixed, m0)


def _section(params: dict, key: str) -> dict:
    """The settings object under ``key`` of a parameter file ({} when absent)."""
    value = params.get(key, {})
    if not isinstance(value, dict):
        raise TypeError(f"{key!r} must be a JSON object")
    return value


def _model(params: dict, key: str, default):
    """The model of ``default``'s type set under ``key``, else ``default``."""
    return type(default).from_dict(_section(params, key)) if key in params else default


def _simulate_spectrum(params, seed, out_dir) -> tuple[list[str], dict]:
    shape = _model(params, "shape", DEFAULT_NVM_SHAPE)
    grid = _grid_from_params(params)
    total = float(params.get("total_counts", 62000.0))
    spec = make_spectrum(shape, grid, total)
    path = os.path.join(out_dir, "spectrum.csv")
    save_spectrum(spec, path)
    return [path], {"total_counts": total, "points": len(spec)}


def _grid_from_params(params) -> np.ndarray:
    g = _section(params, "grid")
    lo = float(g.get("lo", 550.0))
    hi = float(g.get("hi", 850.0))
    step = float(g.get("step", 0.2))
    if not (hi > lo and step > 0.0):
        raise ValidationError("grid requires hi > lo and step > 0")
    n = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, n)


def _simulate_sweep(params, seed, out_dir) -> tuple[list[str], dict]:
    response = _model(params, "field_response", DEFAULT_FIELD_RESPONSE)
    shape_params = _section(params, "shapes")
    shapes = (
        _model(shape_params, "nv0", DEFAULT_NV0_SHAPE),
        _model(shape_params, "nvminus", DEFAULT_NVM_SHAPE),
    )
    grid = _grid_from_params(params)
    noise = _model(params, "noise", NOISELESS)
    fields = [float(b) for b in params.get("fields", response.fields)]
    sweep = make_sweep(fields, response, shapes, grid, noise, seed)
    manifest = []
    outputs = []
    for b, spec in sweep:
        name = f"spec_{b:07.1f}G.csv"
        save_spectrum(spec, os.path.join(out_dir, name))
        manifest.append({"b_field_gauss": b, "path": name})
        outputs.append(os.path.join(out_dir, name))
    manifest_path = os.path.join(out_dir, "manifest.json")
    save_json(manifest_path, manifest)
    outputs.append(manifest_path)
    return outputs, {"fields": len(fields), "noise": noise.kind}


def _letter_maps(lm: dict) -> tuple[PLMap, PLMap]:
    """The NV0/NV- truth letter maps described by the settings ``lm``."""
    return make_letter_map(
        int(lm.get("width", 512)),
        int(lm.get("height", 512)),
        None,
        float(lm.get("pl_nv0", 8000.0)),
        float(lm.get("pl_nvm", 12000.0)),
        float(lm.get("pixel_pitch_um", 0.1)),
    )


def _simulate_letter_map(params, seed, out_dir) -> tuple[list[str], dict]:
    nv0, nvm = _letter_maps(params)
    outputs = [*save_map(nv0, os.path.join(out_dir, "nv0_truth"))]
    outputs += save_map(nvm, os.path.join(out_dir, "nvm_truth"))
    diag = {"width": nv0.width, "height": nv0.height}
    if "t0" in params and "tminus" in params:
        t0 = float(params["t0"])
        tm = float(params["tminus"])
        m0 = PLMap(nv0.values + nvm.values, nv0.pixel_pitch_um)
        mlpf = PLMap(t0 * nv0.values + tm * nvm.values, nv0.pixel_pitch_um)
        outputs += save_map(m0, os.path.join(out_dir, "m0"))
        outputs += save_map(mlpf, os.path.join(out_dir, "mlpf"))
        diag.update({"t0": t0, "tminus": tm})
    return outputs, diag


def _simulate_field_map_pair(params, seed, out_dir) -> tuple[list[str], dict]:
    suppression = float(params.get("suppression", 1.0 / 6.2))
    nv0, nvm = _letter_maps(_section(params, "letter_map"))
    low, high = make_field_map_pair(nv0, nvm, suppression)
    outputs = [*save_map(nv0, os.path.join(out_dir, "nv0_truth"))]
    outputs += save_map(nvm, os.path.join(out_dir, "nvm_truth"))
    outputs += save_map(low, os.path.join(out_dir, "low"))
    outputs += save_map(high, os.path.join(out_dir, "high"))
    return outputs, {"suppression": suppression, "implied_f": 1.0 / suppression}


_SIMULATORS = {
    "spectrum": _simulate_spectrum,
    "sweep": _simulate_sweep,
    "letter-map": _simulate_letter_map,
    "field-map-pair": _simulate_field_map_pair,
}


def cmd_simulate(args) -> _Run:
    run = _Run(
        os.path.join(args.out, "metadata.json"),
        f"simulate {args.kind}",
        [args.params] if args.params else [],
    )
    if args.seed is not None and args.kind != "sweep":
        raise ValidationError(f"--seed applies only to simulate sweep, not {args.kind}")
    seed = args.seed or 0
    if seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {seed}")
    params = load_json(args.params, dict, "params") if args.params else {}
    os.makedirs(args.out, exist_ok=True)
    try:
        run.outputs, run.diagnostics = _SIMULATORS[args.kind](params, seed, args.out)
    except NvUnmixError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        # Models validate values themselves; these are missing keys, wrong types
        # or sizes no array can have.
        raise ParseError(f"{args.params}: bad {args.kind} params: {exc!r}") from exc
    seeded = {"seed": seed} if args.kind == "sweep" else {}
    run.diagnostics.update(seeded)
    run.parameters = {"params": params, **seeded}
    run.message = f"wrote {len(run.outputs)} files to {args.out}  metadata = {run.report}"
    return run


def cmd_render(args) -> _Run:
    run = _Run(args.report, "render")
    if (args.spectrum is None) == (args.map is None):
        raise ValidationError("render needs exactly one of --spectrum or --map")
    if args.spectrum:
        if args.clamp or args.clip:
            raise ValidationError("--clamp and --clip apply only with --map")
        data = render_spectrum_svg(
            load_spectrum(args.spectrum, negative="allow"), zpl_guides=args.zpl_guides
        )
        run.inputs, run.parameters = [args.spectrum], {"zpl_guides": args.zpl_guides}
    else:
        if args.zpl_guides:
            raise ValidationError("--zpl-guides applies only with --spectrum")
        clip = _parse_range(args.clip) if args.clip else None
        data = render_map_pgm(load_map(args.map), clamp_negative=args.clamp, clip=clip)
        run.inputs = list(map_paths(args.map))
        run.parameters = {"clamp": args.clamp, "clip": args.clip}
    with open(args.out, "wb") as fh:
        fh.write(data)
    run.outputs.append(args.out)
    run.diagnostics["bytes"] = len(data)
    run.message = f"wrote {args.out} ({len(data)} bytes)"
    return run


def cmd_report(args) -> _Run:
    run = _Run(None, "report")
    report = RunReport.load(args.run)
    lines = [f"command:    {report.command}", f"timestamp:  {report.timestamp}", "inputs:"]
    lines += [f"  {p}  sha256={'null' if d is None else d}" for p, d in report.inputs]
    lines.append("parameters:")
    lines += [f"  {key} = {report.parameters[key]}" for key in sorted(report.parameters)]
    lines.append("outputs:")
    lines += [f"  {path}" for path in report.outputs]
    lines.append("diagnostics:")
    for key in sorted(report.diagnostics):
        value = report.diagnostics[key]
        lines.append(f"  {key} = {value:.6g}" if isinstance(value, float) else f"  {key} = {value}")
    run.message = "\n".join(lines)
    return run


def _add_negative_flag(parser) -> None:
    parser.add_argument(
        "--negative",
        choices=["error", "clamp", "allow"],
        default="error",
        help="how to treat negative intensities in input files (default: error)",
    )


@functools.cache  # one shared parser, built on first use rather than at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvunmix",
        description="Charge-state unmixing of NV-center PL spectra and maps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="difference-decompose low/high-field spectra")
    p.add_argument("--low", required=True, help="low-field spectrum (spec-csv)")
    p.add_argument("--high", required=True, help="high-field spectrum (spec-csv)")
    p.add_argument("--out-nv0", required=True)
    p.add_argument("--out-nvm", required=True)
    p.add_argument("--zpl-center", type=float, default=637.0)
    p.add_argument("--zpl-window", default="630:644")
    p.add_argument("--edge", type=float, default=4.0)
    p.add_argument("--f-range", default="1:50", help="clamp for the scale factor LO:HI")
    p.add_argument("--report", default=None)
    _add_negative_flag(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("fit-series", help="fit a field sweep against basis spectra")
    p.add_argument("--basis-nv0", required=True)
    p.add_argument("--basis-nvm", required=True)
    p.add_argument("--series", required=True, help="JSON manifest of {b_field_gauss, path}")
    p.add_argument("--out-table", required=True)
    p.add_argument("--out-surface", default=None)
    p.add_argument("--unconstrained", action="store_true")
    p.add_argument("--report", default=None)
    _add_negative_flag(p)
    p.set_defaults(func=cmd_fit_series)

    p = sub.add_parser("transmissivity", help="filter transmissivity of a spectrum")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--tmax", type=float, help="sigmoid peak transmission (default 0.9)")
    p.add_argument("--center", type=float, help="sigmoid edge in nm (default 645)")
    p.add_argument("--width", type=float, help="sigmoid edge width in nm (default 6.9)")
    p.add_argument("--window", default="550:850")
    p.add_argument("--filter-table", default=None, help="CSV of wavelength,transmission")
    p.add_argument("--report", default=None)
    _add_negative_flag(p)
    p.set_defaults(func=cmd_transmissivity)

    p = sub.add_parser("unmix-map-field", help="difference-unmix low/high-field maps")
    p.add_argument("--low", required=True)
    p.add_argument("--high", required=True)
    p.add_argument("--f", type=float, required=True)
    p.add_argument("--out", required=True, help="output stem")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_unmix_map_field, negative="allow")

    p = sub.add_parser("unmix-map-filter", help="filter-unmix unfiltered/filtered maps")
    p.add_argument("--m0", required=True)
    p.add_argument("--mlpf", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--tm", type=float, required=True)
    p.add_argument("--out", required=True, help="output stem")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_unmix_map_filter, negative="allow")

    p = sub.add_parser("simulate", help="generate synthetic data")
    p.add_argument("kind", choices=sorted(_SIMULATORS))
    p.add_argument("--params", default=None, help="JSON parameter file")
    p.add_argument("--seed", type=int, default=None, help="noise seed (sweep only; default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="render a spectrum (SVG) or map (PGM)")
    p.add_argument("--spectrum", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--zpl-guides", action="store_true", help="mark the ZPLs (--spectrum only)")
    p.add_argument("--clamp", action="store_true", help="clamp negatives for display (--map only)")
    p.add_argument("--clip", default=None, help="display clip range LO:HI (--map only)")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("report", help="pretty-print a run report")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = args.func(args)
        if run.report:
            RunReport.create(
                run.command, run.inputs, run.parameters, run.outputs, run.diagnostics
            ).save(run.report)
    except (SingularityError, IdentifiabilityError, NoMinimumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except NvUnmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    print(run.message)
    return 0


if __name__ == "__main__":
    sys.exit(main())

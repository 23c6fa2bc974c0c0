"""Command-line interface.

Exit codes: 0 success, 2 ``ValidationError`` or ``ParseError``, 3 ``IdentifiabilityError``,
4 I/O error. ``fileio`` reads every input file and writes every output file, ``render``'s
included; a JSON input is read by a key spec (a params file by its kind's in
``synth._SIMULATORS``), so an unknown key or a wrong type exits 2 naming the key path. Only
``simulate`` loads ``synth``, when it runs; the parser and every other command leave it out.
A simulator writes nothing: ``simulate`` creates ``--out`` once its files are computed.
``main`` builds each run's ``_Run`` from the report path its subparser declares (``report_at``)
and passes it to the command, which only computes. ``main`` saves the report after every output
is written, then prints the run's message, and shows each warning as one ``warning: <message>``
stderr line. The report's command and parameters are the parsed command line, every option by
its ``dest``; its inputs are the files the run read, with the digests of the bytes read, and its
outputs the files it wrote, both in order, from ``fileio``'s run log.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .basisfit import FieldSeries, _surface_sizes, fit_series, scale_factor_surface
from .decompose import NVM_ZPL_NM, ScaleSearchConfig, ZplArtifactConfig, decompose
from .errors import IdentifiabilityError, NvUnmixError, ParseError, ValidationError
from .fileio import _LOG, _NEGATIVE_MODES, _REQUIRED, RunReport, _from_json, _run_log, _save_bytes
from .fileio import load_json, load_map, load_spectrum, save_csv, save_json, save_map, save_spectrum
from .filters import DEFAULT_EMISSION_WINDOW, FilterModel, TabulatedFilter, TransmissivityPair
from .filters import transmissivity
from .maps import PLMap, field_unmix, filter_unmix, fraction_map
from .render import render_map_pgm, render_spectrum_svg
from .spectrum import BasisPair, Spectrum, WavelengthWindow, _onto, _same_grid, resample

_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
_EXIT_IO = 4


@dataclass
class _Run:
    """What one command did: the report ``main`` saves at ``report`` (None: no report), with
    the command line, the run log's files and ``diagnostics``, and the ``message`` it prints."""

    report: str | None
    diagnostics: dict = field(default_factory=dict)
    message: str = ""


def _range_text(lo: float, hi: float) -> str:
    """The LO:HI flag text of a range, as ``_parse_range`` reads it back."""
    return f"{lo:g}:{hi:g}"


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise ValidationError(f"bad range {text!r} (expected LO:HI)") from exc


def _load_filter(args) -> FilterModel | TabulatedFilter:
    """The filter the flags select."""
    sigmoid = {"t_max": args.tmax, "center": args.center, "width": args.width}
    sigmoid = {name: value for name, value in sigmoid.items() if value is not None}
    if args.filter_table:
        if sigmoid:
            raise ValidationError("--tmax, --center and --width do not apply with --filter-table")
        spec = load_spectrum(args.filter_table, negative="error")
        try:
            return TabulatedFilter(spec.wavelengths, spec.intensities)
        except ValidationError as exc:  # a value the table holds
            raise ParseError(f"{args.filter_table}: {exc}") from exc
    return FilterModel(**sigmoid)


def _load_pair(path: str, other: str, negative: str) -> tuple[Spectrum, Spectrum]:
    """The spectra in ``path`` and ``other``; ``other`` is refused unless on ``path``'s grid."""
    a, b = load_spectrum(path, negative=negative), load_spectrum(other, negative=negative)
    if not _same_grid(a.wavelengths, b.wavelengths):
        raise ValidationError(f"{other}: not on the wavelength grid of {path}")
    return a, b


def cmd_decompose(args, run: _Run) -> None:
    low, high = _load_pair(args.low, args.high, args.negative)
    cfg = ZplArtifactConfig(NVM_ZPL_NM, WavelengthWindow(*_parse_range(args.zpl_window)), args.edge)
    result = decompose(low, high, cfg, ScaleSearchConfig(*_parse_range(args.f_range)))
    save_spectrum(result.nv0, args.out_nv0)
    save_spectrum(result.nvminus, args.out_nvm)
    run.diagnostics = {
        "f": result.f,
        "zpl_metric": result.zpl_metric,
        "nv0_zpl575_score": result.zpl575_score,
        "f_at_bound": result.f_at_bound,
    }
    run.message = f"f = {result.f:.6g}  zpl_metric = {result.zpl_metric:.6g}  report = {run.report}"


def cmd_fit_series(args, run: _Run) -> None:
    basis = BasisPair.from_spectra(*_load_pair(args.basis_nv0, args.basis_nvm, args.negative))
    manifest = load_json(args.series, [{"b_field_gauss": (float, _REQUIRED), "path": (str, _REQUIRED)}])
    if not manifest:
        raise ParseError(f"{args.series}: manifest must be a non-empty JSON list of entries")
    if args.out_surface and len(manifest) < 2:
        raise ValidationError(f"{args.series}: --out-surface needs at least two field entries")
    base_dir = os.path.dirname(os.path.abspath(args.series))

    def entries():  # as ingest asks; one on a grid equal to the basis's drops its own at once
        for i, entry in enumerate(manifest):
            if "\0" in entry["path"]:
                raise ParseError(f"{args.series}: [{i}].path: holds a NUL character")
            path = os.path.join(base_dir, entry["path"])  # an absolute path replaces base_dir
            yield entry["b_field_gauss"], _onto(basis.s0, load_spectrum(path, negative=args.negative))

    try:
        series = FieldSeries.ingest(entries())
    except ValidationError as exc:  # the manifest's fields, or the ranges of the files it lists
        raise ParseError(f"{args.series}: {exc}") from exc
    grid = series.entries[0][1].wavelengths
    if not _same_grid(basis.grid, grid):
        lo, hi = basis.s0.span
        if grid[0] < lo or grid[-1] > hi:
            raise ValidationError(f"{args.basis_nv0}: wavelengths [{lo}, {hi}] do not cover the "
                                  f"series grid [{grid[0]}, {grid[-1]}]")
        basis = BasisPair.from_spectra(resample(basis.s0, grid), resample(basis.sminus, grid))
    table = fit_series(series, basis, nonneg=not args.unconstrained)
    save_csv(args.out_table, "b_gauss,c0,cminus,residual",
             (table.b_fields, table.c0, table.cminus, table.residuals))
    if args.out_surface:
        surface = scale_factor_surface(table)
        save_csv(args.out_surface, "b1,b2,f", (surface.b1, surface.b2, surface.f))
    pairs, skipped = _surface_sizes(table)  # counted: a surface is built only to be written
    run.diagnostics = {"rows": len(table), "surface_pairs": pairs, "surface_skipped": skipped}
    run.message = f"fitted {len(table)} spectra  report = {run.report}"


def cmd_transmissivity(args, run: _Run) -> None:
    spec = load_spectrum(args.spectrum, negative=args.negative)
    t = transmissivity(spec, _load_filter(args), WavelengthWindow(*_parse_range(args.window)))
    run.diagnostics["transmissivity"] = t
    run.message = f"{t:.6g}"


def _unmix_common(args, run: _Run, unmixed, low_like) -> None:
    """Report on the component maps against their sum ``low_like``, then save them."""
    buf = np.add(unmixed.nv0.values, unmixed.nvminus.values)  # the one map of temporaries
    np.subtract(buf, low_like.values, out=buf)
    residual = float(np.max(np.abs(buf, out=buf)))
    del buf
    frac, zero_total = fraction_map(unmixed, low_like)
    counted = frac.values.size - zero_total
    # Zero-total pixels hold 0, so the sum covers the others; past the float range, sum frac/counted.
    with np.errstate(over="ignore"):
        total = float(np.sum(frac.values))
    mean = total / max(counted, 1) if np.isfinite(total) else float(np.sum(frac.values / counted))
    run.diagnostics = {
        "negative_pixel_count": unmixed.negative_pixel_count,
        "nv0_min": float(np.min(unmixed.nv0.values)),
        "nv0_max": float(np.max(unmixed.nv0.values)),
        "nvm_min": float(np.min(unmixed.nvminus.values)),
        "nvm_max": float(np.max(unmixed.nvminus.values)),
        "reconstruction_residual": residual,
        "zero_total_pixels": zero_total,
        "nvm_fraction_mean": mean if counted else None,
    }
    del frac
    save_map(unmixed.nv0, args.out + ".nv0")
    save_map(unmixed.nvminus, args.out + ".nvm")
    run.message = (
        f"negative pixels: {unmixed.negative_pixel_count}  "
        f"reconstruction residual: {residual:.6g}  report = {run.report}"
    )


def cmd_unmix_map_field(args, run: _Run) -> None:
    low = load_map(args.low)
    high = load_map(args.high)
    unmixed = field_unmix(low, high, args.f)
    del high
    _unmix_common(args, run, unmixed, low)


def cmd_unmix_map_filter(args, run: _Run) -> None:
    m0 = load_map(args.m0)
    mlpf = load_map(args.mlpf)
    unmixed = filter_unmix(m0, mlpf, TransmissivityPair(args.t0, args.tm))
    del mlpf
    _unmix_common(args, run, unmixed, m0)


def cmd_simulate(args, run: _Run) -> None:
    from . import synth  # only simulate runs the generator, so only it loads the module

    if args.seed is not None and args.kind != "sweep":
        raise ValidationError(f"--seed applies only to simulate sweep, not {args.kind}")
    seed = args.seed or 0
    if seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {seed}")
    simulate, keys = synth._SIMULATORS[args.kind]
    typed = load_json(args.params, keys) if args.params else _from_json({}, keys, args.params)
    try:
        files, run.diagnostics = simulate(typed, seed)
    except ValidationError as exc:  # a value the key spec let through
        raise ParseError(f"{args.params}: {exc}") from exc
    except NvUnmixError:
        raise
    except (MemoryError, ValueError, OverflowError) as exc:  # numpy refuses the size outright
        raise ParseError(f"{args.params}: no array can have the size asked for: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)  # only now that every file is computed
    save = {Spectrum: save_spectrum, PLMap: save_map, list: lambda v, path: save_json(path, v)}
    for name, value in files.items():  # a spectrum, a map by its stem, or the sweep's manifest
        save[type(value)](value, os.path.join(args.out, name))
    run.message = f"wrote {len(_LOG.get().written)} files to {args.out}  metadata = {run.report}"


def cmd_render(args, run: _Run) -> None:
    if (args.spectrum is None) == (args.map is None):
        raise ValidationError("render needs exactly one of --spectrum or --map")
    if args.spectrum:
        if args.clamp or args.clip:
            raise ValidationError("--clamp and --clip apply only with --map")
        data = render_spectrum_svg(
            load_spectrum(args.spectrum, negative="allow"), zpl_guides=args.zpl_guides
        )
    else:
        if args.zpl_guides:
            raise ValidationError("--zpl-guides applies only with --spectrum")
        clip = _parse_range(args.clip) if args.clip else None
        data = render_map_pgm(load_map(args.map), clamp_negative=args.clamp, clip=clip)
    _save_bytes(args.out, data)
    run.diagnostics["bytes"] = len(data)
    run.message = f"wrote {args.out} ({len(data)} bytes)"


def _shown(value, float_format: str = "") -> str:
    """How ``report --run`` prints a value: strings as is, floats in ``float_format``, else JSON."""
    if isinstance(value, str):
        return value
    return format(value, float_format) if isinstance(value, float) else json.dumps(value)


def cmd_report(args, run: _Run) -> None:
    report = RunReport.load(args.run)
    lines = [f"command:    {report.command}", f"timestamp:  {report.timestamp}", "inputs:"]
    lines += [f"  {p}  sha256={d}" for p, d in report.inputs]
    lines.append("parameters:")
    lines += [f"  {key} = {_shown(report.parameters[key])}" for key in sorted(report.parameters)]
    lines.append("outputs:")
    lines += [f"  {path}" for path in report.outputs]
    lines.append("diagnostics:")
    lines += [f"  {key} = {_shown(report.diagnostics[key], '.6g')}"
              for key in sorted(report.diagnostics)]
    run.message = "\n".join(lines)


def _add_negative_flag(parser) -> None:
    parser.add_argument(
        "--negative",
        choices=_NEGATIVE_MODES,
        default="error",
        help="how to treat negative intensities in input files (default: error)",
    )


def _add_report_flag(parser, default=lambda args: None) -> None:
    """``--report``, and ``report_at``: the path ``main`` saves the report at, the flag's or
    else ``default``'s (None: no report)."""
    parser.add_argument("--report", default=None)
    parser.set_defaults(report_at=lambda args: args.report or default(args))


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
    zpl, search = ZplArtifactConfig(), ScaleSearchConfig()
    p.add_argument("--zpl-window", default=_range_text(zpl.inner.lo, zpl.inner.hi))
    p.add_argument("--edge", type=float, default=zpl.edge_width)
    p.add_argument("--f-range", default=_range_text(search.f_min, search.f_max),
                   help="clamp for the scale factor LO:HI")
    _add_report_flag(p, lambda args: os.path.splitext(args.out_nv0)[0] + ".report.json")
    _add_negative_flag(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("fit-series", help="fit a field sweep against basis spectra")
    p.add_argument("--basis-nv0", required=True)
    p.add_argument("--basis-nvm", required=True)
    p.add_argument("--series", required=True, help="JSON manifest of {b_field_gauss, path}")
    p.add_argument("--out-table", required=True)
    p.add_argument("--out-surface", default=None)
    p.add_argument("--unconstrained", action="store_true")
    _add_report_flag(p, lambda args: os.path.splitext(args.out_table)[0] + ".report.json")
    _add_negative_flag(p)
    p.set_defaults(func=cmd_fit_series)

    p = sub.add_parser("transmissivity", help="filter transmissivity of a spectrum")
    p.add_argument("--spectrum", required=True)
    fm = FilterModel()
    p.add_argument("--tmax", type=float, help=f"sigmoid peak transmission (default {fm.t_max:g})")
    p.add_argument("--center", type=float, help=f"sigmoid edge in nm (default {fm.center:g})")
    p.add_argument("--width", type=float, help=f"sigmoid edge width in nm (default {fm.width:g})")
    p.add_argument("--window", default=_range_text(DEFAULT_EMISSION_WINDOW.lo,
                                                   DEFAULT_EMISSION_WINDOW.hi))
    p.add_argument("--filter-table", default=None, help="CSV of wavelength,transmission")
    _add_report_flag(p)
    _add_negative_flag(p)
    p.set_defaults(func=cmd_transmissivity)

    p = sub.add_parser("unmix-map-field", help="difference-unmix low/high-field maps")
    p.add_argument("--low", required=True)
    p.add_argument("--high", required=True)
    p.add_argument("--f", type=float, required=True)
    p.add_argument("--out", required=True, help="output stem")
    _add_report_flag(p, lambda args: args.out + ".nv0.report.json")
    p.set_defaults(func=cmd_unmix_map_field)

    p = sub.add_parser("unmix-map-filter", help="filter-unmix unfiltered/filtered maps")
    p.add_argument("--m0", required=True)
    p.add_argument("--mlpf", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--tm", type=float, required=True)
    p.add_argument("--out", required=True, help="output stem")
    _add_report_flag(p, lambda args: args.out + ".nv0.report.json")
    p.set_defaults(func=cmd_unmix_map_filter)

    p = sub.add_parser("simulate", help="generate synthetic data")
    # synth._SIMULATORS's kinds, sorted, named here so that building the parser loads no synth
    p.add_argument("kind", choices=("field-map-pair", "letter-map", "spectrum", "sweep"))
    p.add_argument("--params", default=None, help="JSON parameter file")
    p.add_argument("--seed", type=int, default=None, help="noise seed (sweep only; default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate,
                   report_at=lambda args: os.path.join(args.out, "metadata.json"))

    p = sub.add_parser("render", help="render a spectrum (SVG) or map (PGM)")
    p.add_argument("--spectrum", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--zpl-guides", action="store_true", help="mark the ZPLs (--spectrum only)")
    p.add_argument("--clamp", action="store_true", help="clamp negatives for display (--map only)")
    p.add_argument("--clip", default=None, help="display clip range LO:HI (--map only)")
    _add_report_flag(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("report", help="pretty-print a run report")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report, report_at=lambda args: None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    formatwarning = warnings.formatwarning  # a shown warning takes one line for the run
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        with _run_log() as log:
            run = _Run(args.report_at(args))
            args.func(args, run)
            if run.report:  # created before it is saved, so the report does not list itself
                parameters = {k: v for k, v in vars(args).items()
                              if k not in ("command", "func", "report_at")}
                RunReport.create(args.command, [path for path, _ in log.read], parameters,
                                 log.written, run.diagnostics).save(run.report)
    except IdentifiabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except NvUnmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    finally:
        warnings.formatwarning = formatwarning
    print(run.message)
    return 0


if __name__ == "__main__":
    sys.exit(main())

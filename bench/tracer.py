"""Span tracer that wraps nvunmix's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, job id) in
memory; nothing is written until the run ends. A function is patched on its
defining module and on every other ``nvunmix`` module that re-bound it with
``from ... import`` (``cli.load_spectrum``, ``basisfit.resample``, ...), so
calls made through either name are seen. Methods and classmethods are patched
on their class. ``uninstall`` restores the original objects, so an untraced
job runs the unmodified program.

Counters are recorded at the same boundaries: bytes read and written, inputs
hashed, entries fitted, surface pairs, Spectrum instances built, warnings and
exceptions. Byte counts come from file sizes on disk; ``maps.mb_computed`` is
computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

MB = 1e6


def _file_mb(*paths) -> float:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p)) / MB


def _load_map_mb(args, result):
    from nvunmix.fileio import map_paths

    return {"fileio.read_mb": _file_mb(*map_paths(args[0]))}


def _map_op_mb(args, result):
    arrays = (args[0].values, args[1].values, result.nv0.values, result.nvminus.values)
    return {"maps.mb_computed": sum(a.nbytes for a in arrays) / MB}


# (span name, "module" or "module:Class", attribute, counter(args, result) -> {key: amount})
TARGETS = [
    ("cli.main", "nvunmix.cli", "main", None),
    ("fileio.load_spectrum", "nvunmix.fileio", "load_spectrum",
     lambda a, r: {"fileio.read_mb": _file_mb(a[0])}),
    ("fileio.save_spectrum", "nvunmix.fileio", "save_spectrum",
     lambda a, r: {"fileio.write_mb": _file_mb(a[1])}),
    ("fileio.load_map", "nvunmix.fileio", "load_map", _load_map_mb),
    ("fileio.save_map", "nvunmix.fileio", "save_map",
     lambda a, r: {"fileio.write_mb": _file_mb(*r)}),
    ("fileio.report", "nvunmix.fileio:RunReport", "create",
     lambda a, r: {"fileio.report.hashed_mb": _file_mb(*a[2])}),
    ("fileio.report", "nvunmix.fileio:RunReport", "save", None),
    ("fileio.report", "nvunmix.fileio:RunReport", "load", None),
    ("spectrum.resample", "nvunmix.spectrum", "resample", None),
    ("spectrum.basis", "nvunmix.spectrum:BasisPair", "from_spectra", None),
    ("basisfit.ingest", "nvunmix.basisfit:FieldSeries", "ingest", None),
    ("basisfit.fit_series", "nvunmix.basisfit", "fit_series",
     lambda a, r: {"basisfit.fit_series.entries": len(a[0])}),
    ("basisfit.surface", "nvunmix.basisfit", "scale_factor_surface",
     lambda a, r: {"basisfit.surface.pairs": len(a[0]) * (len(a[0]) - 1) // 2}),
    ("basisfit.full_mixing", "nvunmix.basisfit", "find_full_mixing_field", None),
    ("decompose.difference", "nvunmix.decompose", "difference_spectrum", None),
    ("decompose.optimize", "nvunmix.decompose", "optimize_scale_factor", None),
    ("decompose.decompose", "nvunmix.decompose", "decompose", None),
    ("maps.filter_unmix", "nvunmix.maps", "filter_unmix", _map_op_mb),
    ("maps.field_unmix", "nvunmix.maps", "field_unmix", _map_op_mb),
    ("filters.transmissivity", "nvunmix.filters", "transmissivity", None),
    ("render.svg", "nvunmix.render", "render_spectrum_svg", None),
    ("render.pgm", "nvunmix.render", "render_map_pgm", None),
]

LAYERS = ("cli", "fileio", "spectrum", "basisfit", "decompose", "maps", "filters", "render")


class Tracer:
    """Collects spans and counters for the jobs run while it is installed."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index, job id, warnings at start, at end].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.jobs = 0
        self._stack: list[int] = []
        self._job: int | None = None
        self._warnings: list | None = None
        self._patches = self._plan()

    # -- patching -----------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every patch site."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nvunmix" or n.startswith("nvunmix."))]
        patches = []
        for span, where, attr, counter in TARGETS:
            module_name, _, class_name = where.partition(":")
            owner = sys.modules[module_name]
            if class_name:
                cls = getattr(owner, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__, counter))
                else:
                    wrapped = self._wrap(span, raw, counter)
                patches.append((cls, attr, raw, wrapped))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original, wrapped))
        spectrum_cls = sys.modules["nvunmix.spectrum"].Spectrum
        post_init = spectrum_cls.__dict__["__post_init__"]

        @functools.wraps(post_init)
        def counted_post_init(obj):
            self.counts["spectrum.construct.calls"] += 1
            return post_init(obj)

        patches.append((spectrum_cls, "__post_init__", post_init, counted_post_init))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, span: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        layer = span.partition(".")[0]
        calls_key = span + ".calls"
        errors_key = layer + ".errors"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            nwarn = len(self._warnings)
            spans.append([span, clock(), None, stack[-1], self._job, nwarn, nwarn])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[errors_key] += 1
                raise
            finally:
                record = spans[index]
                record[2] = clock()
                record[6] = len(self._warnings)
                stack.pop()
                counts[calls_key] += 1
            if counter is not None:
                for key, amount in counter(args, result).items():
                    counts[key] += amount
            return result

        return traced

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job_id: int, warning_log: list, start: float) -> None:
        self._job = job_id
        self._warnings = warning_log
        self._stack.append(len(self.spans))
        self.spans.append(["job", start, None, None, job_id, 0, 0])

    def end_job(self, end: float) -> None:
        record = self.spans[self._stack.pop()]
        record[2] = end
        record[6] = len(self._warnings)
        self._job = None
        self.jobs += 1

    # -- results ------------------------------------------------------------

    def self_totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed self time, and summed self warning count.

        A span's self time is its duration minus the durations of its direct
        children; the children's own children are already inside those.
        """
        child_time = [0.0] * len(self.spans)
        child_warn = [0] * len(self.spans)
        for name, start, end, parent, _, w0, w1 in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                child_warn[parent] += w1 - w0
        times: dict[str, float] = defaultdict(float)
        warns: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, w0, w1) in enumerate(self.spans):
            times[name] += (end - start) - child_time[i]
            warns[name] += (w1 - w0) - child_warn[i]
        return times, warns

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

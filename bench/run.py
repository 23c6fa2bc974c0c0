"""nvunmix benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload cli --seed 1 --seconds 50 --trace 0

Inputs are generated from ``--seed`` before timing. Jobs then run back to back
for ``--seconds`` (one client, no extra threads), each followed by a check of
its outputs. With ``--trace 0`` the last stdout line carries the end-to-end
metrics: ``setup_s`` (median of fresh-interpreter set-ups spread over the
run), ``job_s_min``, ``peak_rss_mb`` and ``job_peak_mb``. With ``--trace 1``
traced and untraced jobs alternate, and it carries the per-layer metrics, each
a mean per traced job, plus ``trace.overhead_s`` (median over adjacent pairs of
the traced minus the untraced job time). Lines above it print every metric by
name and unit, the median job time, the 90th percentile where at least ten
samples lie beyond it, the error rate and the run's provenance.

The gated job time, ``job_s_min``, is the sum over the job's steps (each
``cli.main`` call of a CLI job; the whole job for ``library``) of that step's
fastest time in the run; the median job time is printed, not gated. On the
2-vCPU shared VM this benchmark was built on, other tenants slow this process
by up to about 1.7x, switching many times a second, and the share of time spent
slowed drifts from under a tenth to over half within minutes. In a 120 s probe
of that host, undisturbed stretches lasted 6 ms at the median and 32 ms at the
90th percentile, and three lasted 100 ms or more. The median job time follows
the slowed share (medians of ten 20 s runs spread by 12-32% across seeds), and
so does the fastest run of any step longer than those stretches (the fastest
whole 0.13 s CLI job spread by 24% over five 50 s runs). A step of 20 ms or
less runs undisturbed several times in a run, so its fastest time stays at the
program's own speed; hence the short steps, and their sum.

Memory is reported twice. ``peak_rss_mb`` is the process's peak resident set,
which includes the interpreter, numpy and the generated inputs (the set
before the first job is printed beside it). ``job_peak_mb`` is what the
program itself allocates during one job, measured with ``tracemalloc`` on
extra, untimed jobs after the timed ones; numpy reports its buffers to
``tracemalloc``, so arrays are included.

The program is imported from ``src/`` of the checkout holding this file; the
run stops with exit code 2 when that tree is missing. Scratch files go to
``.bench_work/`` and are removed; the spans and provenance of the last run of
each workload are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings

from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Set-up probes, spread evenly over the measuring window so that they see the
# same machine as the jobs do.
SETUP_PROBES = 15
# Untimed jobs run under tracemalloc after the timed ones, for job_peak_mb.
MEMORY_JOBS = 5
MB = 1e6

# Per-layer metric -> (source, key). "self" sums a span's self time, "count" a
# tracer counter, "warn" the warnings raised inside a span; each is reported
# per traced job.
LAYER_METRICS = {
    "cli.self_s": ("self", "cli.main"),
    "fileio.load_spectrum_s": ("self", "fileio.load_spectrum"),
    "fileio.load_spectrum.calls": ("count", "fileio.load_spectrum.calls"),
    "fileio.read_mb": ("count", "fileio.read_mb"),
    "fileio.save_spectrum_s": ("self", "fileio.save_spectrum"),
    "fileio.save_spectrum.calls": ("count", "fileio.save_spectrum.calls"),
    "fileio.write_mb": ("count", "fileio.write_mb"),
    "fileio.load_map_s": ("self", "fileio.load_map"),
    "fileio.load_map.calls": ("count", "fileio.load_map.calls"),
    "fileio.save_map_s": ("self", "fileio.save_map"),
    "fileio.save_map.calls": ("count", "fileio.save_map.calls"),
    "fileio.report_s": ("self", "fileio.report"),
    "fileio.report.hashed_mb": ("count", "fileio.report.hashed_mb"),
    "spectrum.resample_s": ("self", "spectrum.resample"),
    "spectrum.resample.calls": ("count", "spectrum.resample.calls"),
    "spectrum.construct.calls": ("count", "spectrum.construct.calls"),
    "spectrum.basis_s": ("self", "spectrum.basis"),
    "basisfit.ingest_s": ("self", "basisfit.ingest"),
    "basisfit.fit_series_s": ("self", "basisfit.fit_series"),
    "basisfit.fit_series.entries": ("count", "basisfit.fit_series.entries"),
    "basisfit.surface_s": ("self", "basisfit.surface"),
    "basisfit.surface.pairs": ("count", "basisfit.surface.pairs"),
    "basisfit.full_mixing_s": ("self", "basisfit.full_mixing"),
    "decompose.difference_s": ("self", "decompose.difference"),
    "decompose.optimize_s": ("self", "decompose.optimize"),
    "decompose.decompose_s": ("self", "decompose.decompose"),
    "decompose.warnings": ("warn", "decompose."),
    "maps.filter_unmix_s": ("self", "maps.filter_unmix"),
    "maps.field_unmix_s": ("self", "maps.field_unmix"),
    "maps.mb_computed": ("count", "maps.mb_computed"),
    "filters.transmissivity_s": ("self", "filters.transmissivity"),
    "render.svg_s": ("self", "render.svg"),
    "render.pgm_s": ("self", "render.pgm"),
}


def _unit(name: str) -> str:
    if name.endswith(("_s", "_s_min")):
        return "s"
    return "MB" if name.endswith(("_mb", "mb_computed")) else "count"


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "nvunmix", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _blas() -> dict:
    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    # numpy wheels bundle OpenBLAS under a prefixed name; ask it for its thread count.
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            info["threads"] = int(lib.scipy_openblas_get_num_threads64_())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    return info


def provenance(nvunmix_threads: str | None) -> dict:
    import numpy as np

    import nvunmix

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "imported_from": os.path.dirname(os.path.abspath(nvunmix.__file__)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
        "NVUNMIX_THREADS_at_start": nvunmix_threads,  # always unset during the run
    }


def setup_probe(uses_cli: bool) -> float:
    """Wall time from starting a fresh interpreter until its first job could run."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import nvunmix"
    if uses_cli:
        code += "; from nvunmix import cli; cli.build_parser()"
    code += "; print(nvunmix.__file__, flush=True)"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.communicate()
    if proc.returncode != 0 or line.strip() != os.path.join(SRC, "nvunmix", "__init__.py"):
        raise RuntimeError(f"set-up probe imported {line.strip()!r}, exit {proc.returncode}")
    return seconds


def run_job(job, tracer, job_id: int):
    """Run and check one job; returns (seconds, warnings, error message or None)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as log, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_job(job_id, log, start)
        try:
            result = job.run()
            error = None
        except Exception as exc:  # a job that raises is counted as failed; the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_job(end)
            tracer.uninstall()
    if error is None:
        try:
            job.check(result, out.getvalue())
        except Exception as exc:  # CheckFailed, or outputs too broken to inspect
            error = f"check failed: {type(exc).__name__}: {exc}"
    if error is not None and err.getvalue():
        error += f" (stderr: {err.getvalue().strip()[:200]})"
    return end - start, len(log), error


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0 / MB


def job_peak_mb(job) -> tuple[float, list[str]]:
    """Median over MEMORY_JOBS jobs of the peak memory allocated during the job.

    The peak moves by up to 10% from job to job with where the cyclic garbage
    collector happens to run, hence the median. Returns it with the jobs' errors.
    """
    peaks, errors = [], []
    for _ in range(MEMORY_JOBS):
        tracemalloc.start()
        try:
            _, _, error = run_job(job, None, -2)
            peaks.append(tracemalloc.get_traced_memory()[1] / MB)
        finally:
            tracemalloc.stop()
        errors += [error] if error else []
    return statistics.median(peaks), errors


def layer_metrics(tracer, overheads: list[float]) -> dict[str, float]:
    n = max(tracer.jobs, 1)
    self_time, self_warn = tracer.self_totals()
    metrics = {}
    for name, (kind, key) in LAYER_METRICS.items():
        if kind == "self":
            total = self_time.get(key, 0.0)
        elif kind == "count":
            total = tracer.counts.get(key, 0.0)
        else:
            total = sum(v for span, v in self_warn.items() if span.startswith(key))
        metrics[name] = total / n
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = tracer.counts.get(f"{layer}.errors", 0.0) / n
    metrics["trace.unattributed_s"] = self_time.get("job", 0.0) / n
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nvunmix", "__init__.py")):
        return _fail(f"no nvunmix source tree under {SRC}; run from a checkout of the repository")
    nvunmix_threads = os.environ.pop("NVUNMIX_THREADS", None)  # it changes the fit_series path
    sys.path.insert(0, SRC)
    import nvunmix

    if os.path.dirname(os.path.abspath(nvunmix.__file__)) != os.path.join(SRC, "nvunmix"):
        return _fail(f"imported nvunmix from {nvunmix.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    results = os.path.join(ROOT, ".bench_out")
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    try:
        job = WORKLOADS[args.workload](work, args.seed)
        tracer = Tracer() if args.trace else None
        probes = 0 if args.trace else SETUP_PROBES
        setup = []
        attempted, failures, warn_counts = 0, [], []
        untraced, traced, overheads = [], [], []
        step_min: list[float] | None = None  # fastest time of each step of the job
        rss_inputs_mb = _rss_mb()
        # One warm-up job fills lazy imports and file caches; it is checked, not timed.
        _, _, error = run_job(job, None, -1)
        attempted += 1
        failures += [error] if error else []
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            if len(setup) < probes and (
                    time.perf_counter() - start >= len(setup) * args.seconds / probes):
                setup.append(setup_probe(job.uses_cli))
            use_tracer = tracer is not None and attempted % 2 == 0
            seconds, nwarn, error = run_job(job, tracer if use_tracer else None, attempted)
            attempted += 1
            failures += [error] if error else []
            if use_tracer:  # the job before a traced one is untraced
                traced.append(seconds)
                overheads.append(seconds - untraced[-1])
            else:
                untraced.append(seconds)
                if error is None:
                    steps = getattr(job, "step_s", None) or [seconds]
                    step_min = steps if step_min is None else list(map(min, step_min, steps))
            warn_counts.append(nwarn)
            if time.perf_counter() >= deadline and len(untraced) > 1 and (traced or tracer is None):
                break
        while len(setup) < probes:  # jobs longer than the probe spacing leave some over
            setup.append(setup_probe(job.uses_cli))
        peak_rss_mb = _rss_mb()  # before tracemalloc's own bookkeeping can add to it
        if tracer is None:
            peak_mb, errors = job_peak_mb(job)
            attempted += MEMORY_JOBS
            failures += errors
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    prov = provenance(nvunmix_threads)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_timed": len(untraced), "jobs_traced": len(traced),
        "attempted": attempted, "failed": len(failures), "failures": failures[:5],
        "warnings_per_job": sum(warn_counts) / len(warn_counts),
        "setup_probes_s": setup, "job_s_samples": untraced, "provenance": prov,
    }
    print(f"nvunmix bench  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  nvunmix from {prov['imported_from']}  src sha256 {prov['src_sha256'][:12]}  "
          f"commit {prov['commit']}")
    print(f"  python {prov['python']}  numpy {prov['numpy']}  blas {prov['blas']}  "
          f"nproc {prov['nproc']}  gc {'on' if prov['gc_enabled'] else 'off'}  "
          f"NVUNMIX_THREADS at start {nvunmix_threads or 'unset'}, in run unset")
    if args.trace:
        metrics = layer_metrics(tracer, overheads)
        tracer.write_spans(os.path.join(results, f"spans-{args.workload}.jsonl"))
        for name, value in metrics.items():
            print(f"  {name:<28} {value:.6g} {_unit(name)}")
        traced_job_s = sum(traced) / len(traced)
        covered = traced_job_s - metrics["trace.unattributed_s"]
        print(f"  layer self times + cli.self_s cover {covered / traced_job_s:.2%} of the "
              f"traced job, mean {traced_job_s:.6g} s, "
              f"{(len(tracer.spans) - tracer.jobs) / tracer.jobs:.4g} spans per job "
              f"({len(traced)} traced, {len(untraced)} untraced jobs)")
    else:
        deciles = statistics.quantiles(untraced, n=10)
        quartiles = statistics.quantiles(untraced, n=4)
        metrics = {"setup_s": statistics.median(setup), "job_s_min": sum(step_min or [min(untraced)]),
                   "peak_rss_mb": peak_rss_mb, "job_peak_mb": peak_mb}
        summary.update(job_s=statistics.median(untraced), job_s_quartiles=quartiles,
                       rss_before_jobs_mb=rss_inputs_mb)
        print(f"  {'setup_s':<28} {metrics['setup_s']:.4f} s   median of {len(setup)} "
              "fresh interpreters")
        print(f"  {'job_s_min':<28} {metrics['job_s_min']:.4f} s   sum of the fastest time of "
              f"each step over {len(untraced)} jobs: "
              + " + ".join(f"{s * 1e3:.2f}" for s in step_min or []) + " ms")
        summary["step_s_min"] = step_min
        print(f"  {'job_s':<28} {summary['job_s']:.4f} s   median (quartiles "
              f"{quartiles[0]:.4f} .. {quartiles[2]:.4f})")
        if len(untraced) >= 100:  # at least 10 samples beyond the 90th percentile
            summary["job_s_p90"] = deciles[-1]
            print(f"  {'job_s_p90':<28} {deciles[-1]:.4f} s")
        else:
            print(f"  {'job_s_p90':<28} n/a   fewer than 100 jobs")
        print(f"  {'peak_rss_mb':<28} {peak_rss_mb:.1f} MB   "
              f"({rss_inputs_mb:.1f} MB before the first job)")
        print(f"  {'job_peak_mb':<28} {peak_mb:.2f} MB   allocated during one job")
    print(f"  {'error_rate':<28} {len(failures) / attempted:.4g}   "
          f"{len(failures)} of {attempted} jobs failed")
    print(f"  {'warnings per job':<28} {summary['warnings_per_job']:.3g}")
    for message in failures[:3]:
        print(f"  failure: {message}", file=sys.stderr)
    summary["metrics"] = metrics
    with open(os.path.join(results, f"run-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""epdiff benchmark runner.

    python3 perfbench/run.py --workload sine20|plate256-io \
        --seed N --seconds S --trace 0|1

Run from the root of an epdiff source checkout; the package is imported from
``src/``.  Each workload repeats its fixed run (see ``workloads.py``) for
about S seconds in this one process with OMP, OpenBLAS and MKL pinned to one
thread.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separate traced run.  Every output check runs in
both modes.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the environment, the output digest and per-scheme detail.  The
exit code is 0 when every check passed, 1 when one failed and 2 when the
checkout holds no epdiff sources.  See NOTES.md.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # Before numpy is first imported, so its thread pools start single-threaded.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 3
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import epdiff, epdiff.cli; print(time.perf_counter() - t)"
)
# A tail needs this many samples before the highest percentile with ten
# samples beyond it lies above the median; below it the maximum is reported.
TAIL_MIN_SAMPLES = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_epdiff():
    """Import epdiff from this checkout's src/, or exit 2."""
    if not (SRC / "epdiff" / "__init__.py").is_file():
        fail(f"no epdiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import epdiff

    if Path(epdiff.__file__).resolve().parent != SRC / "epdiff":
        fail(f"epdiff imported from {epdiff.__file__}, not {SRC}")


def import_seconds() -> list:
    """Import time of the whole package in fresh interpreters."""
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        out.append(float(proc.stdout.strip()))
    return out


def tail(samples):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, in numpy's linear convention; the maximum below
    TAIL_MIN_SAMPLES samples."""
    s = sorted(samples)
    n = len(s)
    if n < TAIL_MIN_SAMPLES:
        return s[-1], 100.0
    k = n - 11
    return s[k], 100.0 * k / (n - 1)


def environment(wl, seed, n_units) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_kb": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "warmup_steps": wl.warmup,
        "timed_steps_per_unit": {label: steps for labels, steps in wl.groups
                                 for label in labels},
        "units": n_units,
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            out[f"L{level}"] = int(size[:-1])
    return out


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def repeat(seconds, run_once) -> list:
    """Call ``run_once`` while another call still fits in ``seconds``; at
    least once."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(run_once())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return out


def label_detail(wl, units) -> dict:
    """Per label: the step figure the workload reports (see
    ``Workload.step_stat``), the fastest and the median step over all units,
    and the median over units of each unit's tail, with the tail's
    percentile and sample count."""
    from tracing import metric_label

    out = {}
    for i, run in enumerate(units[0].runs):
        per_unit = [[s * 1e3 for s in u.runs[i].samples] for u in units]
        per_unit = [samples for samples in per_unit if samples]
        problems = [p for u in units for p in u.runs[i].problems]
        entry = {"problems": problems[:5]}
        if per_unit:
            pooled = [s for samples in per_unit for s in samples]
            tails = [tail(samples) for samples in per_unit]
            entry.update(
                min_ms=min(pooled),
                median_ms=statistics.median(pooled),
                tail_ms=statistics.median(value for value, _ in tails),
                tail_percentile=[pct for _, pct in tails],
                samples_per_unit=[len(samples) for samples in per_unit],
            )
            entry["step_ms"] = entry[f"{wl.step_stat}_ms"]
        out[metric_label(run.label)] = entry
    return out


def wall_seconds(wl, units, detail):
    """Time to solution of one unit, set-up excluded: the unit's timed steps
    at the label's ``step_ms``, plus the median over units of the rest of
    ``Unit.wall`` (on the output workload the writers and the command around
    the steps; elsewhere next to nothing).  None when a label has no timed
    step."""
    from tracing import metric_label
    from workloads import wall_labels

    covered = wall_labels(wl)
    steps = {label: n for labels, n in wl.groups for label in labels}
    step_ms = [detail[metric_label(label)].get("step_ms") for label in covered]
    if None in step_ms:
        return None
    rest = statistics.median(
        u.wall - sum(s for r in u.runs if r.label in covered for s in r.samples)
        for u in units)
    return rest + sum(steps[label] * ms / 1e3 for label, ms in zip(covered, step_ms))


def end_to_end(wl, units, detail, setup_import) -> dict:
    attempted = sum(len(u.runs) for u in units)
    failed = sum(1 for u in units for r in u.runs if r.problems)
    metrics = {
        "wall_s": (wall_seconds(wl, units, detail), "s"),
        "setup_s": (setup_import + statistics.median(u.setup for u in units), "s"),
    }
    for tag, d in detail.items():
        metrics[f"step_ms.{tag}"] = (d.get("step_ms"), "ms")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    metrics["pass_ratio"] = ((attempted - failed) / attempted, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(wl, seed, seconds, scratch):
    """Pairs of an untraced and a traced unit, then a short tracemalloc pass."""
    import tracemalloc

    import epdiff.grid
    import epdiff.harness
    import epdiff.steppers
    from tracing import Tracer, layer_metrics
    from workloads import run_label, run_pair

    modules = {m.__name__: m for m in (epdiff.steppers, epdiff.grid, epdiff.harness)}
    tracer = Tracer()
    pairs = repeat(seconds, lambda: run_pair(wl, seed, scratch, tracer, modules))
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]

    # One step after the bootstrap is enough: allocation sizes repeat per step.
    alloc = Tracer(alloc=True)
    alloc.install(modules)
    tracemalloc.start()
    try:
        alloc_runs = [run_label(replace(wl, warmup=1), seed, label, 1, alloc)
                      for labels, _ in wl.groups for label in labels]
    finally:
        tracemalloc.stop()
        alloc.uninstall()

    overhead = statistics.median(t.wall - p.wall for p, t in pairs)
    extra = {"snapshot_bytes": sum(u.bytes_written for u in traced), "overhead_s": overhead}
    metrics = layer_metrics(tracer, alloc, extra)
    info = {
        "overhead_pairs": len(pairs),
        "untraced_wall_s": [u.wall for u in plain],
        "traced_wall_s": [u.wall for u in traced],
        "spans": len(tracer.spans),
        "missing": {**alloc.missing, **tracer.missing},
    }
    all_runs = [r for u in plain + traced for r in u.runs] + alloc_runs
    return plain + traced, all_runs, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    import_epdiff()
    from workloads import WORKLOADS, run_unit

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    scratch = ROOT / ".perfbench_out" / f"{wl.name}-{os.getpid()}"
    try:
        if args.trace:
            units, runs, metrics, info = traced_run(wl, args.seed, args.seconds, scratch)
        else:
            setup_import = statistics.median(import_seconds())
            units = repeat(args.seconds, lambda: run_unit(wl, args.seed, scratch))
            runs = [r for u in units for r in u.runs]
            info = {"import_s": setup_import}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    detail = label_detail(wl, units)
    if not args.trace:
        metrics = end_to_end(wl, units, detail, setup_import)
    failed = sum(1 for r in runs if r.problems)
    info.update(
        workload=wl.name,
        environment=environment(wl, args.seed, len(units)),
        output_digest=units[0].digest,
        digest_repeats=all(u.digest == units[0].digest for u in units),
        unit_wall_s=[u.wall for u in units],
        unit_setup_s=[u.setup for u in units],
        schemes=detail,
    )
    for name, m in metrics.items():
        value = m["value"]
        shown = m.get("missing") if value is None else f"{value:.6g}"
        print(f"{wl.name:12s} {name:40s} {shown} {m['unit']}")
    if not args.trace:
        # Printed, not gated: tails spread too much between runs on a shared host.
        for label, d in detail.items():
            if "tail_ms" in d:
                pcts = sorted({round(p, 1) for p in d["tail_percentile"]})
                print(f"{wl.name:12s} {'step_ms_tail.' + label:40s} {d['tail_ms']:.6g} ms"
                      f" (median over {len(d['samples_per_unit'])} units of p{pcts}"
                      f" of {sorted(set(d['samples_per_unit']))} steps)")
        print(f"{wl.name:12s} {'failed_ratio':40s} {failed / len(runs):.6g} ratio")
    for label, d in detail.items():
        for problem in d["problems"]:
            print(f"{wl.name:12s} CHECK FAILED {label}: {problem}")
    print(json.dumps({"info": info}, default=str))
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

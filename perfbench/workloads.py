"""Benchmark workloads for epdiff: seeded inputs, the fixed run each
workload repeats, and the checks on what the run produced.

Every workload runs the five scheme labels.  A *unit* is one fixed run of
all of them from a fresh initial state; run.py repeats units for the
requested number of seconds.  The first ``warmup`` steps of each scheme run
(the bootstrap step included) count as set-up; the remaining steps are timed
one by one as the interval between consecutive ``integrate`` observer
callbacks, which covers the step, the invariant reductions and the row
bookkeeping of ``integrate`` but not the observer itself.
"""

from __future__ import annotations

import hashlib
import shutil
import struct
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import epdiff.cli
import epdiff.harness
from epdiff import (
    FieldPair,
    FixedCount,
    GridSpec,
    NumericalFailureError,
    SchemeKind,
    State,
    WaveFrontSpec,
    integrate,
    invariant_stats,
    wavefront_profile,
)
from epdiff.config import parse_scheme_label
from epdiff.grid import QSOLVE_RTOL
from epdiff.harness import INVARIANTS_HEADER
from epdiff.snapshots import read_snapshot
from epdiff.steppers import BootstrapKind

from tracing import LABELS, Tracer, Window

# Tolerances of acceptance criteria 1, 2, 3 and 6 (energy and x-momentum
# total variation); criterion 7 is checked in its exact form (u2 identically
# zero, u1 bitwise constant in y).
ENERGY_TV_MAX = {"scheme1": 1e-7, "scheme2": 1e-8, "scheme3": 1e-8}
MOMENTUM_X_TV_MAX = {"scheme1": 1e-7, "scheme2": 1e-7}
PLATE_ENERGY_TV_MAX = {"scheme2": 1e-8}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``groups`` lists (labels, timed steps per label).  On an output
    workload each group is one ``epdiff run`` command line.

    ``step_stat`` is the statistic of a label's step times that the
    workload reports: "min" where steps last about a millisecond, so that
    many of them fall between the host's disturbances and the fastest is
    the undisturbed cost; "median" where every step spans many
    disturbances.
    """

    name: str
    points: int
    alpha: float
    profile: str  # "sine" or "plate"
    warmup: int
    groups: tuple
    step_stat: str = "median"
    output: bool = False

    def grid(self) -> GridSpec:
        return GridSpec(self.points, self.points, self.alpha)

    def dt(self, grid: GridSpec) -> float:
        return grid.dx**2 if self.profile == "sine" else 0.25 * grid.dx


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sine20",
            points=20,
            alpha=1.0,
            profile="sine",
            warmup=5,
            groups=((LABELS, 100),),
            step_stat="min",
        ),
        Workload(
            name="plate256-io",
            points=256,
            alpha=0.1,
            profile="plate",
            warmup=1,
            groups=((("scheme2",), 80), (("scheme1", "scheme3"), 5),
                    (("scheme1-fixed=3", "rk4"), 12)),
            output=True,
        ),
    )
}


def wall_labels(wl: Workload) -> tuple:
    """Labels whose run ``Unit.wall`` covers: on the output workload the
    first command alone, elsewhere every label."""
    if wl.output:
        return wl.groups[0][0]
    return tuple(label for labels, _ in wl.groups for label in labels)


# ---------------------------------------------------------------------------
# Seeded inputs (public API only).

def sine_phase(seed: int) -> float:
    """x-phase of the sine profile; seed 0 is the unshifted benchmark."""
    if seed == 0:
        return 0.0
    return float(np.random.default_rng(seed).uniform(0.0, 2.0))


def sine_state(grid: GridSpec, seed: int) -> State:
    """u1 = 0.5*((2 + pi^2) + sin(pi*(x + phase))), u2 = 0: y-invariant for
    every phase, and equal to ``sine_profile`` at phase 0."""
    row = 0.5 * ((2.0 + np.pi**2) + np.sin(np.pi * (grid.x + sine_phase(seed))))
    u1 = np.tile(row, (grid.J, 1))
    return State.from_velocity(FieldPair.from_arrays(grid, u1, np.zeros(grid.shape)))


def plate_spec(seed: int) -> WaveFrontSpec:
    """The default plate, moved inside its valid margin for seeds other than 0."""
    if seed == 0:
        return WaveFrontSpec.plate()
    rng = np.random.default_rng(seed)
    return WaveFrontSpec.plate(
        x=-0.3 + rng.uniform(-0.15, 0.15), y_half=0.4 + rng.uniform(-0.1, 0.1)
    )


def initial_state(wl: Workload, grid: GridSpec, seed: int) -> State:
    if wl.profile == "sine":
        return sine_state(grid, seed)
    return wavefront_profile(plate_spec(seed), grid)


def label_of(cfg) -> str:
    """Scheme label of a SchemeConfig, as the CLI spells it."""
    if cfg.kind is SchemeKind.SCHEME1_PC and isinstance(cfg.corrector, FixedCount):
        return f"scheme1-fixed={cfg.corrector.count}"
    return cfg.kind.value


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of problems; an empty list passes.

def sine_step_problems(state) -> list:
    """Criterion 7 in exact form: u2 is zero and u1 is constant in y."""
    u1 = state.u.c1.values
    u2 = state.u.c2.values
    out = []
    if u2.any():
        out.append(f"t={state.t}: u2 is not identically zero")
    if not (u1 == u1[0]).all():
        out.append(f"t={state.t}: u1 varies in y")
    return out


def sine_record_problems(label: str, record) -> list:
    out = []
    for column, limits in (("energy", ENERGY_TV_MAX), ("momentum_x", MOMENTUM_X_TV_MAX)):
        limit = limits.get(label)
        if limit is None:
            continue
        tv, _ = invariant_stats(record.column(column))
        if not tv <= limit:
            out.append(f"{column} total variation {tv:.3e} > {limit:.0e}")
    return out


def plate_record_problems(label: str, record) -> list:
    out = []
    for state in record.states_tail:
        for name, arr in (("u1", state.u.c1.values), ("u2", state.u.c2.values),
                          ("m1", state.m.c1.values), ("m2", state.m.c2.values)):
            if not np.isfinite(arr).all():
                out.append(f"t={state.t}: {name} is not finite")
        defect = state.momentum_defect()
        if not defect <= QSOLVE_RTOL:
            out.append(f"t={state.t}: momentum defect {defect:.3e} > {QSOLVE_RTOL:.0e}")
    limit = PLATE_ENERGY_TV_MAX.get(label)
    if limit is not None:
        tv, _ = invariant_stats(record.column("energy"))
        if not tv <= limit:
            out.append(f"energy total variation {tv:.3e} > {limit:.0e}")
    return out


def snapshot_hash(u, t: float) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(u.c1.values, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(u.c2.values, dtype="<f8").tobytes())
    h.update(struct.pack("<d", float(t)))
    return h.hexdigest()


def output_problems(code: int, scheme_dir: Path, written: dict, n_snapshots: int) -> list:
    """Checks of one scheme's ``epdiff run`` output: exit code 0, the
    invariants.csv header, and every snapshot reading back bit-exactly.

    ``written`` maps each snapshot path to the hash of the field and time
    handed to the writer.
    """
    out = []
    if code != 0:
        out.append(f"epdiff run exited with {code}")
    csv = scheme_dir / "invariants.csv"
    if not csv.is_file():
        return out + [f"{csv} is missing"]
    with csv.open() as fh:
        header = fh.readline().rstrip("\n")
    if header != INVARIANTS_HEADER:
        out.append(f"invariants.csv header {header!r} != {INVARIANTS_HEADER!r}")
    snaps = sorted(scheme_dir.glob("snap_*.bin"))
    if len(snaps) != n_snapshots:
        out.append(f"{len(snaps)} snapshots written, expected {n_snapshots}")
    for path in snaps:
        expected = written.get(str(path))
        try:
            u, t = read_snapshot(path)
        except (OSError, ValueError) as exc:
            out.append(f"{path.name}: {exc}")
            continue
        if expected is None or snapshot_hash(u, t) != expected:
            out.append(f"{path.name} does not read back bit-exactly")
    return out


# ---------------------------------------------------------------------------
# Running.

@dataclass
class LabelRun:
    label: str
    samples: list = field(default_factory=list)  # seconds per timed step
    setup: float = 0.0
    wall: float = 0.0
    problems: list = field(default_factory=list)
    digest: str = ""


@dataclass
class Unit:
    runs: list
    wall: float
    setup: float
    digest: str
    bytes_written: int = 0


def _series_digest(record) -> str:
    h = hashlib.sha256()
    for r in record.series:
        h.update(struct.pack("<qddddq", r.step, r.t, r.energy, r.momentum_x,
                             r.momentum_y, r.corrector_iters))
    return h.hexdigest()


def record_bytes(record) -> int:
    """Bytes a RunRecord holds: its rows and its snapshot arrays."""
    rows = sum(sys.getsizeof(r) + sum(sys.getsizeof(v) for v in vars(r).values())
               for r in record.series)
    snaps = sum(u.c1.values.nbytes + u.c2.values.nbytes for _, u in record.snapshots)
    return rows + snaps


class _Observer:
    """Timestamps every integrate callback; time spent inside the callback
    (the per-step check) is kept out of the step intervals."""

    def __init__(self, check=None, tracer=None):
        self.marks = []
        self.problems = []
        self.check = check
        self.tracer = tracer

    def __call__(self, result):
        enter = time.perf_counter()
        if self.tracer is not None:
            self.tracer.call("bench.observer", "observer", self._check, result)
        else:
            self._check(result)
        self.marks.append((enter, time.perf_counter()))

    def _check(self, result):
        if self.check is not None and not self.problems:
            self.problems.extend(self.check(result.state))

    def timed(self, warmup: int, t_start: float, t_end: float):
        """(setup, wall, step samples) of a run observed from t_start to t_end."""
        marks = self.marks
        warm_end = marks[warmup - 1][1]
        samples = [marks[i][0] - marks[i - 1][1] for i in range(warmup, len(marks))]
        inside = sum(b - a for a, b in marks[warmup:])
        return warm_end - t_start, (t_end - warm_end) - inside, samples, warm_end


def _call(tracer, kind, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(kind, name, fn, *args, **kwargs)


def run_label(wl: Workload, seed: int, label: str, timed_steps: int,
              tracer: Tracer | None = None) -> LabelRun:
    """Run one scheme label directly through ``integrate``."""
    grid = wl.grid()
    dt = wl.dt(grid)
    cfg = parse_scheme_label(label).build(dt, BootstrapKind.RK4)
    run = LabelRun(label)
    if tracer is not None:
        tracer.label = label
        tracer.active = True
    try:
        t0 = time.perf_counter()
        initial = _call(tracer, "profiles.init", wl.profile, initial_state, wl, grid, seed)
        init = time.perf_counter() - t0
        observer = _Observer(sine_step_problems if wl.profile == "sine" else None, tracer)
        n_steps = wl.warmup + timed_steps
        t_start = time.perf_counter()
        try:
            record = _call(tracer, "steppers.integrate", "integrate", integrate,
                           initial, cfg, initial.t + n_steps * dt, observer)
        except NumericalFailureError as exc:
            run.problems.append(f"{type(exc).__name__}: {exc}")
            return run
        t_end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.active = False
    setup, run.wall, run.samples, warm_end = observer.timed(wl.warmup, t_start, t_end)
    run.setup = init + setup
    run.problems.extend(observer.problems)
    if wl.profile == "sine":
        run.problems.extend(sine_record_problems(label, record))
    else:
        run.problems.extend(plate_record_problems(label, record))
    run.digest = _series_digest(record)
    if tracer is not None:
        tracer.windows.append(_window(label, warm_end, t_end, timed_steps, record))
    return run


def _window(label, start, end, steps, record) -> Window:
    iters = [r.corrector_iters for r in record.series[-steps:]]
    return Window(label, start, end, steps, sum(iters) / len(iters), record_bytes(record))


def run_unit(wl: Workload, seed: int, scratch: Path) -> Unit:
    if wl.output:
        return run_output_unit(wl, seed, scratch)
    return _unit([run_label(wl, seed, label, steps)
                  for labels, steps in wl.groups for label in labels])


def run_pair(wl: Workload, seed: int, scratch: Path, tracer: Tracer, modules: dict):
    """An untraced and a traced unit, interleaved label by label (unit by
    unit on the output workload) so that host drift between the two stays
    small.  The wrappers are installed only for the traced half."""

    def traced(fn, *args):
        tracer.install(modules)
        try:
            return fn(*args, tracer)
        finally:
            tracer.uninstall()

    if wl.output:
        return run_output_unit(wl, seed, scratch), traced(run_output_unit, wl, seed, scratch)
    plain, spanned = [], []
    for labels, steps in wl.groups:
        for label in labels:
            plain.append(run_label(wl, seed, label, steps))
            spanned.append(traced(run_label, wl, seed, label, steps))
    return _unit(plain), _unit(spanned)


def _unit(runs) -> Unit:
    digest = hashlib.sha256("".join(r.digest for r in runs).encode()).hexdigest()
    return Unit(runs, sum(r.wall for r in runs), sum(r.setup for r in runs), digest)


@contextmanager
def _patched(module, replacements: dict):
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def run_output_unit(wl: Workload, seed: int, scratch: Path,
                    tracer: Tracer | None = None) -> Unit:
    """Run every group as one ``epdiff run`` command with a snapshot every
    step, then check and digest what it wrote.

    Hooks on ``epdiff.harness`` feed the seeded plate to the command, time
    each integrate call through an observer and hash each field handed to
    the snapshot writer.  The hooks' own time is kept out of ``wall``.

    ``wall`` is the first command alone, scheme2 as the workload is defined:
    the other labels run only so that every ``step_ms`` metric exists, and
    their compute would otherwise hide the writers' share of it.
    """
    harness = epdiff.harness
    grid = wl.grid()
    dt = wl.dt(grid)
    runs: dict = {}
    written: dict = {}
    spent = {"setup": 0.0, "hooks": 0.0, "bytes": 0}
    orig_integrate = harness.integrate
    orig_profile = harness.wavefront_profile
    orig_write = harness.write_snapshot

    def spec(kind, sigma=None, **kwargs):
        return plate_spec(seed)

    def profile(spec_, grid_):
        t0 = time.perf_counter()
        try:
            return _call(tracer, "profiles.init", "plate", orig_profile, spec_, grid_)
        finally:
            spent["setup"] += time.perf_counter() - t0

    def run_integrate(initial, cfg, t_final, observer=None, **kwargs):
        label = label_of(cfg)
        if tracer is not None:
            tracer.label = label
        obs = _Observer(tracer=tracer)
        t_start = time.perf_counter()
        try:
            record = _call(tracer, "steppers.integrate", "integrate", orig_integrate,
                           initial, cfg, t_final, obs, **kwargs)
        except NumericalFailureError as exc:
            runs[label] = LabelRun(label, problems=[f"{type(exc).__name__}: {exc}"])
            raise
        t_end = time.perf_counter()
        run = LabelRun(label)
        setup, wall, run.samples, warm_end = obs.timed(wl.warmup, t_start, t_end)
        run.setup = setup
        run.problems.extend(plate_record_problems(label, record))
        run.digest = _series_digest(record)
        runs[label] = run
        if tracer is not None:
            steps = len(run.samples)
            tracer.windows.append(_window(label, warm_end, t_end, steps, record))
        spent["setup"] += setup
        spent["hooks"] += (t_end - warm_end) - wall + (time.perf_counter() - t_end)
        return record

    def write(u, t, path):
        t0 = time.perf_counter()
        written[str(path)] = snapshot_hash(u, t)
        spent["hooks"] += time.perf_counter() - t0
        orig_write(u, t, path)
        t1 = time.perf_counter()
        spent["bytes"] += Path(path).stat().st_size
        spent["hooks"] += time.perf_counter() - t1

    digest = hashlib.sha256()
    walls = []
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for index, (labels, timed_steps) in enumerate(wl.groups):
            n_steps = wl.warmup + timed_steps
            out_dir = scratch / f"run{index}"
            argv = ["run", "--grid", str(wl.points), "--scheme", ",".join(labels),
                    "--snapshot-every", "1", "--t-final", repr(n_steps * dt),
                    "--out", str(out_dir), "--seed", str(seed)]
            if tracer is not None:
                tracer.active = True
            with _patched(harness, {"default_spec": spec, "wavefront_profile": profile,
                                    "integrate": run_integrate, "write_snapshot": write}):
                kept_out = spent["setup"] + spent["hooks"]
                t0 = time.perf_counter()
                code = _call(tracer, "cli.main", "main", epdiff.cli.main, argv)
                elapsed = time.perf_counter() - t0
                walls.append(elapsed - (spent["setup"] + spent["hooks"] - kept_out))
            if tracer is not None:
                tracer.active = False
            for label in labels:
                run = runs.setdefault(label, LabelRun(label))
                scheme_dir = out_dir / label
                run.problems.extend(output_problems(code, scheme_dir, written, n_steps + 1))
                _digest_outputs(digest, scheme_dir)
            _digest_file(digest, out_dir / "summary.json")
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        if tracer is not None:
            tracer.active = False
    ordered = [runs[label] for labels, _ in wl.groups for label in labels]
    return Unit(ordered, walls[0], spent["setup"], digest.hexdigest(), spent["bytes"])


def _digest_file(h, path: Path):
    if path.is_file():
        h.update(path.read_bytes())


def _digest_outputs(h, scheme_dir: Path):
    """Hash everything but the wall-clock column of invariants.csv, plus
    every snapshot file."""
    csv = scheme_dir / "invariants.csv"
    if csv.is_file():
        for line in csv.read_text().splitlines():
            h.update(line.rsplit(",", 1)[0].encode() + b"\n")
    for path in sorted(scheme_dir.glob("snap_*.bin")):
        _digest_file(h, path)

"""Tests of the benchmark itself: seeded inputs, each output check against a
deliberately corrupted output, the tail statistic, span bookkeeping,
missing wrap targets and the metric names BENCHMARK.json declares.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import epdiff.cli  # noqa: E402
import epdiff.grid  # noqa: E402
import epdiff.harness  # noqa: E402
import epdiff.profiles  # noqa: E402
import epdiff.snapshots  # noqa: E402
import epdiff.steppers  # noqa: E402
from epdiff import (  # noqa: E402
    FieldPair,
    GridSpec,
    SchemeConfig,
    SchemeKind,
    State,
    WaveFrontSpec,
    integrate,
    sine_profile,
    wavefront_profile,
)
from epdiff.snapshots import read_snapshot  # noqa: E402

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = {m.__name__: m for m in (epdiff.steppers, epdiff.grid, epdiff.harness)}
TINY = wl.Workload(name="tiny", points=16, alpha=0.1, profile="plate",
                   warmup=2, groups=((wl.LABELS, 3),))
TINY_SINE = replace(TINY, points=12, alpha=1.0, profile="sine")
TINY_IO = replace(TINY, groups=((("scheme2",), 3), (("scheme3", "rk4"), 2)), output=True)


def sine_record(steps=30):
    grid = GridSpec(20, 20, 1.0)
    cfg = SchemeConfig(SchemeKind.SCHEME2, grid.dx**2)
    return integrate(sine_profile(grid), cfg, steps * cfg.dt)


def plate_record(steps=4):
    grid = GridSpec(32, 32, 0.1)
    cfg = SchemeConfig(SchemeKind.SCHEME2, 0.25 * grid.dx)
    return integrate(wavefront_profile(WaveFrontSpec.plate(), grid), cfg, steps * cfg.dt)


def bump(record, column, delta, row=5):
    r = record.series[row]
    record.series[row] = replace(r, **{column: getattr(r, column) + delta})
    return record


# ---------------------------------------------------------------------------
# Seeded inputs.

def test_seed0_sine_is_sine_profile():
    grid = GridSpec(20, 20, 1.0)
    a, b = wl.sine_state(grid, 0), sine_profile(grid)
    for x, y in ((a.u.c1, b.u.c1), (a.u.c2, b.u.c2), (a.m.c1, b.m.c1), (a.m.c2, b.m.c2)):
        assert x.values.tobytes() == y.values.tobytes()


def test_seed0_plate_is_default():
    assert wl.plate_spec(0) == WaveFrontSpec.plate()


@pytest.mark.parametrize("seed", [1, 2, 17, 12345])
def test_other_seeds_shift_inputs_deterministically(seed):
    grid = GridSpec(20, 20, 1.0)
    s = wl.sine_state(grid, seed)
    assert wl.sine_phase(seed) != 0.0
    assert wl.sine_step_problems(s) == []
    assert s.u.c1.values.tobytes() == wl.sine_state(grid, seed).u.c1.values.tobytes()
    spec = wl.plate_spec(seed)
    assert spec == wl.plate_spec(seed)
    assert spec.segments != WaveFrontSpec.plate().segments


def test_label_of_matches_cli_labels():
    from epdiff.config import parse_scheme_label
    from epdiff.steppers import BootstrapKind

    for label in wl.LABELS:
        assert wl.label_of(parse_scheme_label(label).build(0.1, BootstrapKind.RK4)) == label


# ---------------------------------------------------------------------------
# Checks fail on corrupted outputs.

def test_sine_record_checks_pass_on_a_clean_run():
    record = sine_record()
    for label in ("scheme1", "scheme2", "scheme3"):
        assert wl.sine_record_problems(label, record) == []


@pytest.mark.parametrize("label,column,limit", [
    ("scheme1", "energy", 1e-7),
    ("scheme2", "energy", 1e-8),
    ("scheme3", "energy", 1e-8),
    ("scheme1", "momentum_x", 1e-7),
    ("scheme2", "momentum_x", 1e-7),
])
def test_sine_record_checks_catch_drift(label, column, limit):
    record = bump(sine_record(), column, limit)
    problems = wl.sine_record_problems(label, record)
    assert problems and column in problems[0]


def test_sine_step_check_catches_u2_and_y_variation():
    grid = GridSpec(12, 12, 1.0)
    good = wl.sine_state(grid, 3)
    assert wl.sine_step_problems(good) == []
    u1 = good.u.c1.values
    u2 = np.zeros(grid.shape)
    u2[4, 7] = 1e-300
    with_u2 = State.from_velocity(FieldPair.from_arrays(grid, u1, u2))
    assert any("u2" in p for p in wl.sine_step_problems(with_u2))
    varied = u1.copy()
    varied[3, 2] = np.nextafter(varied[3, 2], np.inf)
    with_y = State.from_velocity(FieldPair.from_arrays(grid, varied, np.zeros(grid.shape)))
    assert any("varies in y" in p for p in wl.sine_step_problems(with_y))


def test_plate_checks_pass_on_a_clean_run():
    assert wl.plate_record_problems("scheme2", plate_record()) == []


def test_plate_check_catches_momentum_defect():
    record = plate_record()
    s = record.states_tail[-1]
    record.states_tail = (State(u=s.u, m=s.m * 1.001, t=s.t),)
    assert any("momentum defect" in p for p in wl.plate_record_problems("scheme3", record))


def test_plate_check_catches_non_finite_fields():
    record = plate_record()
    s = record.states_tail[-1]
    bad = s.u.c1.values.copy()
    bad[0, 0] = np.nan
    fields = SimpleNamespace(c1=SimpleNamespace(values=bad), c2=s.u.c2)
    fake = SimpleNamespace(t=s.t, u=fields, m=s.m, momentum_defect=lambda: 0.0)
    record.states_tail = (fake,)
    assert any("u1 is not finite" in p for p in wl.plate_record_problems("rk4", record))


def test_plate_check_catches_scheme2_energy_drift():
    record = bump(plate_record(), "energy", 1e-8, row=2)
    assert any("energy" in p for p in wl.plate_record_problems("scheme2", record))


@pytest.fixture
def run_output(tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--grid", "16", "--scheme", "scheme2", "--snapshot-every", "1",
            "--t-final", repr(3 * 0.25 * 2 / 16), "--out", str(out)]
    assert epdiff.cli.main(argv) == 0
    scheme_dir = out / "scheme2"
    written = {str(p): wl.snapshot_hash(*read_snapshot(p))
               for p in sorted(scheme_dir.glob("snap_*.bin"))}
    assert len(written) == 4
    return scheme_dir, written


def test_output_check_passes_on_clean_output(run_output):
    scheme_dir, written = run_output
    assert wl.output_problems(0, scheme_dir, written, 4) == []


def test_output_check_catches_exit_code(run_output):
    scheme_dir, written = run_output
    assert any("exited" in p for p in wl.output_problems(2, scheme_dir, written, 4))


def test_output_check_catches_header(run_output):
    scheme_dir, written = run_output
    csv = scheme_dir / "invariants.csv"
    csv.write_text(csv.read_text().replace("energy", "Energy", 1))
    assert any("header" in p for p in wl.output_problems(0, scheme_dir, written, 4))


def test_output_check_catches_a_flipped_snapshot_byte(run_output):
    scheme_dir, written = run_output
    path = sorted(scheme_dir.glob("snap_*.bin"))[2]
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x01
    path.write_bytes(bytes(raw))
    problems = wl.output_problems(0, scheme_dir, written, 4)
    assert problems == [f"{path.name} does not read back bit-exactly"]


def test_output_check_catches_a_missing_snapshot(run_output):
    scheme_dir, written = run_output
    sorted(scheme_dir.glob("snap_*.bin"))[-1].unlink()
    assert any("3 snapshots" in p for p in wl.output_problems(0, scheme_dir, written, 4))


# ---------------------------------------------------------------------------
# Units, digests and tracing at a tiny size.

def test_compute_units_repeat_their_digest_and_pass():
    a = wl.run_unit(TINY_SINE, 4, Path("unused"))
    b = wl.run_unit(TINY_SINE, 4, Path("unused"))
    assert a.digest == b.digest
    assert all(r.problems == [] and len(r.samples) == 3 for r in a.runs)
    assert wl.run_unit(TINY_SINE, 5, Path("unused")).digest != a.digest


def test_output_unit_runs_the_seeded_plate(tmp_path):
    a = wl.run_output_unit(TINY_IO, 0, tmp_path / "a")
    assert [r.label for r in a.runs] == ["scheme2", "scheme3", "rk4"]
    assert all(r.problems == [] for r in a.runs)
    assert a.bytes_written == (6 + 5 + 5) * (32 + 2 * 16 * 16 * 8)
    assert a.digest == wl.run_output_unit(TINY_IO, 0, tmp_path / "b").digest
    assert a.digest != wl.run_output_unit(TINY_IO, 9, tmp_path / "c").digest
    assert epdiff.harness.default_spec is epdiff.profiles.default_spec
    assert epdiff.harness.wavefront_profile is epdiff.profiles.wavefront_profile
    assert epdiff.harness.integrate is epdiff.steppers.integrate
    assert epdiff.harness.write_snapshot is epdiff.snapshots.write_snapshot


def test_output_unit_applies_the_plate_checks(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "plate_record_problems", lambda label, record: [f"{label} bad"])
    unit = wl.run_output_unit(TINY_IO, 0, tmp_path)
    assert [r.problems for r in unit.runs] == [["scheme2 bad"], ["scheme3 bad"], ["rk4 bad"]]


def test_traced_counts_per_step():
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        for label in wl.LABELS:
            wl.run_label(TINY, 0, label, 3, tracer)
    finally:
        tracer.uninstall()
    alloc = tracing.Tracer(alloc=True)
    m = tracing.layer_metrics(tracer, alloc, {"overhead_s": 0.0})
    assert set(m) == set(tracing.layer_metric_units())
    assert m["core.bracket_calls.scheme2"]["value"] == 1
    assert m["grid.wrap_calls.scheme2"]["value"] == 2
    assert m["core.bracket_calls.rk4"]["value"] == 4
    assert m["core.bracket_calls.scheme1-fixed3"]["value"] == 4
    assert m["steppers.corrector_iters.scheme1-fixed3"]["value"] == 3
    assert m["steppers.linear_iters.scheme3"]["value"] >= 1
    assert all(v["value"] is not None and v["value"] >= 0 for k, v in m.items()
               if k != "trace.overhead_s")


def test_pair_traces_only_its_traced_half():
    before = {(name, attr): getattr(mod, attr) for name, mod in MODULES.items()
              for attr in vars(mod)}
    tracer = tracing.Tracer()
    plain, traced = wl.run_pair(TINY, 0, Path("unused"), tracer, MODULES)
    assert plain.digest == traced.digest
    assert [r.label for r in plain.runs] == [r.label for r in traced.runs] == list(wl.LABELS)
    assert {s.label for s in tracer.spans} == set(wl.LABELS)
    assert len(tracer.windows) == len(wl.LABELS)
    after = {(name, attr): getattr(mod, attr) for name, mod in MODULES.items()
             for attr in vars(mod)}
    assert after == before


def test_uninstall_restores_every_name():
    before = {(name, attr): getattr(mod, attr) for name, mod in MODULES.items()
              for attr in vars(mod)}
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    assert epdiff.steppers._gamma_arrays is not before[("epdiff.steppers", "_gamma_arrays")]
    tracer.uninstall()
    after = {(name, attr): getattr(mod, attr) for name, mod in MODULES.items()
             for attr in vars(mod)}
    assert after == before


def test_missing_wrap_target_is_reported_not_zero():
    steppers = SimpleNamespace(**{k: v for k, v in vars(epdiff.steppers).items()
                                  if k != "_gamma_arrays"})
    tracer = tracing.Tracer()
    tracer.install({**MODULES, "epdiff.steppers": steppers})
    tracer.uninstall()
    m = tracing.layer_metrics(tracer, tracing.Tracer(), {"overhead_s": 0.0})
    for name in ("core.bracket_ms", "core.bracket_calls.scheme2", "core.bracket_alloc_mb"):
        assert m[name]["value"] is None
        assert "epdiff.steppers._gamma_arrays" in m[name]["missing"]
    assert m["grid.qsolve_ms"]["value"] == 0.0


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer(active=True)

    def inner():
        time.sleep(0.02)

    def outer():
        tracer.call("child", "inner", inner)
        time.sleep(0.01)

    tracer.call("parent", "outer", outer)
    parent, child = tracer.spans
    assert child.parent is parent
    self_time = tracing._self_time(parent, tracing._child_time(tracer.spans))
    assert self_time == pytest.approx(parent.duration - child.duration)
    assert 0.009 < self_time < child.duration


# ---------------------------------------------------------------------------
# Statistics, metric names and the runner.

def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(100))
    value, pct = bench.tail(samples)
    assert value == 89 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 89 / 99)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_wall_counts_steps_at_the_reported_statistic_plus_the_rest():
    sine = wl.WORKLOADS["sine20"]
    steps = sine.groups[0][1]
    slow = [wl.LabelRun(label, samples=[0.002] * steps) for label in wl.LABELS]
    fast = [wl.LabelRun(label, samples=[0.001] * (steps - 1) + [0.003])
            for label in wl.LABELS]
    # Outside the steps: 0.3 s in the first unit, 0.2 s in the others.
    units = [wl.Unit(slow, 5 * steps * 0.002 + 0.3, 0.0, "")] + [
        wl.Unit(fast, 5 * steps * 0.001 + 5 * 0.002 + 0.2, 0.0, "")] * 2
    detail = bench.label_detail(sine, units)
    assert detail["scheme2"]["step_ms"] == pytest.approx(1.0)
    assert bench.wall_seconds(sine, units, detail) == pytest.approx(0.2 + 5 * steps * 0.001)
    io = wl.WORKLOADS["plate256-io"]
    assert bench.label_detail(io, units)["scheme2"]["step_ms"] == pytest.approx(1.0)
    assert bench.label_detail(io, units[:1])["scheme2"]["step_ms"] == pytest.approx(2.0)


def test_output_wall_covers_only_the_first_command():
    io = wl.WORKLOADS["plate256-io"]
    assert wl.wall_labels(io) == ("scheme2",)
    assert wl.wall_labels(wl.WORKLOADS["sine20"]) == wl.LABELS


def test_benchmark_json_names_match_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    units = [wl.Unit([wl.LabelRun(label, samples=[0.001] * 25) for label in wl.LABELS],
                     1.0, 1.0, "")]
    sine = wl.WORKLOADS["sine20"]
    e2e = bench.end_to_end(sine, units, bench.label_detail(sine, units), 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.layer_metric_units()


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sine20",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

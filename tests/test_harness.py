"""CLI commands, CSV schemas, snapshot format, and config handling."""

import dataclasses
import json
import math
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epdiff import ConfigError, GridSpec
from epdiff.cli import _build_parser, main
from epdiff.config import (
    COMMANDS,
    OPTIONS,
    ExperimentConfig,
    build_config,
    parse_scheme_label,
    read_config_file,
)
from epdiff.harness import _grid, _write_csv, run_command
from epdiff.snapshots import read_snapshot, write_snapshot
from epdiff.steppers import step_count
from conftest import random_pair


class TestSchemeLabels:
    def test_known_labels(self):
        from epdiff import FixedCount, SchemeKind

        sel = parse_scheme_label("scheme1")
        assert sel.kind is SchemeKind.SCHEME1_PC
        assert sel.corrector is None
        sel = parse_scheme_label("scheme1-fixed=5")
        assert sel.corrector == FixedCount(5)
        assert parse_scheme_label("scheme2").kind is SchemeKind.SCHEME2
        assert parse_scheme_label("scheme3").kind is SchemeKind.SCHEME3
        assert parse_scheme_label("rk4").kind is SchemeKind.RK4
        for label in ("scheme2", "scheme3", "rk4"):
            assert parse_scheme_label(label).corrector is None

    @pytest.mark.parametrize(
        "bad",
        ["scheme9", "scheme1-fixed=x", "scheme1-fixed=0", "", "scheme2,scheme2",
         "scheme1, scheme1"],
    )
    def test_bad_labels(self, tmp_path, bad):
        with pytest.raises(ConfigError):
            parse_scheme_label(bad)
        # A repeated label would run twice, the second run overwriting the
        # first one's files.  Flag and file forms both name the label.
        cfg_file = tmp_path / "labels.cfg"
        cfg_file.write_text(f"scheme = {bad}\n")
        label = bad.split(",")[-1].strip()
        for flags in ({"scheme": bad}, {"config": cfg_file}):
            with pytest.raises(ConfigError, match=re.escape(label) or None):
                build_config("conserve", flags)


class TestRepeatedGrid:
    @pytest.mark.parametrize(
        "command,grid,runner",
        [("convergence", "16,16", "convergence_study"), ("bench", "8,16x16,16", "_timed_steps")],
    )
    def test_rejected_before_any_run(self, tmp_path, monkeypatch, command, grid, runner):
        # A repeated grid used to run twice and give two identical rows.
        # Flag and file forms both name the grid.
        cfg_file = tmp_path / "grids.cfg"
        cfg_file.write_text(f"grid = {grid}\n")
        for flags in ({"grid": grid}, {"config": cfg_file}):
            with pytest.raises(ConfigError, match="16x16"):
                build_config(command, flags)
        calls = []
        monkeypatch.setattr(f"epdiff.harness.{runner}", lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        assert run_cli(command, "--grid", grid, "--out", str(out)) == 2
        assert not out.exists() and not calls


class TestTimeStepRules:
    @pytest.mark.parametrize(
        "rules",
        [
            {"dt": "0.01", "dt_dx_ratio": "0.5", "dt_dx2": "yes"},
            {"dt": "0.01", "dt_dx2": "yes"},
            {"dt_dx2": "on", "dt_dx_ratio": "0.5"},
        ],
    )
    def test_more_than_one_rule_exits_two(self, tmp_path, rules):
        # `run --dt 0.01 --dt-dx-ratio 0.5 --dt-dx2` used to run at dt = 0.01
        # and exit 0: the first rule set won and the others were ignored.
        argv = []
        for key, text in rules.items():
            opt = OPTIONS[key]
            argv += [opt.flag] if opt.switch else [opt.flag, text]
        cfg_file = tmp_path / "rules.cfg"
        cfg_file.write_text("".join(f"{key} = {text}\n" for key, text in rules.items()))
        out = tmp_path / "out"
        for form in (argv, ["--config", str(cfg_file)]):
            assert run_cli("run", "--grid", "8", *form, "--out", str(out)) == 2
            assert not out.exists()
        with pytest.raises(ConfigError, match="at most one time-step rule"):
            build_config("run", {"config": cfg_file})

    def test_switch_set_to_no_is_not_a_rule(self, tmp_path):
        cfg_file = tmp_path / "rules.cfg"
        cfg_file.write_text("dt = 0.01\ndt_dx2 = no\n")
        cfg = build_config("run", {"config": cfg_file})
        assert (cfg.dt, cfg.dt_dx2, cfg.resolve_dt(0.5)) == (0.01, False, 0.01)


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# comment\n"
            "grid = 16x16\n"
            "t-final = 0.5   # trailing comment\n"
            "alpha = 0.7\n"
        )
        values = read_config_file(cfg_file)
        assert values == {"grid": "16x16", "t_final": "0.5", "alpha": "0.7"}
        # Flags win over the file.
        cfg = build_config(
            "conserve", {"config": cfg_file, "alpha": "0.9", "scheme": "scheme2"}
        )
        assert cfg.K == 16 and cfg.alpha == 0.9 and cfg.t_final == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        # ``grids`` is rejected too: the grid list is the ``grid`` key.
        for line in ("gridd = 16\n", "grids = 32,64\n"):
            cfg_file.write_text(line)
            with pytest.raises(ConfigError):
                read_config_file(cfg_file)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config_file(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("key", ["bench_steps", "bench_reps"])
    def test_bench_counts_must_be_positive(self, tmp_path, key, value):
        # Zero reps used to fail only after the run, in the slope fit.
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        for flags in ({"config": cfg_file}, {key: value}):
            with pytest.raises(ConfigError, match=key):
                build_config("bench", flags)
        assert getattr(build_config("bench", {key: "1"}), key) == 1

    @pytest.mark.parametrize("command", COMMANDS)
    def test_defaults_resolve_whole_step_counts(self, command):
        # A default that is not a whole number of steps fails before it runs.
        # 1025 is the grid of the paper's wave-front runs.
        cases = [{}]
        if command in ("run", "reversibility"):
            cases.append({"grid": "1025"})
        for flags in cases:
            cfg = build_config(command, flags)
            if command == "convergence":
                # Every level and the reference run at dt = dx.
                sizes = [k for k, _ in cfg.grids] + [cfg.reference_grid[0]]
                dts = [GridSpec(n, n, cfg.alpha).dx for n in sizes]
            elif command == "bench":
                dts = [cfg.resolve_dt(GridSpec(k, j, cfg.alpha).dx) for k, j in cfg.grids]
            else:
                dts = [cfg.resolve_dt(_grid(cfg).dx)]
            for dt in dts:
                assert step_count(0.0, cfg.t_final, dt) >= 1

    @pytest.mark.parametrize("value", ["ture", "", "2", "y"])
    def test_booleans_are_strict(self, tmp_path, value):
        # A misspelt switch used to resolve silently to False.
        cfg_file = tmp_path / "switch.cfg"
        cfg_file.write_text(f"gaussian_cross_section = {value}\n")
        with pytest.raises(ConfigError, match="gaussian_cross_section"):
            build_config("run", {"config": cfg_file})
        for text, expected in (("YES", True), ("On", True), ("1", True), ("off", False)):
            cfg_file.write_text(f"gaussian_cross_section = {text}\n")
            cfg = build_config("run", {"config": cfg_file})
            assert cfg.gaussian_cross_section is expected

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_config("conserve", {"grid": "16x16", "alpha": "-1"})
        with pytest.raises(ConfigError):
            build_config("conserve", {"grid": "banana"})
        with pytest.raises(ConfigError):
            build_config("conserve", {"profile": "blob"})
        for key in ("t_final", "dt", "alpha", "sigma"):
            for text in ("inf", "-inf", "nan"):
                with pytest.raises(ConfigError, match=key):
                    build_config("conserve", {key: text})


# Resolved defaults per command, as the front end gave them before its
# options moved into one table: labels, grids, alpha, t_final, profile,
# amplitude and resolve_dt(0.5).
COMMAND_DEFAULTS = {
    "run": (("scheme2",), ((160, 160),), 0.1, 0.4, "plate", 1.0, 0.125),
    "conserve": (
        ("scheme1", "scheme1-fixed=5", "scheme2", "scheme3", "rk4"),
        ((20, 20),), 1.0, 50.0, "sine", 1.0, 0.25,
    ),
    "convergence": (
        ("scheme2",), ((32, 32), (64, 64), (128, 128)), 0.1, 0.375, "plate", 0.5, 0.125,
    ),
    "reversibility": (("scheme2",), ((200, 200),), 0.1, 0.4, "plate", 1.0, 0.125),
    "bench": (
        ("scheme1-fixed=3", "scheme2", "scheme3"),
        ((100, 100), (200, 200), (300, 300)), 0.1, 0.4, "plate", 1.0, 0.125,
    ),
}

# Options that only a wave-front profile reads.
FRONT_ONLY = {"sigma", "amplitude", "gaussian_cross_section"}


def front_default(command: str) -> bool:
    return build_config(command, {}).profile != "sine"


def read_by(command: str) -> set[str]:
    return {key for key, opt in OPTIONS.items() if command in opt.commands}


# Options the front end no longer has, with a sample value.  The library
# keeps GridSpec(1025, 1025, alpha); scheme1's corrector tolerance is the two
# constants steppers.CORRECTOR_RTOL and steppers.CORRECTOR_MAX_PASSES.
REMOVED_OPTIONS = {"full_scale": "true", "corrector_rtol": "1e-10", "corrector_max_iter": "9"}

# One non-default value per option, in config-file form.
OPTION_SAMPLES = {
    "scheme": "scheme1,rk4",
    "grid": "16x12",
    "alpha": "0.5",
    "dt": "0.01",
    "dt_dx2": "yes",
    "dt_dx_ratio": "0.5",
    "t_final": "0.5",
    "profile": "star",
    "sigma": "0.2",
    "amplitude": "0.7",
    "gaussian_cross_section": "on",
    "out": "elsewhere",
    "snapshot_every": "2",
    "seed": "7",
    "reference_grid": "64",
    "bootstrap": "scheme1",
    "bench_steps": "4",
    "bench_reps": "2",
}


class TestOptionTable:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_defaults(self, command):
        from epdiff import FixedCount
        from epdiff.steppers import BootstrapKind

        labels, grids, alpha, t_final, profile, amplitude, dt = COMMAND_DEFAULTS[command]
        cfg = build_config(command, {})
        assert tuple(sel.label for sel in cfg.schemes) == labels
        for sel in cfg.schemes:
            fixed = sel.label.startswith("scheme1-fixed=")
            expected = FixedCount(int(sel.label[-1])) if fixed else None
            assert sel.corrector == expected
        assert cfg.grids == grids and (cfg.K, cfg.J) == grids[0]
        assert (cfg.alpha, cfg.t_final, cfg.profile, cfg.amplitude) == (
            alpha, t_final, profile, amplitude,
        )
        assert cfg.resolve_dt(0.5) == dt
        assert cfg.reference_grid == (256, 256)
        assert (cfg.bench_steps, cfg.bench_reps) == (20, 3)
        assert (cfg.snapshot_every, cfg.seed, cfg.out_dir) == (0, 0, Path("out"))
        assert cfg.bootstrap is BootstrapKind.RK4
        assert (cfg.dt, cfg.dt_dx_ratio, cfg.sigma) == (None, None, None)
        assert not (cfg.dt_dx2 or cfg.gaussian_cross_section)

    @pytest.mark.parametrize("key", OPTIONS)
    def test_file_and_flag_forms_agree(self, tmp_path, key):
        assert set(OPTION_SAMPLES) == set(OPTIONS)
        text = OPTION_SAMPLES[key]
        cfg_file = tmp_path / "one.cfg"
        opt = OPTIONS[key]
        argv = [opt.flag] if opt.switch else [opt.flag, text]
        for command in opt.commands:
            # The sine profile takes no front options: give those a plate.
            plate = key in FRONT_ONLY and not front_default(command)
            base = {"profile": "plate"} if plate else {}
            cfg_file.write_text(f"{key} = {text}\n" + "profile = plate\n" * plate)
            extra = ["--profile", "plate"] * plate
            args = vars(_build_parser().parse_args([command, *argv, *extra]))
            del args["command"]
            from_flag = build_config(command, args)
            assert build_config(command, {"config": cfg_file}) == from_flag
            assert from_flag != build_config(command, base)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_every_option(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        flags = set(re.findall(r"--[a-z0-9-]+", text))
        assert flags == {OPTIONS[key].flag for key in read_by(command)} | {"--config", "--help"}
        for key in read_by(command):
            assert " ".join(OPTIONS[key].help.split()[:3]) in " ".join(text.split())

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unread_options_rejected(self, tmp_path, command, capsys):
        cfg_file = tmp_path / "one.cfg"
        for key in OPTIONS.keys() - read_by(command):
            opt, text = OPTIONS[key], OPTION_SAMPLES[key]
            with pytest.raises(SystemExit) as exc:
                main([command, *([opt.flag] if opt.switch else [opt.flag, text])])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {opt.flag}" in capsys.readouterr().err
            cfg_file.write_text(f"{key} = {text}\n")
            for flags in ({"config": cfg_file}, {key: text}):
                with pytest.raises(ConfigError, match=f"^{command} takes no option '{key}'$"):
                    build_config(command, flags)
        for key, text in REMOVED_OPTIONS.items():
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                main([command, flag, *([] if key == "full_scale" else [text])])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            cfg_file.write_text(f"{key} = {text}\n")
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                build_config(command, {"config": cfg_file})

    def test_unread_options_of_bench_exit_two(self, tmp_path, capsys):
        # This command line used to exit 0 and benchmark 8x8.
        with pytest.raises(SystemExit) as exc:
            main([
                "bench", "--grid", "8", "--full-scale", "--snapshot-every", "2",
                "--reference-grid", "64", "--bench-steps", "2", "--bench-reps", "1",
                "--scheme", "scheme2", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_sine_profile_rejects_front_options(self, tmp_path, command):
        base = {"profile": "sine"}
        build_config(command, base)  # defaults such as amplitude 0.5 are no trip
        cfg_file = tmp_path / "front.cfg"
        for key in FRONT_ONLY & read_by(command):
            cfg_file.write_text(f"{key} = {OPTION_SAMPLES[key]}\n")
            for flags in ({**base, key: OPTION_SAMPLES[key]}, {**base, "config": cfg_file}):
                with pytest.raises(ConfigError, match=f"sine profile takes no {key}"):
                    build_config(command, flags)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rk4_alone_rejects_bootstrap(self, tmp_path, command):
        # The bootstrap used to be taken and ignored when no label read it.
        cfg_file = tmp_path / "boot.cfg"
        cfg_file.write_text("bootstrap = scheme1\n")
        for flags in ({"bootstrap": "scheme1"}, {"config": cfg_file}):
            with pytest.raises(ConfigError, match="rk4 scheme takes no bootstrap"):
                build_config(command, {**flags, "scheme": "rk4"})
        build_config(command, {"scheme": "rk4"})
        if command != "convergence":  # it takes one scheme
            build_config(command, {"config": cfg_file, "scheme": "rk4,scheme2"})
        out = tmp_path / "out"
        argv = [command, "--scheme", "rk4", "--bootstrap", "scheme1", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_readme_synopsis_lists_every_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        synopsis = readme.split("## Command line", 1)[1].split("```")[1]
        flags = set(re.findall(r"--[a-z0-9-]+", synopsis))
        assert flags == {opt.flag for opt in OPTIONS.values()} | {"--config"}

    @pytest.mark.parametrize("command", ["run", "conserve", "reversibility"])
    def test_single_run_commands_reject_grid_lists(self, tmp_path, command):
        with pytest.raises(ConfigError, match=f"{command} takes one grid, got 2"):
            build_config(command, {"grid": "16,32"})
        # It used to run 16x16 and exit 0.
        assert main([command, "--grid", "16,32", "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())


# A tiny run of each command, every other option at its default.
TINY_RUNS = {
    "run": {"grid": "8", "t_final": "0.125"},
    "conserve": {"grid": "8", "t_final": "0.125", "profile": "plate", "scheme": "scheme2"},
    "convergence": {"grid": "8,16", "reference_grid": "32", "t_final": "0.25"},
    "reversibility": {"grid": "8", "t_final": "0.125"},
    "bench": {"grid": "8", "scheme": "scheme2", "bench_steps": "1", "bench_reps": "1"},
}

# Config fields built from other option keys; every other field is its key.
FIELD_OPTIONS = {
    "schemes": {"scheme"},
    "grids": {"grid"},
    "out_dir": {"out"},
}


class TestOptionTraffic:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_commands_read_exactly_their_options(self, tmp_path, command):
        # The option table's commands must match what each command reads.
        reads: set[str] = set()

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                reads.add(name)
                return object.__getattribute__(self, name)

        cfg = build_config(command, {**TINY_RUNS[command], "out": str(tmp_path)})
        fields = {f.name for f in dataclasses.fields(cfg)} - {"command"}
        recording = Recording(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)})
        reads.clear()
        assert run_command(recording) == 0
        read = set().union(*(FIELD_OPTIONS.get(name, {name}) for name in reads & fields))
        assert read == read_by(command)


class TestSnapshots:
    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        g = GridSpec(12, 8, 0.37)
        u = random_pair(g, rng)
        path = tmp_path / "snap.bin"
        write_snapshot(u, 1.25, path)
        back, t = read_snapshot(path)
        assert t == 1.25
        assert back.grid == g
        assert np.array_equal(back.c1.values, u.c1.values)
        assert np.array_equal(back.c2.values, u.c2.values)

    def test_file_is_header_then_field_bytes(self, tmp_path, rng):
        g = GridSpec(7, 5, 0.5)
        u = random_pair(g, rng)
        path = tmp_path / "snap.bin"
        write_snapshot(u, 0.75, path)
        header = struct.pack("<4sIIIdd", b"EPDF", 1, 7, 5, 0.5, 0.75)
        assert path.read_bytes() == header + u.values.astype("<f8").tobytes()

    def test_header_fields(self, tmp_path, rng):
        g = GridSpec(6, 10, 2.0)
        path = tmp_path / "snap.bin"
        write_snapshot(random_pair(g, rng), 0.5, path)
        raw = path.read_bytes()
        assert raw[:4] == b"EPDF"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 6
        assert int.from_bytes(raw[12:16], "little") == 10

    def test_corrupted_magic_rejected(self, tmp_path, rng):
        g = GridSpec(6, 6, 1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(random_pair(g, rng), 0.0, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            read_snapshot(path)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, tmp_path, rng, alpha):
        g = GridSpec(6, 6, 1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(random_pair(g, rng), 0.0, path)
        raw = bytearray(path.read_bytes())
        raw[16:24] = struct.pack("<d", alpha)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_truncation_rejected(self, tmp_path, rng):
        g = GridSpec(6, 6, 1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(random_pair(g, rng), 0.0, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_snapshot(path)


def run_cli(*args) -> int:
    return main(list(args))


def run_cli_process(*args, threads=False) -> subprocess.CompletedProcess:
    """``epdiff`` with ``args`` in a fresh interpreter; with ``threads``, it
    prints the names of the threads alive when the command returns."""
    src = Path(run_command.__code__.co_filename).resolve().parent.parent
    code = (
        "import sys, threading; sys.path.insert(0, sys.argv[1]); "
        "from epdiff.cli import main; code = main(sys.argv[2:]); "
        + ("print(*(t.name for t in threading.enumerate())); " if threads else "")
        + "sys.exit(code)"
    )
    return subprocess.run(
        [sys.executable, "-c", code, str(src), *args],
        capture_output=True, text=True, timeout=120,
    )


class TestConserveCommand:
    def test_writes_csv_and_summary(self, tmp_path):
        code = run_cli(
            "conserve",
            "--grid", "12x12",
            "--t-final", "0.5",
            "--scheme", "scheme2",
            "--out", str(tmp_path),
        )
        assert code == 0
        csv = (tmp_path / "scheme2" / "invariants.csv").read_text().splitlines()
        assert csv[0] == "step,t,energy,momentum_x,momentum_y,corrector_iters,wall_seconds"
        assert len(csv) == 1 + 19  # header + steps 0..18
        summary = json.loads((tmp_path / "summary.json").read_text())
        entry = summary["schemes"]["scheme2"]
        assert entry["status"] == "ok"
        assert entry["steps"] == 18
        assert {"total_variation", "sup_deviation"} <= set(entry["energy"])

    def test_floats_have_full_precision(self, tmp_path):
        run_cli(
            "conserve", "--grid", "12x12", "--t-final", "0.25",
            "--scheme", "scheme2", "--out", str(tmp_path),
        )
        rows = (tmp_path / "scheme2" / "invariants.csv").read_text().splitlines()[1:]
        energy = rows[1].split(",")[2]
        # 17 significant digits round-trip float64 exactly.
        assert float(energy) == float(f"{float(energy):.17g}")
        assert len(energy.replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            run_cli(
                "conserve", "--grid", "12x12", "--t-final", "0.5",
                "--scheme", "scheme1-fixed=3", "--seed", "7",
                "--out", str(tmp_path / sub),
            )
            rows = (tmp_path / sub / "scheme1-fixed=3" / "invariants.csv").read_text().splitlines()
            # Every column except the wall clock must be byte-identical.
            outs.append([",".join(r.split(",")[:6]) for r in rows])
        assert outs[0] == outs[1]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(
    rows=st.lists(
        st.tuples(st.integers(), _FINITE, _FINITE.map(np.float64), st.integers(-3, 3)),
        min_size=1,
        max_size=4,
    )
)
def test_csv_cells_parse_back_bit_for_bit(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    _write_csv(path, "a,b,c,d", rows)
    header, *lines = path.read_text().splitlines()
    assert header == "a,b,c,d" and len(lines) == len(rows)
    for line, row in zip(lines, rows):
        cells = line.split(",")
        assert [int(cells[0]), int(cells[3])] == [row[0], row[3]]
        for cell, value in zip(cells[1:3], row[1:3]):
            assert float(cell).hex() == float(value).hex()


class TestRunCommand:
    def test_snapshots_written_at_cadence(self, tmp_path):
        code = run_cli(
            "run", "--grid", "32", "--profile", "plate", "--t-final", "0.125",
            "--snapshot-every", "4", "--out", str(tmp_path),
        )
        assert code == 0
        snaps = sorted((tmp_path / "scheme2").glob("snap_*.bin"))
        assert [p.name for p in snaps] == [
            "snap_00000000.bin", "snap_00000004.bin", "snap_00000008.bin",
        ]
        u, t = read_snapshot(snaps[1])
        assert u.grid.K == 32
        assert t == pytest.approx(4 * (2.0 / 32) / 4)

    def test_zero_cadence_writes_no_snapshots(self, tmp_path):
        run_cli(
            "run", "--grid", "32", "--t-final", "0.125", "--out", str(tmp_path)
        )
        assert not list((tmp_path / "scheme2").glob("snap_*.bin"))

    def test_boundary_violating_geometry_is_rejected(self, tmp_path):
        code = run_cli(
            "run", "--grid", "32", "--profile", "star", "--sigma", "0.2",
            "--out", str(tmp_path),
        )
        assert code == 2


class TestReversibilityCommand:
    def test_csv_schema(self, tmp_path):
        code = run_cli(
            "reversibility", "--grid", "48", "--t-final", "0.25",
            "--scheme", "scheme2", "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "reversibility.csv").read_text().splitlines()
        assert rows[0] == "scheme,profile,alpha_over_sigma,dt_over_dx,rel_error_percent"
        fields = rows[1].split(",")
        assert fields[0] == "scheme2" and fields[1] == "plate"
        assert float(fields[2]) == 1.0
        assert float(fields[3]) == 0.25
        assert 0.0 <= float(fields[4]) < 100.0


class TestConvergenceCommand:
    def test_csv_and_slope(self, tmp_path):
        code = run_cli(
            "convergence", "--grid", "16,32", "--reference-grid", "64",
            "--t-final", "0.25", "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        assert rows[0] == "h,error"
        errs = [float(r.split(",")[1]) for r in rows[1:]]
        assert errs[0] > errs[1] > 0.0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "fitted_slope" in summary

    def test_reference_must_be_strictly_finer(self, tmp_path):
        code = run_cli(
            "convergence", "--grid", "16,64", "--reference-grid", "64",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert not list(tmp_path.iterdir())

    def test_several_schemes_rejected(self, tmp_path):
        # Only the first label used to run, and the command exited 0.
        code = run_cli(
            "convergence", "--scheme", "scheme2,scheme3", "--grid", "8,16",
            "--reference-grid", "32", "--t-final", "0.5", "--out", str(tmp_path),
        )
        assert code == 2
        assert not list(tmp_path.iterdir())

    def test_single_grid_rejected_before_any_run(self, tmp_path, monkeypatch):
        # One level gives one point, which no slope fits: refuse it before
        # integrating the reference and that level.
        calls = []
        monkeypatch.setattr("epdiff.harness.convergence_study", lambda *a: calls.append(a))
        code = run_cli(
            "convergence", "--grid", "16", "--reference-grid", "32", "--out", str(tmp_path)
        )
        assert code == 2
        assert not list(tmp_path.iterdir()) and not calls

    def test_non_nested_grids_rejected(self, tmp_path, capsys):
        # Two grids, both coarser than the reference, so only the nesting
        # rule can refuse them: 24 does not divide 64.
        code = run_cli(
            "convergence", "--grid", "24,32", "--reference-grid", "64",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "does not nest" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestBenchCommand:
    def test_csv_and_exponent(self, tmp_path):
        code = run_cli(
            "bench", "--grid", "24,48", "--scheme", "scheme2",
            "--bench-steps", "5", "--bench-reps", "2", "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "bench.csv").read_text().splitlines()
        assert rows[0] == "grid_points,scheme,seconds_per_step"
        assert rows[1].split(",")[0] == "576"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "cost_exponent_vs_points" in summary["schemes"]["scheme2"]

    def test_single_grid_skips_exponent_fit(self, tmp_path):
        run_cli(
            "bench", "--grid", "24", "--scheme", "scheme2",
            "--bench-steps", "3", "--bench-reps", "1", "--out", str(tmp_path),
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schemes"]["scheme2"]["exponent_fit_skipped"] is True


class TestExitCodes:
    def test_config_errors_exit_two(self, tmp_path):
        assert run_cli("conserve", "--scheme", "nope", "--out", str(tmp_path)) == 2
        assert run_cli("conserve", "--grid", "2x2", "--out", str(tmp_path)) == 2
        assert (
            run_cli(
                "reversibility", "--grid", "48", "--t-final", "0.2",
                "--out", str(tmp_path),
            )
            == 2
        )  # 0.2/(dx/4) is not an integer step count

    @pytest.mark.parametrize(
        "flags", [("--t-final", "inf"), ("--t-final", "nan"), ("--dt", "1e-320")]
    )
    def test_non_finite_numbers_exit_two(self, tmp_path, flags):
        # These used to die with an OverflowError traceback in the step count.
        code = run_cli(
            "conserve", "--grid", "8", "--scheme", "scheme2", *flags, "--out", str(tmp_path)
        )
        assert code == 2
        assert not list(tmp_path.iterdir())

    def test_uncreatable_out_exits_two_before_any_run(self, tmp_path, monkeypatch, capsys):
        # An --out below a regular file used to fail after the first scheme's
        # run, in its mkdir, with a NotADirectoryError traceback and exit 1.
        blocker = tmp_path / "file"
        blocker.write_text("")
        calls = []
        monkeypatch.setattr("epdiff.harness.integrate", lambda *a, **k: calls.append(a))
        code = run_cli(
            "run", "--grid", "8", "--profile", "sine", "--dt", "0.005",
            "--t-final", "0.01", "--out", str(blocker / "sub"),
        )
        assert code == 2 and not calls
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err

    @pytest.mark.parametrize(
        "argv",
        [
            ("convergence", "--grid", "16", "--reference-grid", "32"),
            ("convergence", "--grid", "24,32", "--reference-grid", "64", "--t-final", "0.25"),
            ("convergence", "--grid", "8,16", "--reference-grid", "32", "--t-final", "0.3"),
            ("run", "--grid", "8", "--sigma", "0.3"),
            ("reversibility", "--grid", "8", "--sigma", "0.3"),
            ("bench", "--grid", "8", "--sigma", "0.3"),
            ("run", "--grid", "8", "--profile", "sine", "--dt", "0.03", "--t-final", "0.1"),
        ],
    )
    def test_config_errors_create_nothing(self, tmp_path, monkeypatch, argv):
        # Each used to exit 2 from inside its command, after --out was made:
        # too few convergence grids, grids that do not nest (at a t_final
        # that every level divides), a dt that does not divide t_final, and
        # a front whose cutoff radius does not fit.
        calls = []
        for target in ("epdiff.harness.integrate", "epdiff.diagnostics.integrate"):
            monkeypatch.setattr(target, lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert not out.exists() and not calls

    @pytest.mark.parametrize(
        "scheme,extra,step",
        [
            ("scheme2", ("--bootstrap", "scheme1"), 1),
            ("rk4", (), 1),
            ("scheme1", ("--bootstrap", "scheme1"), 1),
            ("scheme1-fixed=3", ("--bootstrap", "scheme1"), 1),
        ],
    )
    def test_q_solve_residual_failure_record(self, tmp_path, monkeypatch, scheme, extra, step):
        # A checked Q-solve whose answer is off by 1e-6 relative fails its
        # residual check, in the record's fields.
        import epdiff.grid as grid_module

        solve = grid_module._solve_q_stack_arr
        monkeypatch.setattr(
            grid_module, "_solve_q_stack_arr", lambda a, g: solve(a, g) * (1.0 + 1e-6)
        )
        code = run_cli(
            "run", "--grid", "8", "--profile", "sine", "--dt", "0.01", "--t-final", "0.03",
            "--scheme", scheme, *extra, "--out", str(tmp_path),
        )
        assert code == 1
        entry = json.loads((tmp_path / "summary.json").read_text())["schemes"][scheme]
        assert entry["status"] == "failed" and entry["failed_step"] == step
        assert entry["residual"] == pytest.approx(1e-6, rel=1e-6)

    def test_corrector_non_convergence_failure_record(self, tmp_path, monkeypatch):
        # Two passes cannot reach the corrector's tolerance.  The first step
        # is the RK4 bootstrap, so scheme1's own step 2 fails, with the last
        # relative increment as its residual.
        import epdiff.steppers as steppers

        monkeypatch.setattr(steppers, "CORRECTOR_MAX_PASSES", 2)
        code = run_cli(
            "run", "--grid", "8", "--profile", "sine", "--dt", "0.01", "--t-final", "0.03",
            "--scheme", "scheme1", "--out", str(tmp_path),
        )
        assert code == 1
        entry = json.loads((tmp_path / "summary.json").read_text())["schemes"]["scheme1"]
        assert entry["status"] == "failed" and entry["failed_step"] == 2
        assert "did not reach" in entry["error"]
        assert math.isfinite(entry["residual"]) and entry["residual"] > steppers.CORRECTOR_RTOL

    def test_linear_solve_stall_failure_record(self, tmp_path, monkeypatch):
        # With a residual cap of 0 the CG cannot stop: it runs to its
        # iteration cap on the first scheme3 step, after the RK4 bootstrap.
        import epdiff.steppers as steppers

        monkeypatch.setattr(steppers, "SCHEME3_RTOL", 0.0)
        monkeypatch.setattr(steppers, "SCHEME3_RESIDUAL_CAP", 0.0)
        code = run_cli(
            "run", "--grid", "8", "--profile", "sine", "--dt", "0.01", "--t-final", "0.03",
            "--scheme", "scheme3", "--out", str(tmp_path),
        )
        assert code == 1
        entry = json.loads((tmp_path / "summary.json").read_text())["schemes"]["scheme3"]
        assert entry["status"] == "failed" and entry["failed_step"] == 2
        assert "linear solve stalled" in entry["error"]
        assert math.isfinite(entry["residual"]) and entry["residual"] > 0.0

    def test_numerical_failure_exits_one(self, tmp_path):
        # dt far beyond the stability limit of the sine benchmark.
        with np.errstate(all="ignore"):
            code = run_cli(
                "conserve", "--grid", "16x16", "--dt", "0.5", "--t-final", "10",
                "--scheme", "scheme2", "--out", str(tmp_path),
            )
        assert code == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        entry = summary["schemes"]["scheme2"]
        assert entry["status"] == "failed"
        assert isinstance(entry["failed_step"], int) and entry["failed_step"] >= 1

    def test_blow_up_failure_record(self, tmp_path):
        # scheme2 on the 16^2 sine at dt = 0.5 grows until the checked
        # solve of step 6 squares entries past the largest float.  That
        # momentum cannot be verified, so the record has no residual.
        with np.errstate(all="ignore"):
            code = run_cli(
                "run", "--grid", "16", "--profile", "sine", "--dt", "0.5", "--t-final", "5",
                "--scheme", "scheme2", "--out", str(tmp_path),
            )
        assert code == 1
        entry = json.loads((tmp_path / "summary.json").read_text())["schemes"]["scheme2"]
        assert entry["status"] == "failed" and entry["failed_step"] == 6
        assert "not finite" in entry["error"]
        assert "residual" not in entry

    def test_overflowing_corrector_fails_its_first_step(self, tmp_path):
        # The scheme1 bootstrap on the 3x3 sine overflows its corrector
        # norms within step 1; that step fails with the last finite
        # relative increment, in a summary that is strict JSON.
        def reject(constant):
            raise AssertionError(f"summary.json holds {constant}")

        with np.errstate(all="ignore"):
            code = run_cli(
                "run", "--grid", "3", "--profile", "sine",
                "--dt", "0.4444444444444444", "--t-final", "1.3333333333333333",
                "--scheme", "scheme1", "--bootstrap", "scheme1", "--out", str(tmp_path),
            )
        assert code == 1
        text = (tmp_path / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        entry = summary["schemes"]["scheme1"]
        assert entry["status"] == "failed"
        assert entry["failed_step"] == 1
        assert math.isfinite(entry["residual"]) and entry["residual"] != 0.0

    def test_overflowing_corrector_prints_no_warning(self, tmp_path):
        # The corrector squares its diverging iterate past the largest
        # float; the failure record says so, and numpy's overflow warning
        # would only repeat it.
        proc = run_cli_process(
            "run", "--grid", "3", "--profile", "sine",
            "--dt", "0.4444444444444444", "--t-final", "1.3333333333333333",
            "--scheme", "scheme1", "--bootstrap", "scheme1", "--out", str(tmp_path),
        )
        assert proc.returncode == 1
        assert "RuntimeWarning" not in proc.stderr
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schemes"]["scheme1"]["failed_step"] == 1

    def test_split_grid_run_exits_and_leaves_nothing_running(self, tmp_path):
        # At 128^2 the kernels start their helper thread, a daemon: the
        # process ends when the run does.
        proc = run_cli_process(
            "run", "--grid", "128", "--dt", "0.00390625", "--t-final", "0.0078125",
            "--out", str(tmp_path), threads=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "epdiff-layer-0" in proc.stdout.split()
        assert json.loads((tmp_path / "summary.json").read_text())["schemes"]

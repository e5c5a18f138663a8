"""CLI commands, CSV schemas, snapshot format, and config handling."""

import json

import numpy as np
import pytest

from epdiff import ConfigError, GridSpec
from epdiff.cli import main
from epdiff.config import COMMANDS, build_config, parse_scheme_label, read_config_file
from epdiff.harness import _grid
from epdiff.snapshots import read_snapshot, write_snapshot
from epdiff.steppers import _resolve_step_count
from conftest import random_pair


class TestSchemeLabels:
    def test_known_labels(self):
        from epdiff import FixedCount, SchemeKind, Tolerance

        sel = parse_scheme_label("scheme1")
        assert sel.kind is SchemeKind.SCHEME1_PC
        assert isinstance(sel.corrector, Tolerance)
        sel = parse_scheme_label("scheme1-fixed=5")
        assert sel.corrector == FixedCount(5)
        assert parse_scheme_label("scheme2").kind is SchemeKind.SCHEME2
        assert parse_scheme_label("scheme3").kind is SchemeKind.SCHEME3
        assert parse_scheme_label("rk4").kind is SchemeKind.RK4

    @pytest.mark.parametrize("bad", ["scheme9", "scheme1-fixed=x", "scheme1-fixed=0", ""])
    def test_bad_labels(self, bad):
        with pytest.raises(ConfigError):
            parse_scheme_label(bad)


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
        for flags in ({}, {"full_scale": True}):
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
                assert _resolve_step_count(0.0, cfg.t_final, dt) >= 1

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_config("conserve", {"grid": "16x16", "alpha": "-1"})
        with pytest.raises(ConfigError):
            build_config("conserve", {"grid": "banana"})
        with pytest.raises(ConfigError):
            build_config("conserve", {"profile": "blob"})


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

    def test_truncation_rejected(self, tmp_path, rng):
        g = GridSpec(6, 6, 1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(random_pair(g, rng), 0.0, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_snapshot(path)


def run_cli(*args) -> int:
    return main(list(args))


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

    def test_non_nested_grids_rejected(self, tmp_path):
        code = run_cli(
            "convergence", "--grid", "24", "--reference-grid", "64",
            "--out", str(tmp_path),
        )
        assert code == 2


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

    def test_numerical_failure_exits_one(self, tmp_path):
        # dt far beyond the stability limit of the sine benchmark.
        with np.errstate(all="ignore"):
            code = run_cli(
                "conserve", "--grid", "16x16", "--dt", "0.5", "--t-final", "10",
                "--scheme", "scheme2", "--out", str(tmp_path),
            )
        assert code == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schemes"]["scheme2"]["status"] == "failed"

"""Experiment commands: conservation, wave-front runs, convergence,
reversibility, and per-step cost benchmarks.

Every command writes schema-stable CSV files (fixed column order, header row,
17 significant digits) plus a ``summary.json``.  All numeric output except
the wall-clock column is byte-identical across reruns with the same
configuration and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import ExperimentConfig, SchemeSelection
from .core import State
from .diagnostics import convergence_study, fit_loglog_slope, invariant_stats, reversibility_test
from .errors import ConfigError, NumericalFailureError
from .grid import GridSpec
from .profiles import FrontKind, WaveFrontSpec, default_spec, sine_profile, wavefront_profile
from .snapshots import write_snapshot
from .steppers import RunRecord, SeriesRow, integrate, step_count

__all__ = [
    "cmd_conserve",
    "cmd_convergence",
    "cmd_reversibility",
    "cmd_bench",
    "run_command",
]

_SERIES_FIELDS = tuple(f.name for f in fields(SeriesRow))
INVARIANTS_HEADER = ",".join(_SERIES_FIELDS)


def _write_csv(path: Path, header: str, rows: Iterable[Sequence]) -> None:
    """Write ``header`` and one line per row: a float cell with 17 significant
    digits, any other cell with ``str``."""
    lines = [header]
    lines += (",".join([f"{v:.17g}" if isinstance(v, float) else str(v) for v in r]) for r in rows)
    path.write_text("\n".join(lines) + "\n")


def _front_spec(cfg: ExperimentConfig) -> WaveFrontSpec:
    kind = FrontKind(cfg.profile)
    return default_spec(
        kind,
        sigma=cfg.sigma,
        amplitude=cfg.amplitude,
        gaussian_cross_section=cfg.gaussian_cross_section,
    )


def _initial_state(cfg: ExperimentConfig, grid: GridSpec) -> State:
    if cfg.profile == "sine":
        return sine_profile(grid)
    return wavefront_profile(_front_spec(cfg), grid)


def _grid(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(cfg.K, cfg.J, cfg.alpha)


def write_invariants_csv(path: Path, record: RunRecord) -> None:
    _write_csv(path, INVARIANTS_HEADER, map(attrgetter(*_SERIES_FIELDS), record.series))


def _scheme_summary(record: RunRecord) -> dict:
    iters = record.column("corrector_iters")
    out = {
        "status": "ok",
        "steps": int(record.series[-1].step),
        "mean_corrector_iters": float(iters[1:].mean()) if len(iters) > 1 else 0.0,
    }
    for name in ("energy", "momentum_x", "momentum_y"):
        tv, sup = invariant_stats(record.column(name))
        out[name] = {"total_variation": tv, "sup_deviation": sup}
    return out


def _failure_summary(exc: NumericalFailureError) -> dict:
    out = {"status": "failed", "error": str(exc)}
    if exc.step is not None:
        out["failed_step"] = exc.step
    if exc.residual is not None:
        out["residual"] = exc.residual
    return out


def _run_header(cfg: ExperimentConfig, grid: GridSpec, dt: float) -> dict:
    """Summary keys of the one-grid commands, ``conserve`` and ``reversibility``."""
    return {
        "grid": f"{grid.K}x{grid.J}",
        "alpha": grid.alpha,
        "dt": dt,
        "t_final": cfg.t_final,
        "profile": cfg.profile,
    }


def _write_summary(cfg: ExperimentConfig, payload: dict) -> None:
    payload = {"command": cfg.command, "seed": cfg.seed, **payload}
    path = cfg.out_dir / "summary.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _each_scheme(
    cfg: ExperimentConfig, run: Callable[[SchemeSelection], dict], summary: dict
) -> int:
    """Write ``summary`` with ``run(sel)`` of every selected scheme under
    ``schemes``; a numerical failure becomes that scheme's failure summary.
    Returns the exit code: 1 if any scheme failed, else 0."""
    summaries: dict[str, dict] = {}
    failed = False
    for sel in cfg.schemes:
        try:
            summaries[sel.label] = run(sel)
        except NumericalFailureError as exc:
            summaries[sel.label] = _failure_summary(exc)
            failed = True
    _write_summary(cfg, {**summary, "schemes": summaries})
    return 1 if failed else 0


def cmd_conserve(cfg: ExperimentConfig) -> int:
    """Invariant tracking with optional snapshots, for ``conserve`` and ``run``."""
    grid = _grid(cfg)
    dt = cfg.resolve_dt(grid.dx)
    initial = _initial_state(cfg, grid)

    def run(sel: SchemeSelection) -> dict:
        record = integrate(
            initial,
            sel.build(dt, cfg.bootstrap),
            initial.t + cfg.t_final,
            snapshot_every=cfg.snapshot_every,
        )
        scheme_dir = cfg.out_dir / sel.label
        scheme_dir.mkdir(exist_ok=True)
        write_invariants_csv(scheme_dir / "invariants.csv", record)
        for index, (t, u) in enumerate(record.snapshots):
            write_snapshot(u, t, scheme_dir / f"snap_{index * cfg.snapshot_every:08d}.bin")
        return _scheme_summary(record)

    return _each_scheme(cfg, run, _run_header(cfg, grid, dt))


def cmd_convergence(cfg: ExperimentConfig) -> int:
    """Self-convergence with dt = dx over nested grids against a fine reference."""
    sizes = [k for k, j in cfg.grids]
    reference = cfg.reference_grid[0]
    (sel,) = cfg.schemes
    template = sel.build(1.0, cfg.bootstrap)

    def profile(grid: GridSpec) -> State:
        return _initial_state(cfg, grid)

    try:
        points = convergence_study(
            profile, template, sizes, reference, cfg.t_final, cfg.alpha
        )
    except NumericalFailureError as exc:
        _write_summary(cfg, {"scheme": sel.label, **_failure_summary(exc)})
        return 1
    _write_summary(
        cfg,
        {
            "scheme": sel.label,
            "profile": cfg.profile,
            "alpha": cfg.alpha,
            "t_final": cfg.t_final,
            "grids": sizes,
            "reference_grid": reference,
            "errors": {str(n): err for n, (_, err) in zip(sizes, points)},
            "fitted_slope": fit_loglog_slope(points),
        },
    )
    _write_csv(cfg.out_dir / "convergence.csv", "h,error", points)
    return 0


def cmd_reversibility(cfg: ExperimentConfig) -> int:
    """Forward-reverse-return experiment; errors reported in percent."""
    grid = _grid(cfg)
    dt = cfg.resolve_dt(grid.dx)
    sigma = None if cfg.profile == "sine" else _front_spec(cfg).sigma
    ratio = grid.alpha / sigma if sigma else math.nan
    rows = []
    initial = _initial_state(cfg, grid)

    def run(sel: SchemeSelection) -> dict:
        err = reversibility_test(initial, sel.build(dt, cfg.bootstrap), cfg.t_final)
        rows.append((sel.label, cfg.profile, ratio, dt / grid.dx, err * 100.0))
        return {"status": "ok", "rel_error_percent": err * 100.0}

    code = _each_scheme(
        cfg,
        run,
        {**_run_header(cfg, grid, dt), "sigma": sigma, "dt_over_dx": dt / grid.dx},
    )
    _write_csv(
        cfg.out_dir / "reversibility.csv",
        "scheme,profile,alpha_over_sigma,dt_over_dx,rel_error_percent",
        rows,
    )
    return code


def _timed_steps(
    cfg: ExperimentConfig, sel: SchemeSelection, grid: GridSpec, warmup: int
) -> float:
    """Mean wall seconds per step over the timed window of one run."""
    dt = cfg.resolve_dt(grid.dx)
    initial = _initial_state(cfg, grid)
    t_final = initial.t + (warmup + cfg.bench_steps) * dt
    record = integrate(initial, sel.build(dt, cfg.bootstrap), t_final)
    per_step = [row.wall_seconds for row in record.series if row.step > warmup]
    return float(np.mean(per_step))


def cmd_bench(cfg: ExperimentConfig) -> int:
    """Per-step wall-clock cost across grids (median of reps, warmup excluded)."""
    warmup = 5
    rows = []

    def run(sel: SchemeSelection) -> dict:
        costs: list[tuple[int, float]] = []
        entry: dict = {"status": "ok", "seconds_per_step": {}}
        for k, j in cfg.grids:
            grid = GridSpec(k, j, cfg.alpha)
            reps = [_timed_steps(cfg, sel, grid, warmup) for _ in range(cfg.bench_reps)]
            cost = float(np.median(reps))
            costs.append((k * j, cost))
            rows.append((k * j, sel.label, cost))
            entry["seconds_per_step"][f"{k}x{j}"] = cost
        if len(costs) >= 2:
            entry["cost_exponent_vs_points"] = fit_loglog_slope(costs)
            entry["subquadratic"] = entry["cost_exponent_vs_points"] <= 1.3
        else:
            entry["cost_exponent_vs_points"] = None
            entry["exponent_fit_skipped"] = True
        return entry

    code = _each_scheme(
        cfg,
        run,
        {
            "grids": [f"{k}x{j}" for k, j in cfg.grids],
            "alpha": cfg.alpha,
            "profile": cfg.profile,
            "bench_steps": cfg.bench_steps,
            "bench_reps": cfg.bench_reps,
        },
    )
    _write_csv(cfg.out_dir / "bench.csv", "grid_points,scheme,seconds_per_step", rows)
    return code


def _check(cfg: ExperimentConfig) -> None:
    """Refuse, before any output exists, what no run of ``cfg`` can do: a
    front that does not fit the domain, convergence grids that cannot be
    compared, and a stepped grid whose dt does not divide ``t_final``."""
    if cfg.profile != "sine":
        try:
            _front_spec(cfg)
        except ValueError as exc:
            raise ConfigError(f"{cfg.profile} front: {exc}") from None
    if cfg.command == "bench":  # it times a fixed number of steps
        return
    if cfg.command == "convergence":
        sizes = [k for k, j in cfg.grids]
        if len(sizes) < 2:
            raise ConfigError(f"convergence needs at least two grids, got {len(sizes)}")
        for k, j in cfg.grids:
            if k != j:
                raise ConfigError("convergence grids must be square (K = J)")
        reference, ref_j = cfg.reference_grid
        if reference != ref_j:
            raise ConfigError("reference grid must be square")
        for n in sizes:
            if n >= reference:
                raise ConfigError(
                    f"grid {n} must be strictly coarser than the reference {reference}"
                )
            if reference % n:
                raise ConfigError(f"grid size {n} does not nest into reference {reference}")
        if len(cfg.schemes) != 1:
            raise ConfigError(f"convergence takes one scheme, got {len(cfg.schemes)}")
        # Every level and the reference run at dt = dx.
        grids = [GridSpec(n, n, cfg.alpha) for n in (*sizes, reference)]
        stepped = [(grid, grid.dx) for grid in grids]
    else:
        grid = _grid(cfg)
        stepped = [(grid, cfg.resolve_dt(grid.dx))]
    for grid, dt in stepped:
        try:
            step_count(0.0, cfg.t_final, dt)  # every profile starts at t = 0
        except ValueError as exc:
            raise ConfigError(f"grid {grid.K}x{grid.J}: {exc}") from None


def run_command(cfg: ExperimentConfig) -> int:
    dispatch = {
        "run": cmd_conserve,
        "conserve": cmd_conserve,
        "convergence": cmd_convergence,
        "reversibility": cmd_reversibility,
        "bench": cmd_bench,
    }
    _check(cfg)
    # An --out that cannot be created fails here, before any run.
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return dispatch[cfg.command](cfg)

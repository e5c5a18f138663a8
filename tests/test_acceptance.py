"""Acceptance suite: every quantitative exit criterion at its stated tolerance.

The long-run conservation benchmark (20x20 sine, alpha = 1, dt = dx^2 = 0.01,
T = 50, 5000 steps) is integrated once per scheme variant and shared across
criteria; the reversibility, convergence, and cost criteria run their own
experiments.  Each criterion prints one PASS/FAIL line (run pytest with -s to
see them inline).
"""

import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from epdiff import (
    FieldPair,
    FixedCount,
    GridSpec,
    ScalarField,
    SchemeConfig,
    SchemeKind,
    State,
    apply_q,
    convergence_study,
    inner,
    integrate,
    invariant_stats,
    norm,
    reversibility_test,
    sine_profile,
    solvability_dt_bound,
    step_scheme1_pc,
    step_scheme3,
)
from epdiff.cli import main
from epdiff.diagnostics import fit_loglog_slope
from epdiff.profiles import WaveFrontSpec, wavefront_profile
from conftest import (
    d1x,
    d1y,
    d2,
    dminus_x,
    dplus_x,
    gamma_apply,
    random_field,
    random_pair,
    random_state,
    solve_q,
    solve_q_dense,
)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared experiment fixtures.

BENCH_GRID = GridSpec(20, 20, 1.0)
BENCH_DT = BENCH_GRID.dx**2
BENCH_T = 50.0

SCHEME_VARIANTS = {
    "scheme1": SchemeConfig(SchemeKind.SCHEME1_PC, BENCH_DT),
    "scheme1-fixed5": SchemeConfig(SchemeKind.SCHEME1_PC, BENCH_DT, corrector=FixedCount(5)),
    "scheme2": SchemeConfig(SchemeKind.SCHEME2, BENCH_DT),
    "scheme3": SchemeConfig(SchemeKind.SCHEME3, BENCH_DT),
    "rk4": SchemeConfig(SchemeKind.RK4, BENCH_DT),
}


def run_benchmark(label):
    """Integrate the sine benchmark with one scheme variant, tracking the
    worst |u2| and the worst y-variation of u1 seen at any step; returns
    (record, tracker).  Module level, so that a pool worker can run it."""
    tracker = {"u2": 0.0, "yvar": 0.0}

    def observe(result):
        u1 = result.state.u.c1.values
        u2 = result.state.u.c2.values
        tracker["u2"] = max(tracker["u2"], float(np.abs(u2).max()))
        tracker["yvar"] = max(
            tracker["yvar"], float(np.abs(u1 - u1[0]).max())
        )
    record = integrate(sine_profile(BENCH_GRID), SCHEME_VARIANTS[label], BENCH_T, observer=observe)
    return record, tracker


@pytest.fixture(scope="module")
def benchmark_runs():
    """Every scheme variant's run, on two forked worker processes.  scheme1
    is submitted first and takes about half of the total time, so one worker
    runs it while the other runs the rest in turn."""
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=fork) as pool:
        futures = {label: pool.submit(run_benchmark, label) for label in SCHEME_VARIANTS}
        return {label: future.result() for label, future in futures.items()}


def stats(runs, label, column):
    record, _ = runs[label]
    return invariant_stats(record.column(column))


SIGMA = 0.1
REV_RATIO = 0.25
REV_T_PLATE = 0.4
REV_T_STAR = 0.3


def plate_state(n: int, alpha: float) -> State:
    return wavefront_profile(WaveFrontSpec.plate(sigma=SIGMA), GridSpec(n, n, alpha))


@pytest.fixture(scope="module")
def reversibility_errors():
    errors = {}
    for n in (200, 100):
        g_ratio = 2.0 / n
        err = reversibility_test(
            plate_state(n, SIGMA),
            SchemeConfig(SchemeKind.SCHEME2, REV_RATIO * g_ratio),
            REV_T_PLATE,
        )
        errors[("scheme2-plate-a=s", n)] = err

        star = WaveFrontSpec.star()
        err = reversibility_test(
            wavefront_profile(star, GridSpec(n, n, star.sigma)),
            SchemeConfig(SchemeKind.SCHEME3, REV_RATIO * g_ratio),
            REV_T_STAR,
        )
        errors[("scheme3-star-a=s", n)] = err

        for ratio, tag in ((0.25, "1/4"), (1.0 / 16.0, "1/16")):
            err = reversibility_test(
                plate_state(n, SIGMA / 8),
                SchemeConfig(SchemeKind.SCHEME2, ratio * g_ratio),
                REV_T_PLATE,
            )
            errors[(f"scheme2-plate-a=s/8-{tag}", n)] = err
    return errors


# ---------------------------------------------------------------------------
# Criteria 1-7: conservation on the long sine benchmark.

def test_criterion_01_scheme2_energy(benchmark_runs):
    tv, sup = stats(benchmark_runs, "scheme2", "energy")
    check(
        "criterion 1 (scheme2 energy)",
        tv <= 1e-8 and sup <= 1e-10,
        f"total variation {tv:.3e} <= 1e-8, sup deviation {sup:.3e} <= 1e-10",
    )


def test_criterion_02_scheme3_energy(benchmark_runs):
    tv, _ = stats(benchmark_runs, "scheme3", "energy")
    check("criterion 2 (scheme3 energy)", tv <= 1e-8, f"total variation {tv:.3e} <= 1e-8")


def test_criterion_03_scheme1_tolerance_energy(benchmark_runs):
    tv, _ = stats(benchmark_runs, "scheme1", "energy")
    check(
        "criterion 3 (scheme1 tol=1e-14 energy)", tv <= 1e-7, f"total variation {tv:.3e} <= 1e-7"
    )


def test_criterion_04_scheme1_fixed5_tradeoff(benchmark_runs):
    tv_e, _ = stats(benchmark_runs, "scheme1-fixed5", "energy")
    tv_mx, _ = stats(benchmark_runs, "scheme1-fixed5", "momentum_x")
    check(
        "criterion 4 (scheme1 fixed-5)",
        tv_e >= 1e-2 and tv_mx <= 1e-7,
        f"energy TV {tv_e:.3e} >= 1e-2 while x-momentum TV {tv_mx:.3e} <= 1e-7",
    )


def test_criterion_05_rk4_energy_drift(benchmark_runs):
    tv, _ = stats(benchmark_runs, "rk4", "energy")
    check("criterion 5 (rk4 energy drift)", tv >= 1e-3, f"total variation {tv:.3e} >= 1e-3")


def test_criterion_06_x_momentum(benchmark_runs):
    tv1, _ = stats(benchmark_runs, "scheme1", "momentum_x")
    tv2, _ = stats(benchmark_runs, "scheme2", "momentum_x")
    tv3, sup3 = stats(benchmark_runs, "scheme3", "momentum_x")
    check(
        "criterion 6 (x-momentum)",
        tv1 <= 1e-7 and tv2 <= 1e-7 and tv3 >= 1e-2 and sup3 >= 1e-3,
        f"schemes 1/2 TV {tv1:.3e}/{tv2:.3e} <= 1e-7; "
        f"scheme3 TV {tv3:.3e} >= 1e-2 with sup {sup3:.3e} >= 1e-3",
    )


def test_criterion_07_y_momentum_and_u2(benchmark_runs):
    sup1 = stats(benchmark_runs, "scheme1", "momentum_y")[1]
    sup2 = stats(benchmark_runs, "scheme2", "momentum_y")[1]
    worst_u2 = max(tracker["u2"] for _, tracker in benchmark_runs.values())
    check(
        "criterion 7 (y-momentum and u2)",
        sup1 <= 1e-12 and sup2 <= 1e-12 and worst_u2 <= 1e-12,
        f"y-momentum sup {sup1:.3e}/{sup2:.3e} <= 1e-12; "
        f"max |u2| over every run {worst_u2:.3e} <= 1e-12",
    )


# ---------------------------------------------------------------------------
# Criterion 8: reversibility at 200x200 with a 100x100 fallback.

@pytest.mark.parametrize("n", [200, 100])
def test_criterion_08_reversibility(reversibility_errors, n):
    e_plate = reversibility_errors[("scheme2-plate-a=s", n)]
    e_star = reversibility_errors[("scheme3-star-a=s", n)]
    e_coarse = reversibility_errors[(f"scheme2-plate-a=s/8-1/4", n)]
    e_fine = reversibility_errors[(f"scheme2-plate-a=s/8-1/16", n)]
    check(
        f"criterion 8 (reversibility, {n}x{n})",
        e_plate <= 1e-3 and e_star <= 1e-3 and e_fine < e_coarse,
        f"scheme2 plate {e_plate * 100:.4f}% <= 0.1%, "
        f"scheme3 star {e_star * 100:.4f}% <= 0.1%, "
        f"dt/dx=1/16 error {e_fine * 100:.4f}% < 1/4 error {e_coarse * 100:.4f}%",
    )


def test_scheme1_fixed5_is_not_reversible_in_the_stiff_regime():
    # Companion to criterion 8: five fixed corrector passes lose
    # reversibility once alpha/sigma is small.
    g = GridSpec(200, 200, SIGMA / 8)
    state = wavefront_profile(WaveFrontSpec.parallel(sigma=SIGMA), g)
    cfg = SchemeConfig(
        SchemeKind.SCHEME1_PC, REV_RATIO * g.dx, corrector=FixedCount(5)
    )
    err = reversibility_test(state, cfg, REV_T_PLATE)
    check(
        "criterion 8 companion (scheme1 fixed-5 irreversibility)",
        err >= 0.05,
        f"parallel alpha=sigma/8 error {err * 100:.2f}% >= 5%",
    )


# ---------------------------------------------------------------------------
# Criterion 9: empirical convergence.

def test_criterion_09_convergence_slope():
    spec = WaveFrontSpec.plate(sigma=SIGMA, amplitude=0.5)
    points = convergence_study(
        lambda g: wavefront_profile(spec, g),
        SchemeConfig(SchemeKind.SCHEME2, 1.0),
        [32, 64, 128],
        256,
        t_final=0.375,
        alpha=SIGMA,
    )
    slope = fit_loglog_slope(points)
    errs = [e for _, e in points]
    halving = errs[0] / errs[1]
    check(
        "criterion 9 (convergence)",
        0.8 <= slope <= 1.3 and 1.6 <= halving <= 2.6,
        f"fitted slope {slope:.3f} in [0.8, 1.3]; coarse halving ratio {halving:.2f} in [1.6, 2.6]",
    )


# ---------------------------------------------------------------------------
# Criterion 10: per-step cost.

def test_criterion_10_per_step_cost(tmp_path):
    # `epdiff bench` times each label's steps on the plate (sigma = alpha =
    # 0.1, dt = dx/8) after a warm-up of 5 that includes the bootstrap, and
    # fits each label's cost exponent against the number of grid points.
    code = main([
        "bench", "--profile", "plate", "--sigma", str(SIGMA), "--alpha", str(SIGMA),
        "--amplitude", "0.5", "--grid", "100,200,300", "--dt-dx-ratio", "0.125",
        "--bench-steps", "15", "--bench-reps", "3",
        "--scheme", "scheme2,scheme3,scheme1-fixed=3,rk4", "--out", str(tmp_path),
    ])
    assert code == 0
    schemes = json.loads((tmp_path / "summary.json").read_text())["schemes"]
    cost = {label: entry["seconds_per_step"] for label, entry in schemes.items()}
    ratios = [cost["scheme2"][grid] / cost["scheme3"][grid] for grid in ("200x200", "300x300")]
    exponents = {label: entry["cost_exponent_vs_points"] for label, entry in schemes.items()}
    check(
        "criterion 10 (per-step cost)",
        all(r <= 0.5 for r in ratios)
        and all(entry["subquadratic"] for entry in schemes.values()),
        f"scheme2/scheme3 ratios at >=200^2: {[f'{r:.3f}' for r in ratios]} <= 0.5; "
        f"cost exponents {dict((k, round(v, 2)) for k, v in exponents.items())} <= 1.3",
    )


# ---------------------------------------------------------------------------
# Criteria 11-14: algebraic identities on random fields.

def test_criterion_11_skew_symmetry_and_adjointness(rng):
    g = GridSpec(16, 12, 0.9)
    worst = 0.0
    for _ in range(100):
        m, u, v = (random_pair(g, rng) for _ in range(3))
        resid = abs(inner(v, gamma_apply(m, u)) + inner(u, gamma_apply(m, v)))
        scale = norm(m) * norm(u) * norm(v) / math.sqrt(g.cell_area)
        worst = max(worst, resid / scale)

        f = random_field(g, rng)
        w = random_field(g, rng)
        s = norm(f) * norm(w)
        worst = max(
            worst,
            abs(inner(f, d2(w)) - inner(d2(f), w)) * g.cell_area / s,
            abs(inner(f, d1x(w)) + inner(w, d1x(f))) * g.dx / s,
            abs(inner(f, d1y(w)) + inner(w, d1y(f))) * g.dy / s,
        )
    check(
        "criterion 11 (skew-symmetry and adjointness)",
        worst <= 1e-12,
        f"worst normalized residual {worst:.3e} <= 1e-12 over 100 draws",
    )


def test_criterion_12_zero_sums_and_summation_by_parts(rng):
    g = GridSpec(14, 10, 1.0)
    worst = 0.0
    for _ in range(100):
        f = random_field(g, rng)
        w = random_field(g, rng)
        nf = norm(f)
        for op in (d1x, d1y, d2):
            total = abs(float(np.sum(op(f).values)) * g.cell_area)
            worst = max(worst, total * min(g.dx, g.dy) ** 2 / nf)
        lhs = inner(f, dminus_x(dplus_x(w)))
        rhs = -0.5 * (
            inner(dplus_x(f), dplus_x(w)) + inner(dminus_x(f), dminus_x(w))
        )
        worst = max(worst, abs(lhs - rhs) * g.dx**2 / (nf * norm(w)))
    check(
        "criterion 12 (zero sums and summation by parts)",
        worst <= 1e-12,
        f"worst normalized residual {worst:.3e} <= 1e-12 over 100 draws",
    )


def test_criterion_13_norm_bounds_and_hadamard(rng):
    g = GridSpec(12, 16, 0.6)
    lap_bound = 4.0 * (1.0 / g.dx**2 + 1.0 / g.dy**2)
    violations = 0
    for _ in range(100):
        v = random_field(g, rng)
        w = random_field(g, rng)
        nv = norm(v)
        slack = 1.0 + 1e-14
        if norm(d1x(v)) > nv / g.dx * slack:
            violations += 1
        if norm(d1y(v)) > nv / g.dy * slack:
            violations += 1
        if norm(d2(v)) > lap_bound * nv * slack:
            violations += 1
        if norm(solve_q(v)) > nv * slack:
            violations += 1
        vw = ScalarField(g, v.values * w.values)
        if norm(vw) > nv * norm(w) / math.sqrt(g.cell_area) * slack:
            violations += 1
    check(
        "criterion 13 (operator norm bounds and Hadamard inequality)",
        violations == 0,
        f"{violations} violations over 100 draws",
    )


def test_criterion_14_energy_difference_identities(rng):
    from epdiff import (
        energy_half_scheme2,
        energy_half_scheme3,
        energy_scheme1,
    )

    # The variational derivatives: scheme1's is the two-level velocity
    # average, scheme2's the middle level, scheme3's the outer-level average.
    g = GridSpec(12, 12, 1.1)
    worst = 0.0
    for _ in range(50):
        a, b, c = (random_state(g, rng) for _ in range(3))

        lhs = energy_scheme1(b) - energy_scheme1(a)
        rhs = inner(0.5 * (a.u + b.u), b.m - a.m)
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(energy_scheme1(a)) + 1.0))

        lhs = energy_half_scheme2(b, c) - energy_half_scheme2(a, b)
        rhs = inner(b.u, 0.5 * (c.m - a.m))
        worst = max(
            worst, abs(lhs - rhs) / (abs(lhs) + abs(energy_half_scheme2(a, b)) + 1.0)
        )

        lhs = energy_half_scheme3(b, c) - energy_half_scheme3(a, b)
        rhs = inner(0.5 * (a.u + c.u), 0.5 * (c.m - a.m))
        worst = max(
            worst, abs(lhs - rhs) / (abs(lhs) + abs(energy_half_scheme3(a, b)) + 1.0)
        )
    check(
        "criterion 14 (energy-difference identities)",
        worst <= 1e-11,
        f"worst relative residual {worst:.3e} <= 1e-11 over 50 triples",
    )


# ---------------------------------------------------------------------------
# Criterion 15: corrector contraction under the solvability bound.

def test_criterion_15_fixed_point_contraction():
    s0 = sine_profile(BENCH_GRID)
    dt = 0.9 * solvability_dt_bound(s0.m)
    cfg = SchemeConfig(SchemeKind.SCHEME1_PC, dt)
    s1 = integrate(s0, cfg, s0.t + dt).states_tail[-1]
    prev, cur = s0, s1
    monotone = True
    for _ in range(100):
        res = step_scheme1_pc(prev, cur, dt, cfg)
        inc = res.corrector_increments
        monotone &= all(b <= a for a, b in zip(inc, inc[1:]))
        prev, cur = cur, res.state
    check(
        "criterion 15 (corrector contraction)",
        monotone,
        f"increments non-increasing over 100 consecutive steps at dt={dt:.3e}",
    )


# ---------------------------------------------------------------------------
# Criterion 16: equilibria and dimensional reduction.

def test_criterion_16_equilibrium_and_dimensional_reduction(benchmark_runs):
    g = GridSpec(16, 16, 1.0)
    const = State.from_velocity(
        FieldPair(ScalarField.full(g, 1.5), ScalarField.zeros(g))
    )
    worst_const = 0.0
    for kind in SchemeKind:
        rec = integrate(const, SchemeConfig(kind, 0.01), 0.5)
        worst_const = max(
            worst_const, norm(rec.states_tail[-1].u - const.u) / norm(const.u)
        )
    worst_u2 = max(t["u2"] for _, t in benchmark_runs.values())
    worst_yvar = max(t["yvar"] for _, t in benchmark_runs.values())
    check(
        "criterion 16 (equilibrium and 1D reduction)",
        worst_const <= 1e-12 and worst_u2 <= 1e-12 and worst_yvar <= 1e-12,
        f"constant-state drift {worst_const:.3e}; sup |u2| {worst_u2:.3e} and "
        f"y-variation {worst_yvar:.3e} <= 1e-12 across every scheme",
    )


# ---------------------------------------------------------------------------
# Criterion 17: solver cross-validation.

def test_criterion_17_solver_cross_validation(rng):
    worst_q = 0.0
    for k, j, alpha in ((8, 8, 1.0), (12, 10, 0.4), (16, 16, 1.7)):
        g = GridSpec(k, j, alpha)
        m = random_field(g, rng)
        worst_q = max(worst_q, norm(solve_q(m) - solve_q_dense(m)) / norm(m))

    worst_s3 = 0.0
    for k in (8, 12, 16):
        g = GridSpec(k, k, 0.8)
        dt = 0.01
        s0 = random_state(g, rng, t=0.0)
        s1 = random_state(g, rng, t=dt)
        res = step_scheme3(s0, s1, dt)
        n = k * k

        def lhs_op(x):
            u = FieldPair.from_arrays(
                g, x[:n].reshape(g.shape), x[n:].reshape(g.shape)
            )
            out = apply_q(u) + dt * gamma_apply(s1.m, u)
            return np.concatenate([out.c1.values.ravel(), out.c2.values.ravel()])

        mat = np.empty((2 * n, 2 * n))
        basis = np.zeros(2 * n)
        for col in range(2 * n):
            basis[col] = 1.0
            mat[:, col] = lhs_op(basis)
            basis[col] = 0.0
        rhs_pair = s0.m - dt * gamma_apply(s1.m, s0.u)
        rhs = np.concatenate([rhs_pair.c1.values.ravel(), rhs_pair.c2.values.ravel()])
        direct = np.linalg.solve(mat, rhs)
        got = np.concatenate(
            [res.state.u.c1.values.ravel(), res.state.u.c2.values.ravel()]
        )
        worst_s3 = max(
            worst_s3, float(np.linalg.norm(got - direct) / np.linalg.norm(direct))
        )
    check(
        "criterion 17 (solver cross-validation)",
        worst_q <= 1e-12 and worst_s3 <= 1e-10,
        f"spectral vs dense Helmholtz {worst_q:.3e} <= 1e-12; "
        f"Krylov vs dense two-level solve {worst_s3:.3e} <= 1e-10",
    )

"""Time steppers: conservation structure, solver validation, and the driver."""

import ast
import graphlib
import math
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epdiff import (
    BootstrapKind,
    FieldPair,
    FixedCount,
    GridSpec,
    NonConvergenceError,
    NumericalFailureError,
    ScalarField,
    SchemeConfig,
    SchemeKind,
    State,
    Tolerance,
    apply_q,
    energy_half_scheme2,
    energy_half_scheme3,
    energy_scheme1,
    gamma_apply,
    integrate,
    linear_momenta,
    norm,
    sine_profile,
    solvability_dt_bound,
    step_rk4,
    step_scheme1_pc,
    step_scheme2,
    step_scheme3,
)
from epdiff.core import _corrector_norms, _gamma_arrays
from epdiff.grid import _solve_q_stack_arr
from epdiff.steppers import SCHEME3_RESIDUAL_CAP, _bootstrap_result
from conftest import random_pair, random_state, same_bits


def ref_pair_norm(a, g):
    """Grid norm of a (2, J, K) stack through numpy's own sum."""
    return math.sqrt(np.sum(a * a, axis=(-2, -1)).sum() * g.cell_area)


def constant_state(grid, c=1.5, t=0.0):
    u = FieldPair(ScalarField.full(grid, c), ScalarField.zeros(grid))
    return State.from_velocity(u, t=t)


def pc_config(dt, corrector=None, bootstrap=BootstrapKind.RK4):
    return SchemeConfig(
        SchemeKind.SCHEME1_PC,
        dt,
        corrector=corrector or Tolerance(1e-14, 200),
        bootstrap=bootstrap,
    )


class TestConfigValidation:
    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            SchemeConfig(SchemeKind.SCHEME2, 0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ValueError):
            SchemeConfig(SchemeKind.SCHEME2, value)
        with pytest.raises(ValueError):
            FixedCount(value)
        with pytest.raises(ValueError):
            Tolerance(1e-10, value)

    def test_corrector_modes_validate(self):
        with pytest.raises(ValueError):
            FixedCount(0)
        with pytest.raises(ValueError):
            Tolerance(0.0, 10)
        with pytest.raises(ValueError):
            Tolerance(1e-14, 0)

    def test_fixed_count_rejects_non_integer(self):
        # range() would raise TypeError in the middle of a run.
        with pytest.raises(ValueError, match="integer"):
            FixedCount(2.5)
        assert FixedCount(3.0) == FixedCount(3) and type(FixedCount(3.0).count) is int

    def test_tolerance_rejects_non_integer_max_iter(self):
        with pytest.raises(ValueError, match="integer"):
            Tolerance(1e-10, 2.5)
        assert type(Tolerance(1e-10, 20.0).max_iter) is int


class TestConstantStateEquilibrium:
    def test_all_steppers_preserve_constants(self):
        # The zero state gives scheme3 a zero right-hand side.
        g = GridSpec(10, 10, 1.0)
        dt = 0.01
        for c in (1.5, 0.0):
            s0 = constant_state(g, c=c, t=0.0)
            s1 = constant_state(g, c=c, t=dt)
            results = [
                step_scheme2(s0, s1, dt),
                step_scheme3(s0, s1, dt),
                step_scheme1_pc(s0, s1, dt, pc_config(dt)),
                step_rk4(s1, dt),
            ]
            for res in results:
                assert norm(res.state.u - s1.u) <= 1e-13 * norm(s1.u)
                assert res.state.t == pytest.approx(s1.t + dt, abs=1e-15)

    def test_corrector_stops_after_one_pass_on_constants(self):
        g = GridSpec(8, 8, 1.0)
        dt = 0.05
        s0 = constant_state(g)
        res = step_scheme1_pc(None, s0, dt, pc_config(dt, Tolerance(1e-2, 50)))
        assert res.corrector_iters == 1


class TestScheme2:
    def test_requires_consecutive_states(self, rng):
        g = GridSpec(8, 8, 1.0)
        s0 = random_state(g, rng, t=0.0)
        s1 = random_state(g, rng, t=0.5)
        with pytest.raises(ValueError):
            step_scheme2(s0, s1, 0.01)

    def test_matches_explicit_leapfrog_formula(self, rng):
        g = GridSpec(12, 10, 0.8)
        dt = 1e-3
        s0 = random_state(g, rng, t=0.0)
        s1 = random_state(g, rng, t=dt)
        res = step_scheme2(s0, s1, dt)
        expected_m = s0.m - 2.0 * dt * gamma_apply(s1.m, s1.u)
        assert norm(res.state.m - expected_m) <= 1e-13 * norm(expected_m)
        assert norm(apply_q(res.state.u) - res.state.m) <= 1e-12 * norm(res.state.m)

    def test_sine_keeps_second_component_exactly_zero(self):
        g = GridSpec(20, 20, 1.0)
        dt = g.dx**2
        s0 = sine_profile(g)
        s1 = integrate(s0, SchemeConfig(SchemeKind.SCHEME2, dt), s0.t + dt).states_tail[-1]
        res = step_scheme2(s0, s1, dt)
        assert np.abs(res.state.u.c2.values).max() == 0.0

    def test_time_symmetric_stencil(self, rng):
        # The defining relation maps to itself when the outer levels swap and
        # dt flips sign; evaluated as a defect on arbitrary state triples.
        g = GridSpec(10, 10, 1.0)
        dt = 0.01
        for _ in range(20):
            a, b, c = (random_state(g, rng) for _ in range(3))

            def defect(sm, s0, sp, step):
                return (0.5 / step) * (sp.m - sm.m) + gamma_apply(s0.m, s0.u)

            fwd = defect(a, b, c, dt)
            swapped = defect(c, b, a, -dt)
            scale = norm(fwd) + norm(b.m) * norm(b.u)
            assert norm(fwd - swapped) <= 1e-12 * scale


class TestScheme3:
    def test_matches_dense_solve_on_small_grids(self, rng):
        # Cross-validation of the matrix-free Krylov path: assemble the full
        # 2KJ x 2KJ operator by columns and solve directly.
        for k, j in ((8, 8), (12, 12), (16, 16)):
            g = GridSpec(k, j, 0.8)
            dt = 0.01
            s0 = random_state(g, rng, t=0.0)
            s1 = random_state(g, rng, t=dt)
            res = step_scheme3(s0, s1, dt)

            n = k * j

            def lhs_op(x):
                u = FieldPair.from_arrays(g, x[:n].reshape(g.shape), x[n:].reshape(g.shape))
                out = apply_q(u) + dt * gamma_apply(s1.m, u)
                return np.concatenate([out.c1.values.ravel(), out.c2.values.ravel()])

            mat = np.empty((2 * n, 2 * n))
            basis = np.zeros(2 * n)
            for col in range(2 * n):
                basis[col] = 1.0
                mat[:, col] = lhs_op(basis)
                basis[col] = 0.0
            rhs_pair = s0.m - dt * gamma_apply(s1.m, s0.u)
            rhs = np.concatenate(
                [rhs_pair.c1.values.ravel(), rhs_pair.c2.values.ravel()]
            )
            direct = np.linalg.solve(mat, rhs)
            got = np.concatenate(
                [res.state.u.c1.values.ravel(), res.state.u.c2.values.ravel()]
            )
            assert np.linalg.norm(got - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_residual_is_reported_and_small(self, rng):
        g = GridSpec(16, 16, 1.0)
        dt = 0.005
        s0 = random_state(g, rng, t=0.0)
        s1 = random_state(g, rng, t=dt)
        res = step_scheme3(s0, s1, dt)
        assert res.linear_solve_residual <= 1e-10
        assert res.corrector_iters == 0

    def test_time_symmetric_stencil(self, rng):
        g = GridSpec(10, 10, 1.0)
        dt = 0.01
        for _ in range(20):
            a, b, c = (random_state(g, rng) for _ in range(3))

            def defect(sm, s0, sp, step):
                avg = 0.5 * (sp.u + sm.u)
                return (0.5 / step) * (sp.m - sm.m) + gamma_apply(s0.m, avg)

            fwd = defect(a, b, c, dt)
            swapped = defect(c, b, a, -dt)
            scale = norm(fwd) + norm(b.m) * (norm(a.u) + norm(c.u))
            assert norm(fwd - swapped) <= 1e-12 * scale

    def test_stall_raises_with_residual_and_iteration_count(self, rng):
        # At dt = 1 on an 8x8 random state the solve cannot reach the cap
        # within its ceil(10 sqrt(2KJ)) = 114 iterations.
        g = GridSpec(8, 8, 0.8)
        dt = 1.0
        s0 = random_state(g, rng, t=0.0)
        s1 = random_state(g, rng, t=dt)
        with pytest.raises(NonConvergenceError) as info:
            step_scheme3(s0, s1, dt)
        assert info.value.residual > SCHEME3_RESIDUAL_CAP
        assert "114 iterations" in str(info.value)

    def test_kernels_see_only_float64_input(self, rng, monkeypatch):
        # Each kernel runs on float64 stacks only.  Q and the bracket are
        # applied once per matvec, and the bracket once more for b.  Each
        # iteration takes one Q-solve and one matvec, and one more matvec
        # forms the starting residual; the matvec of the accepted solution
        # gives both the true residual and the new momentum.
        import epdiff.steppers as steppers

        g = GridSpec(12, 12, 0.8)
        dt = 0.01
        s0 = random_state(g, rng)
        s1 = step_rk4(s0, dt).state
        calls = {}
        dtypes = set()
        for name in ("_gamma_arrays", "_apply_q_arr", "_solve_q_stack_arr", "_solve_q_checked"):
            kernel = getattr(steppers, name)

            def spy(*args, kernel=kernel, name=name):
                calls[name] = calls.get(name, 0) + 1
                dtypes.update(a.dtype for a in args if isinstance(a, np.ndarray))
                return kernel(*args)

            monkeypatch.setattr(steppers, name, spy)
        step_scheme3(s0, s1, dt)
        assert dtypes == {np.dtype(np.float64)}
        iterations = calls["_solve_q_stack_arr"]
        assert iterations > 0
        assert calls["_apply_q_arr"] == iterations + 1
        assert calls["_gamma_arrays"] == calls["_apply_q_arr"] + 1

    @pytest.mark.parametrize("k,j", [(8, 8), (7, 9)])
    def test_operator_is_symmetric_positive_plus_skew(self, k, j, rng):
        # The preconditions of the Concus-Golub-Widlund CG, in the plain dot
        # product the solver uses: v -> Gamma(m_n, v) is skew, and Q is
        # symmetric with every eigenvalue >= 1.  Both assembled from unit
        # vectors.
        from epdiff.core import _gamma_arrays
        from epdiff.grid import _apply_q_arr

        g = GridSpec(k, j, 0.8)
        m_n = rng.standard_normal((2,) + g.shape)
        units = np.eye(2 * k * j).reshape((-1, 2) + g.shape)
        gam = np.array([_gamma_arrays(m_n, e, g).ravel() for e in units]).T
        q = np.array([_apply_q_arr(e, g).ravel() for e in units]).T
        assert np.linalg.norm(gam + gam.T) <= 1e-13 * np.linalg.norm(gam)
        assert np.linalg.norm(q - q.T) <= 1e-13 * np.linalg.norm(q)
        eigenvalues = np.linalg.eigvalsh(q)
        assert eigenvalues.min() >= 1.0 - 1e-13 * eigenvalues.max()


    def test_package_import_leaves_scipy_sparse_and_linalg_out(self):
        # scheme3 solves on its own and the Q-solve runs on numpy.fft:
        # importing the package and its CLI imports no scipy at all.
        import epdiff

        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import epdiff, epdiff.cli; "
            "print([m in sys.modules for m in "
            "('scipy.sparse', 'scipy.linalg', 'scipy', 'scipy.fft')])"
        )
        src = str(Path(epdiff.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[False, False, False, False]"


def test_package_sources_import_no_scipy_and_use_every_import():
    # numpy is the one runtime dependency, and an import that nothing reads
    # is dead code.  A name imported for type checks only is read in a
    # string annotation.
    import epdiff

    for path in sorted(Path(epdiff.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        modules, bound = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
                bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                modules.add(node.module or "")
                bound.update(alias.asname or alias.name for alias in node.names)
        assert "scipy" not in {m.split(".")[0] for m in modules}, path.name
        nodes = list(ast.walk(tree))
        for node in ast.walk(tree):
            note = getattr(node, "annotation", None) or getattr(node, "returns", None)
            for c in ast.walk(note) if note else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    nodes += ast.walk(ast.parse(c.value, mode="eval"))
        used = {n.id for n in nodes if isinstance(n, ast.Name)}
        assert bound <= used, f"{path.name} never reads {sorted(bound - used)}"


def test_package_imports_are_top_level_and_acyclic():
    # A module that imports a sibling inside a function or under
    # TYPE_CHECKING hides a dependency, usually to dodge an import cycle.
    import epdiff

    graph = {}
    for path in sorted(Path(epdiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
        for node in relative:
            assert node in tree.body, f"{path.name}:{node.lineno} imports below top level"
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "TYPE_CHECKING" not in names, path.name
        graph[path.stem] = {
            node.module or alias.name for node in relative for alias in node.names
        }
    # Raises graphlib.CycleError naming the cycle.
    tuple(graphlib.TopologicalSorter(graph).static_order())


# (importer, sibling, name) of every underscore name a package module imports
# from a sibling.  The list only shrinks: a new private import fails, and so
# does a removal until its entry goes.
PRIVATE_IMPORTS = [
    ("core", "grid", "_check_same_grid"),
    ("core", "grid", "_plan"),
    ("steppers", "core", "_corrector_norms"),
    ("steppers", "grid", "_check_same_grid"),
    # The benchmark's tracer (perfbench/tracing.py) wraps these four by name
    # in epdiff.steppers.
    ("steppers", "core", "_gamma_arrays"),
    ("steppers", "grid", "_apply_q_arr"),
    ("steppers", "grid", "_solve_q_checked"),
    ("steppers", "grid", "_solve_q_stack_arr"),
]


def test_private_imports_across_modules_only_shrink():
    import epdiff

    found = []
    for path in sorted(Path(epdiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert sorted(found) == sorted(PRIVATE_IMPORTS)


class TestScheme1PredictorCorrector:
    def test_fixed_count_runs_exactly_n_passes(self, rng):
        g = GridSpec(10, 10, 1.0)
        dt = 1e-3
        s0 = random_state(g, rng, t=0.0)
        s1 = random_state(g, rng, t=dt)
        res = step_scheme1_pc(s0, s1, dt, pc_config(dt, FixedCount(4)))
        assert res.corrector_iters == 4
        assert len(res.corrector_increments) == 4

    def test_norms_taken_per_pass(self, monkeypatch):
        # Both modes take the norms of each pass's iterate and increment in
        # one call, and no other norm; the last pass's pair gives the
        # reported relative increment.
        import epdiff.steppers as steppers

        calls = []
        corrector_norms = steppers._corrector_norms

        def spy(a, b, grid):
            calls.append(corrector_norms(a, b, grid))
            return calls[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("the corrector took another norm")

        monkeypatch.setattr(steppers, "_corrector_norms", spy)
        monkeypatch.setattr(steppers, "norm", refuse)
        g = GridSpec(20, 20, 1.0)
        dt = g.dx**2
        for mode in (Tolerance(1e-14, 200), FixedCount(3)):
            calls.clear()
            res = step_scheme1_pc(None, sine_profile(g), dt, pc_config(dt, mode))
            assert len(calls) == res.corrector_iters, mode
            assert res.corrector_increments == tuple(delta for _, delta in calls)
            norm_m = ref_pair_norm(res.state.m.values, g)
            assert calls[-1][0] == norm_m
            assert res.linear_solve_residual == res.corrector_increments[-1] / norm_m

    @pytest.mark.parametrize("k,j", [(3, 3), (33, 17), (64, 63), (257, 129)])
    def test_corrector_norms_have_the_bits_of_pair_norm(self, k, j, rng):
        # The fused pair is exactly (||a||, ||a - b||) as the test-local
        # grid norm takes each, with a zero increment and a zero iterate
        # among the draws.
        g = GridSpec(k, j, 1.0)
        a, b = rng.standard_normal((2, 2) + g.shape)
        for x, y in ((a, b), (b, a), (a, a.copy()), (1e-3 * a, b), (np.zeros_like(a), b)):
            norm_x, norm_increment = _corrector_norms(x, y, g)
            assert norm_x == ref_pair_norm(x, g)
            assert norm_increment == ref_pair_norm(x - y, g)

    def test_overflowing_corrector_raises_with_its_last_finite_residual(self):
        # On the 3x3 sine at dt = dx^2 the iterates grow until their norms
        # overflow; inf <= rtol * inf must not pass for convergence.
        g = GridSpec(3, 3, 1.0)
        dt = 4.0 / 9.0
        with np.errstate(all="ignore"), pytest.raises(NonConvergenceError) as info:
            step_scheme1_pc(None, sine_profile(g), dt, SchemeConfig(SchemeKind.SCHEME1_PC, dt))
        residual = info.value.residual
        assert math.isfinite(residual) and residual > 0.0
        assert "non-finite" in str(info.value)

    def test_converged_step_satisfies_midpoint_relation(self):
        # At the fixed point, (M_new - M_n)/dt = -Gamma(avg m, avg u).
        g = GridSpec(20, 20, 1.0)
        dt = g.dx**2
        s0 = sine_profile(g)
        res = step_scheme1_pc(None, s0, dt, pc_config(dt, Tolerance(1e-14, 200)))
        s1 = res.state
        lhs = (1.0 / dt) * (s1.m - s0.m)
        rhs = -1.0 * gamma_apply(
            0.5 * (s0.m + s1.m), 0.5 * (s0.u + s1.u)
        )
        assert norm(lhs - rhs) * dt <= 1e-12 * norm(s1.m)

    def test_conserves_energy_and_momenta_at_tolerance(self):
        g = GridSpec(20, 20, 1.0)
        dt = g.dx**2
        s0 = sine_profile(g)
        res = step_scheme1_pc(None, s0, dt, pc_config(dt, Tolerance(1e-14, 200)))
        assert energy_scheme1(res.state) == pytest.approx(
            energy_scheme1(s0), rel=1e-12
        )

    def test_non_convergence_raises_with_residual(self, rng):
        g = GridSpec(10, 10, 1.0)
        dt = 5.0  # far beyond any contraction regime
        s0 = random_state(g, rng, t=0.0)
        with pytest.raises(NonConvergenceError) as exc_info:
            step_scheme1_pc(None, s0, dt, pc_config(dt, Tolerance(1e-14, 3)))
        assert exc_info.value.residual is not None

    def test_contraction_below_solvability_bound(self):
        g = GridSpec(20, 20, 1.0)
        s0 = sine_profile(g)
        dt = 0.9 * solvability_dt_bound(s0.m)
        cfg = pc_config(dt, Tolerance(1e-14, 200))
        s1 = integrate(s0, cfg, s0.t + dt).states_tail[-1]
        prev, cur = s0, s1
        for _ in range(25):
            res = step_scheme1_pc(prev, cur, dt, cfg)
            inc = res.corrector_increments
            assert all(b <= a for a, b in zip(inc, inc[1:]))
            prev, cur = cur, res.state


class TestRK4:
    def test_local_order_five(self, rng):
        # One step against two half steps: the defect must scale like dt^5.
        g = GridSpec(16, 16, 1.0)
        u = random_pair(g, rng)
        s0 = State.from_velocity(0.05 * u)
        defects = []
        dts = [2e-2, 1e-2, 5e-3]
        for dt in dts:
            one = step_rk4(s0, dt).state
            half = step_rk4(step_rk4(s0, dt / 2).state, dt / 2).state
            defects.append(norm(one.u - half.u))
        slope = np.polyfit(np.log(dts), np.log(defects), 1)[0]
        assert slope == pytest.approx(5.0, abs=0.3)

    def test_matches_classical_stages_bitwise(self, rng):
        # The step keeps Gamma, the negated slope, and subtracts it in
        # place; the bits are those of the classical stages with -Gamma.
        g = GridSpec(12, 10, 0.8)
        dt = 1e-3
        s0 = random_state(g, rng)
        m = s0.m.values

        def slope(x):
            return -_gamma_arrays(x, _solve_q_stack_arr(x, g), g)

        k1 = -_gamma_arrays(m, s0.u.values, g)
        k2 = slope(m + 0.5 * dt * k1)
        k3 = slope(m + 0.5 * dt * k2)
        k4 = slope(m + dt * k3)
        expected = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert same_bits(step_rk4(s0, dt).state.m.values, expected)


class TestBootstrap:
    def test_both_methods_preserve_constants(self):
        g = GridSpec(8, 8, 1.0)
        s0 = constant_state(g)
        for mode in (BootstrapKind.RK4, BootstrapKind.SCHEME1_FIXED_POINT):
            out = integrate(s0, pc_config(0.01, bootstrap=mode), s0.t + 0.01).states_tail[-1]
            assert norm(out.u - s0.u) <= 1e-13 * norm(s0.u)

    def test_fixed_point_bootstrap_conserves_energy(self):
        g = GridSpec(20, 20, 1.0)
        s0 = sine_profile(g)
        cfg = pc_config(g.dx**2, bootstrap=BootstrapKind.SCHEME1_FIXED_POINT)
        s1 = integrate(s0, cfg, s0.t + g.dx**2).states_tail[-1]
        assert energy_scheme1(s1) == pytest.approx(energy_scheme1(s0), rel=1e-12)

    def test_methods_agree_to_third_order(self):
        g = GridSpec(20, 20, 1.0)
        s0 = sine_profile(g)
        dts = [4e-4, 2e-4, 1e-4]
        diffs = []
        for dt in dts:
            rk = integrate(s0, pc_config(dt, bootstrap=BootstrapKind.RK4), s0.t + dt)
            fp = integrate(
                s0, pc_config(dt, bootstrap=BootstrapKind.SCHEME1_FIXED_POINT), s0.t + dt
            )
            diffs.append(norm(rk.states_tail[-1].u - fp.states_tail[-1].u))
        slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
        assert slope >= 2.9


class TestSolvabilityBound:
    def test_square_grid_closed_form(self):
        # dx = dy = 0.1 and unit momentum: sqrt(sqrt(5) - 2)/5 * dx^2.
        g = GridSpec(20, 20, 1.0)
        m = FieldPair(ScalarField.full(g, 0.5), ScalarField.zeros(g))
        assert norm(m) == pytest.approx(1.0, rel=1e-14)
        expected = math.sqrt(math.sqrt(5.0) - 2.0) / 5.0 * 0.01
        assert expected == pytest.approx(9.7174e-4, rel=1e-4)
        assert solvability_dt_bound(m) == pytest.approx(expected, rel=1e-12)

    def test_general_form_reduces_to_square_form(self, rng):
        g = GridSpec(20, 20, 1.0)
        m = random_pair(g, rng)
        general = (
            math.sqrt(2.0 * (math.sqrt(5.0) - 2.0))
            / 5.0
            * math.sqrt(g.dx**3 * g.dy**3 / (g.dx**2 + g.dy**2))
            / norm(m)
        )
        assert solvability_dt_bound(m) == pytest.approx(general, rel=1e-13)

    def test_homogeneity_and_zero_sentinel(self, rng):
        g = GridSpec(16, 16, 1.0)
        m = random_pair(g, rng)
        assert solvability_dt_bound(2.0 * m) == pytest.approx(
            0.5 * solvability_dt_bound(m), rel=1e-13
        )
        assert solvability_dt_bound(FieldPair.zeros(g)) == math.inf


class TestIntegrate:
    def test_rejects_zero_or_mismatched_step_counts(self, rng):
        g = GridSpec(8, 8, 1.0)
        s0 = random_state(g, rng)
        cfg = SchemeConfig(SchemeKind.RK4, 0.01)
        with pytest.raises(ValueError):
            integrate(s0, cfg, s0.t)
        with pytest.raises(ValueError):
            integrate(s0, cfg, s0.t + 0.0155)

    def test_constant_state_is_preserved_over_many_steps(self):
        g = GridSpec(10, 10, 1.0)
        s0 = constant_state(g)
        for kind in SchemeKind:
            cfg = SchemeConfig(kind, 0.01)
            rec = integrate(s0, cfg, 1.0)
            final = rec.states_tail[-1]
            assert norm(final.u - s0.u) <= 1e-13 * norm(s0.u)

    def test_observer_sees_every_step(self, rng):
        g = GridSpec(8, 8, 1.0)
        s0 = random_state(g, rng)
        seen = []
        integrate(s0, SchemeConfig(SchemeKind.SCHEME2, 0.005), 0.05, observer=seen.append)
        assert len(seen) == 10
        assert seen[-1].state.t == pytest.approx(0.05)

    def test_snapshot_cadence(self, rng):
        g = GridSpec(8, 8, 1.0)
        s0 = random_state(g, rng)
        rec = integrate(
            s0, SchemeConfig(SchemeKind.SCHEME2, 0.005), 0.05, snapshot_every=4
        )
        assert [t for t, _ in rec.snapshots] == pytest.approx([0.0, 0.02, 0.04])

    def test_series_is_strictly_increasing(self, rng):
        g = GridSpec(8, 8, 1.0)
        s0 = random_state(g, rng)
        rec = integrate(s0, SchemeConfig(SchemeKind.SCHEME3, 0.005), 0.05)
        steps = rec.column("step")
        times = rec.column("t")
        assert np.all(np.diff(steps) == 1)
        assert np.all(np.diff(times) > 0)
        assert rec.series[0].step == 0

    def test_two_level_schemes_retrace_under_seeded_reversal(self):
        # Stepping back from the negated final pair makes the leapfrog
        # stencils retrace the forward trajectory to rounding: their
        # relations are invariant under swapping the outer levels and
        # negating fields and dt.
        g = GridSpec(20, 20, 1.0)
        s0 = sine_profile(g)
        for kind in (SchemeKind.SCHEME2, SchemeKind.SCHEME3):
            returned = _retraced(s0, kind, g.dx**2, 0.5)
            assert norm(returned.u - s0.u) <= 1e-11 * norm(s0.u)

    def test_scheme2_conserves_energy_on_plate_run(self):
        # Conservation is grid-independent; checked on a 128x128 wave front.
        from epdiff import invariant_stats
        from epdiff.profiles import WaveFrontSpec, wavefront_profile

        g = GridSpec(128, 128, 0.1)
        dt = g.dx / 4
        s0 = wavefront_profile(WaveFrontSpec.plate(sigma=0.1), g)
        rec = integrate(s0, SchemeConfig(SchemeKind.SCHEME2, dt), 100 * dt)
        tv, _ = invariant_stats(rec.column("energy"))
        assert tv <= 1e-8

    def test_scheme2_and_scheme3_agree_to_second_order(self):
        g = GridSpec(20, 20, 1.0)
        s0 = sine_profile(g)
        diffs = []
        for dt in (2e-3, 1e-3):
            final = {}
            for kind in (SchemeKind.SCHEME2, SchemeKind.SCHEME3):
                rec = integrate(s0, SchemeConfig(kind, dt), 10 * 2e-3)
                final[kind] = rec.states_tail[-1].u
            diffs.append(norm(final[SchemeKind.SCHEME2] - final[SchemeKind.SCHEME3]))
        ratio = diffs[0] / diffs[1]
        assert 2.5 <= ratio <= 6.0

    def test_failure_carries_step_index(self):
        g = GridSpec(16, 16, 1.0)
        # dt far above the stability limit for this profile.
        s0 = State.from_velocity(
            FieldPair(
                ScalarField(g, 5.0 * np.sin(np.pi * g.meshgrid()[0])),
                ScalarField.zeros(g),
            )
        )
        cfg = SchemeConfig(SchemeKind.SCHEME2, 0.2)
        with np.errstate(all="ignore"), pytest.raises(Exception) as exc_info:
            integrate(s0, cfg, 40.0)
        assert "step" in str(exc_info.value)
        assert exc_info.value.step >= 1
        # A state this large overflows on the first step, which for the
        # two-level schemes is the bootstrap: both report step 1.
        huge = State.from_velocity(
            FieldPair(
                ScalarField(g, 1e100 * np.sin(np.pi * g.meshgrid()[0])),
                ScalarField.zeros(g),
            )
        )
        for kind in (SchemeKind.SCHEME2, SchemeKind.RK4):
            with np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as exc_info:
                integrate(huge, SchemeConfig(kind, 0.5), 5.0)
            assert str(exc_info.value).endswith("(while computing step 1)")
            assert exc_info.value.step == 1

    def test_non_finite_step_count_rejected(self):
        g = GridSpec(8, 8, 1.0)
        s0 = State.from_velocity(
            FieldPair(ScalarField(g, np.sin(np.pi * g.meshgrid()[0])), ScalarField.zeros(g))
        )
        for t_final, dt in ((math.inf, 0.1), (1.0, 1e-320)):
            with pytest.raises(ValueError, match="finite"):
                integrate(s0, SchemeConfig(SchemeKind.SCHEME2, dt), t_final)

    def test_dispatch_looks_steppers_up_at_call_time(self, monkeypatch):
        import epdiff.steppers as steppers

        calls = {"step": 0, "energy": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(steppers, "step_scheme2", counting("step", step_scheme2))
        monkeypatch.setattr(
            steppers, "energy_half_scheme2", counting("energy", steppers.energy_half_scheme2)
        )
        g = GridSpec(12, 12, 1.0)
        n = 6
        dt = g.dx**2
        rec = integrate(sine_profile(g), SchemeConfig(SchemeKind.SCHEME2, dt), n * dt)
        assert len(rec.series) == n + 1
        # Step 1 is the RK4 bootstrap; every step computes one energy.
        assert calls == {"step": n - 1, "energy": n}

    def test_threads_match_sequential_runs(self, rng):
        # The kernels' plans are per thread.
        threads_match_sequential_runs(GridSpec(64, 64, 0.5), rng)

    def test_threads_match_sequential_runs_on_a_split_grid(self, rng):
        # At 128^2 the stacks split: one caller at a time hands layer 0 to
        # the helper thread, and the others run both layers themselves.
        threads_match_sequential_runs(GridSpec(128, 128, 0.5), rng)


def threads_match_sequential_runs(g, rng):
    """Runs of three schemes on ``g`` at once, more of them than cores and
    switching often, each give the bits of the same run alone."""
    initials = [State.from_velocity(0.1 * random_pair(g, rng)) for _ in range(3)]
    kinds = (SchemeKind.SCHEME2, SchemeKind.SCHEME3, SchemeKind.RK4)
    start = threading.Barrier(len(initials), timeout=30)

    def run(initial, wait=False):
        if wait:
            start.wait()
        out = []
        for kind in kinds:
            rec = integrate(initial, SchemeConfig(kind, 1e-3), 6e-3)
            final = rec.states_tail[-1]
            out += [final.u.values, final.m.values, rec.column("energy")]
        return out

    alone = [run(s) for s in initials]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(initials)) as pool:
            futures = [pool.submit(run, s, True) for s in initials]
            together = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for seq, par in zip(alone, together):
        assert all(np.array_equal(a, b) for a, b in zip(seq, par))


def _retraced(s0, kind, dt, t_final):
    """Integrate to ``t_final``, step the same number of steps back by hand
    from the negated final pair, and return the negated end state."""
    step = step_scheme2 if kind is SchemeKind.SCHEME2 else step_scheme3
    fwd = integrate(s0, SchemeConfig(kind, dt), t_final)
    prev = fwd.states_tail[-1].negated(t=0.0)
    cur = fwd.states_tail[-2].negated(t=dt)
    for _ in range(fwd.series[-1].step - 1):
        prev, cur = cur, step(prev, cur, dt).state
    return cur.negated(t=s0.t)


def _drawn_state(K, J, alpha, seed):
    """A random velocity on a drawn grid and half the solvability bound."""
    g = GridSpec(K, J, alpha)
    s0 = State.from_velocity(random_pair(g, np.random.default_rng(seed)))
    return s0, 0.5 * solvability_dt_bound(s0.m)


@settings(max_examples=40)
@given(
    K=st.integers(3, 17),
    J=st.integers(3, 17),
    alpha=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    kind=st.sampled_from(SchemeKind),
    bootstrap=st.sampled_from(BootstrapKind),
)
def test_integrate_rows_are_the_hand_stepped_rows(K, J, alpha, seed, n, kind, bootstrap):
    # Row 0 of a two-level scheme repeats step 1's energy (scheme1's
    # pointwise energy included); rk4's row 0 holds the initial energy.
    s0, dt = _drawn_state(K, J, alpha, seed)
    cfg = SchemeConfig(kind, dt, bootstrap=bootstrap)
    rec = integrate(s0, cfg, s0.t + n * dt)

    two_level = kind is not SchemeKind.RK4
    states, iters = [s0], [0]
    for i in range(n):
        if kind is SchemeKind.RK4:
            res = step_rk4(states[-1], dt)
        elif i == 0:
            res = _bootstrap_result(s0, dt, cfg)
        elif kind is SchemeKind.SCHEME1_PC:
            res = step_scheme1_pc(states[-2], states[-1], dt, cfg)
        elif kind is SchemeKind.SCHEME2:
            res = step_scheme2(states[-2], states[-1], dt)
        else:
            res = step_scheme3(states[-2], states[-1], dt)
        states.append(res.state)
        iters.append(res.corrector_iters)
    energy = {
        SchemeKind.SCHEME2: energy_half_scheme2,
        SchemeKind.SCHEME3: energy_half_scheme3,
    }.get(kind, lambda prev, cur: energy_scheme1(cur))
    energies = [energy(prev, cur) for prev, cur in zip(states, states[1:])]
    energies.insert(0, energies[0] if two_level else energy_scheme1(s0))
    expected = [
        (step, s.t, e, *linear_momenta(s), it)
        for step, (s, e, it) in enumerate(zip(states, energies, iters))
    ]
    got = [
        (r.step, r.t, r.energy, r.momentum_x, r.momentum_y, r.corrector_iters)
        for r in rec.series
    ]
    assert got == expected
    final = rec.states_tail[-1]
    assert np.array_equal(final.u.values, states[-1].u.values)
    assert np.array_equal(final.m.values, states[-1].m.values)


@settings(max_examples=60)
@given(
    K=st.integers(3, 33),
    J=st.integers(3, 33),
    alpha=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 11),
    kind=st.sampled_from((SchemeKind.SCHEME2, SchemeKind.SCHEME3)),
)
def test_two_level_schemes_retrace_drawn_states(K, J, alpha, seed, n, kind):
    s0, dt = _drawn_state(K, J, alpha, seed)
    returned = _retraced(s0, kind, dt, s0.t + n * dt)
    assert norm(returned.u - s0.u) <= 1e-11 * norm(s0.u)

"""Time steppers: conservation structure, solver validation, and the driver."""

import ast
import graphlib
import inspect
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
    WaveFrontSpec,
    apply_q,
    energy_half_scheme2,
    energy_half_scheme3,
    energy_scheme1,
    integrate,
    linear_momenta,
    norm,
    relative_l2_error,
    sine_profile,
    solvability_dt_bound,
    step_rk4,
    step_scheme1_pc,
    step_scheme2,
    step_scheme3,
    wavefront_profile,
)
from epdiff.core import _corrector_norms, _gamma_arrays
from epdiff.grid import QSOLVE_RTOL, _solve_q_stack_arr
from epdiff.steppers import SCHEME3_RESIDUAL_CAP, _bootstrap_result
from conftest import gamma_apply, random_pair, random_state, same_bits


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
        corrector=corrector,
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

    def test_corrector_modes_validate(self):
        with pytest.raises(ValueError):
            FixedCount(0)

    def test_corrector_tolerance_is_two_constants(self):
        import epdiff.steppers as steppers

        assert (steppers.CORRECTOR_RTOL, steppers.CORRECTOR_MAX_PASSES) == (1e-14, 200)
        assert SchemeConfig(SchemeKind.SCHEME1_PC, 0.1).corrector is None

    @pytest.mark.parametrize("kind", [SchemeKind.SCHEME2, SchemeKind.SCHEME3, SchemeKind.RK4])
    def test_only_scheme1_takes_a_corrector(self, kind):
        with pytest.raises(ValueError, match="only scheme1"):
            SchemeConfig(kind, 0.1, corrector=FixedCount(3))
        assert SchemeConfig(kind, 0.1).corrector is None

    def test_fixed_count_rejects_non_integer(self):
        # range() would raise TypeError in the middle of a run.
        with pytest.raises(ValueError, match="integer"):
            FixedCount(2.5)
        assert FixedCount(3.0) == FixedCount(3) and type(FixedCount(3.0).count) is int


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
        res = step_scheme1_pc(None, s0, dt, pc_config(dt))
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


# The kernel methods of a plan: the one way a module other than grid.py
# reaches a plan.
PLAN_METHODS = {"solve", "apply_q", "square_sums", "product_sums", "bracket"}


def test_modules_reach_a_plan_only_through_its_kernel_methods():
    # Only grid.py knows when a plan splits and which buffers it holds:
    # elsewhere every _plan(...) is the receiver of one kernel method call,
    # so no plan is kept in a name and no buffer is read.
    import epdiff

    for path in sorted(Path(epdiff.__file__).parent.glob("*.py")):
        if path.name == "grid.py":
            continue
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        hidden = {"_split", "_SplitPlan", "_Plan", "_Helper", "_SPLIT_POINTS"}
        assert not (names | imported) & hidden, path.name
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Name) and node.id == "_plan"):
                continue
            call = parent[node]
            assert isinstance(call, ast.Call) and call.func is node, (path.name, node.lineno)
            method = parent[call]
            assert isinstance(method, ast.Attribute) and method.attr in PLAN_METHODS, (
                path.name, node.lineno
            )
            assert isinstance(parent[method], ast.Call) and parent[method].func is method, (
                path.name, node.lineno
            )


def test_public_functions_of_grid_and_core_have_a_caller():
    # A public operator that only tests call is a second kernel layer to
    # keep in step with the one the steppers run.  Every public function of
    # grid and core is imported and read by name in another package module
    # or in the benchmark (perfbench/).
    import epdiff
    from epdiff import core, grid

    sources = sorted(Path(epdiff.__file__).parent.glob("*.py"))
    bench = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert bench
    missing = []
    for module in (grid, core):
        stem = module.__name__.rsplit(".", 1)[1]
        used = set()
        for path in sources + bench:
            if path.samefile(module.__file__):
                continue
            tree = ast.parse(path.read_text())
            imported = {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in (stem, f"epdiff.{stem}", "epdiff")
                for alias in node.names
            }
            used |= imported & {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        public = {name for name in module.__all__ if inspect.isfunction(getattr(module, name))}
        missing += [f"{stem}.{name}" for name in sorted(public - used)]
    assert not missing, f"no caller outside their module: {missing}"


def test_one_checked_solve_gives_each_step_its_velocity(rng, monkeypatch):
    # scheme1, scheme2 and rk4 solve and check the new momentum once per
    # step, in one place, and report that solve's residual; the scheme1
    # bootstrap does too.  scheme3 takes its velocity from its own CG.
    import epdiff.steppers as steppers

    calls = []
    checked = steppers._solve_q_checked

    def spy(m, grid):
        u, residual = checked(m, grid)
        calls.append((m.copy(), residual))
        return u, residual

    g = GridSpec(12, 10, 1.0)
    dt = 1e-3
    s0 = random_state(g, rng)
    s1 = step_rk4(s0, dt).state
    monkeypatch.setattr(steppers, "_solve_q_checked", spy)
    bootstrap = pc_config(dt, FixedCount(3), BootstrapKind.SCHEME1_FIXED_POINT)
    steps = {
        "scheme1": lambda: step_scheme1_pc(s0, s1, dt, pc_config(dt)),
        "scheme1-fixed=3": lambda: step_scheme1_pc(s0, s1, dt, pc_config(dt, FixedCount(3))),
        "scheme2": lambda: step_scheme2(s0, s1, dt),
        "rk4": lambda: step_rk4(s1, dt),
        "scheme1 bootstrap": lambda: _bootstrap_result(s0, dt, bootstrap),
    }
    for label, step in steps.items():
        calls.clear()
        res = step()
        assert len(calls) == 1, label
        m, residual = calls[0]
        assert same_bits(m, res.state.m.values), label
        assert residual == res.linear_solve_residual, label
    calls.clear()
    step_scheme3(s0, s1, dt)
    assert not calls


@pytest.mark.parametrize("n", [20, 128])
def test_step_outputs_are_fresh_stacks(n, rng):
    # A step's new velocity and momentum share no memory with an input
    # level or with each other; at 128^2 the kernels split their layers.
    g = GridSpec(n, n, 1.0)
    dt = 1e-3
    s0 = State.from_velocity(1e-3 * random_pair(g, rng))
    s1 = step_rk4(s0, dt).state
    bootstrap = pc_config(dt, bootstrap=BootstrapKind.SCHEME1_FIXED_POINT)
    steps = {
        "scheme1": lambda: step_scheme1_pc(s0, s1, dt, pc_config(dt)),
        "scheme1 bootstrap": lambda: _bootstrap_result(s0, dt, bootstrap),
        "scheme2": lambda: step_scheme2(s0, s1, dt),
        "scheme3": lambda: step_scheme3(s0, s1, dt),
        "rk4": lambda: step_rk4(s1, dt),
    }
    inputs = [f.values for s in (s0, s1) for f in (s.u, s.m)]
    for label, step in steps.items():
        new = step().state
        u, m = new.u.values, new.m.values
        shared = [np.shares_memory(u, m)]
        shared += [np.shares_memory(x, y) for x in (u, m) for y in inputs]
        assert not any(shared), label


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
        # one call, and no other norm; the reported residual is the checked
        # Q-solve's of the last iterate.
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
        for mode in (None, FixedCount(3)):
            calls.clear()
            res = step_scheme1_pc(None, sine_profile(g), dt, pc_config(dt, mode))
            assert len(calls) == res.corrector_iters, mode
            assert res.corrector_increments == tuple(delta for _, delta in calls)
            norm_m = ref_pair_norm(res.state.m.values, g)
            assert calls[-1][0] == norm_m
            assert res.linear_solve_residual <= QSOLVE_RTOL

    @pytest.mark.parametrize(
        "previous,corrector",
        [(True, None), (True, FixedCount(3)), (False, None)],
        ids=["previous-level", "fixed3", "bootstrap"],
    )
    def test_perturbed_final_solve_fails_the_step(self, rng, monkeypatch, previous, corrector):
        # The checked solve's bare solve answers 1e-6 off, while the
        # corrector's own solves stay exact: the step must fail its check.
        import epdiff.grid as grid_module

        g = GridSpec(12, 10, 1.0)
        dt = 1e-3
        s0 = random_state(g, rng)
        s1 = step_rk4(s0, dt).state
        solve = grid_module._solve_q_stack_arr
        monkeypatch.setattr(
            grid_module, "_solve_q_stack_arr", lambda a, g: solve(a, g) * (1.0 + 1e-6)
        )
        prev, cur = (s0, s1) if previous else (None, s0)
        with pytest.raises(NumericalFailureError, match="Helmholtz solve residual") as info:
            step_scheme1_pc(prev, cur, dt, pc_config(dt, corrector))
        assert info.value.residual == pytest.approx(1e-6, rel=1e-6)

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
        res = step_scheme1_pc(None, s0, dt, pc_config(dt))
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
        res = step_scheme1_pc(None, s0, dt, pc_config(dt))
        assert energy_scheme1(res.state) == pytest.approx(
            energy_scheme1(s0), rel=1e-12
        )

    def test_non_convergence_raises_with_residual(self, rng, monkeypatch):
        import epdiff.steppers as steppers

        monkeypatch.setattr(steppers, "CORRECTOR_MAX_PASSES", 3)
        g = GridSpec(10, 10, 1.0)
        dt = 5.0  # far beyond any contraction regime
        s0 = random_state(g, rng, t=0.0)
        with pytest.raises(NonConvergenceError) as exc_info:
            step_scheme1_pc(None, s0, dt, pc_config(dt))
        assert exc_info.value.residual is not None

    def test_contraction_below_solvability_bound(self):
        g = GridSpec(20, 20, 1.0)
        s0 = sine_profile(g)
        dt = 0.9 * solvability_dt_bound(s0.m)
        cfg = pc_config(dt)
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


# Total variations through the 64^2 front collisions: at most 5.3e-15 for
# scheme1's and scheme2's energy and momenta (x-momentum of scheme1 on the
# parallel fronts), and 2.8e-14 for scheme3's energy (parallel).  Each bound
# leaves a margin of about 3.5.
FRONT_TV = 2e-14
FRONT_SCHEME3_ENERGY_TV = 1e-13


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

    @pytest.mark.parametrize("front", ["parallel", "star"])
    def test_conservation_through_front_collisions(self, front):
        # The paper's colliding fronts at 64^2, dt = dx/4, through t = 0.75
        # (96 steps, RK4 bootstrap), as `epdiff run --grid 64 --t-final
        # 0.75` runs them.  scheme1 and scheme2 conserve energy and both
        # momenta, scheme3 energy alone: its x-momentum moves by 9.3e-2 on
        # the parallel fronts.
        from epdiff import FrontKind, default_spec, invariant_stats

        spec = default_spec(FrontKind(front))
        g = GridSpec(64, 64, spec.sigma)
        s0 = wavefront_profile(spec, g)
        conserved = {
            SchemeKind.SCHEME1_PC: (("energy", "momentum_x", "momentum_y"), FRONT_TV),
            SchemeKind.SCHEME2: (("energy", "momentum_x", "momentum_y"), FRONT_TV),
            SchemeKind.SCHEME3: (("energy",), FRONT_SCHEME3_ENERGY_TV),
        }
        for kind, (columns, bound) in conserved.items():
            rec = integrate(s0, SchemeConfig(kind, g.dx / 4), 0.75)
            assert rec.series[-1].step == 96
            for column in columns:
                tv, _ = invariant_stats(rec.column(column))
                assert tv <= bound, (kind, column, tv)

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
        with pytest.raises(NumericalFailureError) as exc_info:
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
            with pytest.raises(NumericalFailureError) as exc_info:
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


# The order in time of every scheme on a two-dimensional state: a 32^2
# plate front (sigma = alpha = 0.1, amplitude 0.5) run to T = 0.25 with
# dt = dx/4, dx/8, dx/16 and dx/32, against RK4 at dx/256.  Measured slopes
# between successive dt: 1.94-2.00 for the three DVDM schemes (scheme1 and
# scheme1-fixed=3 1.95, 1.98, 1.99, or 2.00 each after a scheme1 bootstrap;
# scheme2 1.96, 1.98, 1.99, or 1.94, 1.97, 1.99 after a scheme1 bootstrap;
# scheme3 2.00 each), and 4.01-4.02 for rk4.  Each slope may lie 0.05 beyond that range.  Errors at dx/32 were
# 1.1e-5 to 2.3e-5 and 1.8e-10; each bound is about 1.5 times the largest.
ORDER_RATIOS = (4, 8, 16, 32)
ORDER_CASES = {
    "scheme1": (SchemeKind.SCHEME1_PC, None, BootstrapKind.RK4),
    "scheme1-fixed=3": (SchemeKind.SCHEME1_PC, FixedCount(3), BootstrapKind.RK4),
    "scheme2": (SchemeKind.SCHEME2, None, BootstrapKind.RK4),
    "scheme3": (SchemeKind.SCHEME3, None, BootstrapKind.RK4),
    "rk4": (SchemeKind.RK4, None, BootstrapKind.RK4),
    "scheme1-bootstrap-scheme1": (
        SchemeKind.SCHEME1_PC, None, BootstrapKind.SCHEME1_FIXED_POINT
    ),
    "scheme2-bootstrap-scheme1": (
        SchemeKind.SCHEME2, None, BootstrapKind.SCHEME1_FIXED_POINT
    ),
}


@pytest.fixture(scope="module")
def plate_front_reference():
    g = GridSpec(32, 32, 0.1)
    s0 = wavefront_profile(WaveFrontSpec.plate(sigma=0.1, amplitude=0.5), g)
    reference = integrate(s0, SchemeConfig(SchemeKind.RK4, g.dx / 256), 0.25)
    return s0, reference.states_tail[-1].u


@pytest.mark.parametrize("label", ORDER_CASES)
def test_order_in_time_on_a_plate_front(label, plate_front_reference):
    s0, reference = plate_front_reference
    kind, corrector, bootstrap = ORDER_CASES[label]
    errors = []
    for ratio in ORDER_RATIOS:
        cfg = SchemeConfig(kind, s0.grid.dx / ratio, corrector, bootstrap)
        final = integrate(s0, cfg, 0.25).states_tail[-1].u
        errors.append(relative_l2_error(final, reference))
    slopes = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    low, high, finest = (3.96, 4.07, 3e-10) if kind is SchemeKind.RK4 else (1.89, 2.05, 3.5e-5)
    assert all(low <= s <= high for s in slopes), slopes
    assert errors[-1] <= finest, errors


# One-step conservation on drawn states: a random velocity on a K x J grid
# (odd and non-square included), dt = 0.2 min(dx, dy) / max|m|, below the
# advective limit of the state, and an RK4 first step.  Over 5000 numpy
# draws of the same distribution and the first 300 draws of this strategy,
# the worst one-step changes were:
# - relative energy: 4.8e-16 (scheme2), 3.7e-14 (scheme3) and 5.4e-16
#   (converged scheme1, at most 16 corrector passes);
# - either momentum, relative to the momentum scale sum|m| dA: 1.6e-16
#   (scheme2) and 8.3e-17 (scheme1); 2.3e-13 and 2.2e-13 absolute.
# Each bound is about 10 times the worst case.
ONE_STEP_ENERGY_MISS = 5e-15
ONE_STEP_SCHEME3_ENERGY_MISS = 4e-13
ONE_STEP_MOMENTUM_MISS = 1.5e-15


@settings(max_examples=100)
@given(
    K=st.integers(3, 33),
    J=st.integers(3, 33),
    alpha=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_step_conservation_on_drawn_states(K, J, alpha, seed):
    g = GridSpec(K, J, alpha)
    u = np.random.default_rng(seed).standard_normal((2,) + g.shape)
    s0 = State.from_velocity(FieldPair.from_arrays(g, *u))
    m = s0.m.values
    dt = 0.2 * min(g.dx, g.dy) / float(np.abs(m).max())
    s1 = step_rk4(s0, dt).state
    momentum_scale = float(np.abs(m).sum()) * g.cell_area

    def energy_miss(before, after):
        return abs(after - before) / abs(before)

    def momentum_miss(s):
        return max(abs(a - b) for a, b in zip(linear_momenta(s), linear_momenta(s1)))

    s2 = step_scheme2(s0, s1, dt).state
    assert energy_miss(energy_half_scheme2(s0, s1), energy_half_scheme2(s1, s2)) <= (
        ONE_STEP_ENERGY_MISS
    )
    assert momentum_miss(s2) <= ONE_STEP_MOMENTUM_MISS * momentum_scale

    s3 = step_scheme3(s0, s1, dt).state
    assert energy_miss(energy_half_scheme3(s0, s1), energy_half_scheme3(s1, s3)) <= (
        ONE_STEP_SCHEME3_ENERGY_MISS
    )

    s1_pc = step_scheme1_pc(s0, s1, dt, SchemeConfig(SchemeKind.SCHEME1_PC, dt)).state
    assert energy_miss(energy_scheme1(s1), energy_scheme1(s1_pc)) <= ONE_STEP_ENERGY_MISS
    assert momentum_miss(s1_pc) <= ONE_STEP_MOMENTUM_MISS * momentum_scale

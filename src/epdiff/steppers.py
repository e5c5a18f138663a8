"""Time steppers: midpoint-implicit predictor-corrector, two explicit/implicit
two-step schemes, an RK4 reference, and the integration driver.

All schemes evolve the momentum M and recover the velocity U by inverting
Q = 1 - alpha^2 Lap.  The two-step schemes need a first step produced by a
one-step bootstrap (RK4 by default).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse.linalg

from .core import (
    State,
    _gamma_arrays,
    energy_half_scheme2,
    energy_half_scheme3,
    energy_scheme1,
    linear_momenta,
)
from .diagnostics import RunRecord, SeriesRow
from .errors import NonConvergenceError, NumericalFailureError
from .grid import (
    FieldPair,
    _apply_q_arr,
    _check_same_grid,
    _solve_q_checked,
    _solve_q_stack_arr,
    norm,
)

__all__ = [
    "SchemeKind",
    "BootstrapKind",
    "FixedCount",
    "Tolerance",
    "SchemeConfig",
    "StepResult",
    "step_scheme1_pc",
    "step_scheme2",
    "step_scheme3",
    "step_rk4",
    "bootstrap_first_step",
    "solvability_dt_bound",
    "integrate",
]

# Hard ceiling on the relative residual of the linearly-implicit solve; the
# default target is tighter so energy stays conserved over 1e4-step runs.
SCHEME3_RESIDUAL_CAP = 1e-10
SCHEME3_RTOL = 1e-13

_CONSECUTIVE_T_ATOL = 1e-12


class SchemeKind(str, Enum):
    SCHEME1_PC = "scheme1"
    SCHEME2 = "scheme2"
    SCHEME3 = "scheme3"
    RK4 = "rk4"


class BootstrapKind(str, Enum):
    RK4 = "rk4"
    SCHEME1_FIXED_POINT = "scheme1"


@dataclass(frozen=True)
class FixedCount:
    """Run exactly ``count`` corrector passes per step."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("corrector count must be at least 1")


@dataclass(frozen=True)
class Tolerance:
    """Iterate the corrector until successive momentum iterates agree to
    ``rtol`` in relative grid norm, up to ``max_iter`` passes."""

    rtol: float
    max_iter: int

    def __post_init__(self):
        if not 0.0 < self.rtol < 1.0:
            raise ValueError("corrector rtol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("corrector max_iter must be at least 1")


CorrectorMode = Union[FixedCount, Tolerance]

# Tolerance-mode corrector of scheme1 and of the scheme1 bootstrap.
DEFAULT_CORRECTOR = Tolerance(rtol=1e-14, max_iter=200)


@dataclass(frozen=True)
class SchemeConfig:
    kind: SchemeKind
    dt: float
    corrector: CorrectorMode = DEFAULT_CORRECTOR
    bootstrap: BootstrapKind = BootstrapKind.RK4

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class StepResult:
    """State after one step plus solver bookkeeping.

    ``corrector_iters`` is 0 for the explicit schemes;
    ``linear_solve_residual`` is the relative residual of whichever linear or
    fixed-point solve produced the state; ``corrector_increments`` holds the
    norms of successive corrector updates (predictor-corrector only).
    """

    state: State
    corrector_iters: int
    linear_solve_residual: float
    corrector_increments: tuple[float, ...] = ()


def _require_consecutive(s_nm1: State, s_n: State, dt: float):
    _check_same_grid(s_nm1.u, s_n.u)
    if abs(s_n.t - (s_nm1.t + dt)) > _CONSECUTIVE_T_ATOL:
        raise ValueError(
            f"states are not consecutive: t={s_nm1.t} then {s_n.t} with dt={dt}"
        )


def _pair_norm(a: np.ndarray, area: float) -> float:
    return math.sqrt(np.sum(a * a, axis=(-2, -1)).sum() * area)


def _finish(
    s_n: State,
    dt: float,
    u: np.ndarray,
    m: np.ndarray,
    residual: float,
    increments: tuple[float, ...] = (),
) -> StepResult:
    """Wrap the (2, J, K) velocity and momentum stacks of the level after
    ``s_n``; one corrector pass per increment."""
    grid = s_n.grid
    state = State(
        u=FieldPair.from_arrays(grid, u[0], u[1]),
        m=FieldPair.from_arrays(grid, m[0], m[1]),
        t=s_n.t + dt,
    )
    return StepResult(
        state,
        corrector_iters=len(increments),
        linear_solve_residual=residual,
        corrector_increments=increments,
    )


def _leapfrog(s_nm1: State, s_n: State, dt: float) -> np.ndarray:
    """The explicit two-step momentum M_{n-1} - 2 dt Gamma(M_n, U_n), stacked."""
    return s_nm1.m.values - (2.0 * dt) * _gamma_arrays(
        s_n.m.values, s_n.u.values, s_n.grid
    )


def step_scheme2(s_nm1: State, s_n: State, dt: float) -> StepResult:
    """Explicit two-step leapfrog: M advances over 2*dt with the bracket
    frozen at the middle level; conserves energy and both momenta."""
    _require_consecutive(s_nm1, s_n, dt)
    m_new = _leapfrog(s_nm1, s_n, dt)
    u_new, res = _solve_q_checked(m_new, s_n.grid)
    return _finish(s_n, dt, u_new, m_new, res)


def step_scheme3(s_nm1: State, s_n: State, dt: float) -> StepResult:
    """Linearly implicit two-step scheme: solves the coupled system
    (Q + dt*Gamma_n) U_new = (Q - dt*Gamma_n) U_old in the 2*K*J velocity
    unknowns, with the bracket coefficients frozen at the middle level.

    Conserves energy but not the linear momenta.  The system is solved
    matrix-free by GMRES preconditioned with the spectral Q-inverse; the
    operator is Q plus an O(dt) skew perturbation, so a handful of iterations
    suffice.  The corrector's fixed-point iteration x <- Q^-1 (b - dt
    Gamma_n x) is not used: it converges only while the spectral radius of
    dt Q^-1 Gamma_n stays below 1, and on the 16x16 random state of the
    dense cross-validation test (alpha = 0.8, dt = 0.01) that radius is 1.09,
    while GMRES converges for any nonsingular operator.  Fails if the
    relative residual cannot be pushed below ``SCHEME3_RESIDUAL_CAP``.
    """
    _require_consecutive(s_nm1, s_n, dt)
    grid = s_n.grid
    stack = (2,) + grid.shape
    size = 2 * grid.K * grid.J
    m_n = s_n.m.values

    def matvec(x: np.ndarray) -> np.ndarray:
        u = x.reshape(stack)
        return (_apply_q_arr(u, grid) + dt * _gamma_arrays(m_n, u, grid)).ravel()

    def precond(x: np.ndarray) -> np.ndarray:
        return _solve_q_stack_arr(x.reshape(stack), grid).ravel()

    # Using the stored momentum for Q u_old keeps the evolved variable exact.
    b = (s_nm1.m.values - dt * _gamma_arrays(m_n, s_nm1.u.values, grid)).ravel()
    # Linear extrapolation from the two known levels is a second-order guess.
    x0 = (2.0 * s_n.u.values - s_nm1.u.values).ravel()

    iteration_cap = max(1, math.ceil(10.0 * math.sqrt(size)))
    restart = min(64, iteration_cap)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    x, info = scipy.sparse.linalg.gmres(
        scipy.sparse.linalg.LinearOperator((size, size), matvec=matvec),
        b,
        x0=x0,
        rtol=SCHEME3_RTOL,
        atol=0.0,
        restart=restart,
        maxiter=max(1, math.ceil(iteration_cap / restart)),
        M=scipy.sparse.linalg.LinearOperator((size, size), matvec=precond),
        callback=count,
        callback_type="pr_norm",
    )
    norm_b = float(np.linalg.norm(b))
    rel_res = (
        float(np.linalg.norm(matvec(x) - b)) / norm_b if norm_b > 0.0 else 0.0
    )
    if not np.all(np.isfinite(x)) or rel_res > SCHEME3_RESIDUAL_CAP:
        raise NonConvergenceError(
            f"linear solve stalled at relative residual {rel_res:.3e} "
            f"(cap {SCHEME3_RESIDUAL_CAP:.1e}, {iters} iterations)",
            residual=rel_res,
        )

    u = x.reshape(stack)
    return _finish(s_n, dt, u, _apply_q_arr(u, grid), rel_res)


def step_scheme1_pc(
    s_nm1: Optional[State],
    s_n: State,
    dt: float,
    cfg: SchemeConfig,
) -> StepResult:
    """Predictor-corrector realization of the midpoint-implicit scheme.

    The predictor is one explicit leapfrog step (skipped when no previous
    level exists, in which case the current momentum seeds the iteration).
    Each corrector pass evaluates

        M_c = M_n - (dt/4) * Gamma(M_n + M_p, U_n + U_p)

    and replaces the guess; by bilinearity of the bracket this is exactly the
    fixed-point map of the implicit scheme, so at convergence the energy and
    both momenta are conserved to the stopping tolerance.  In tolerance mode
    iteration stops when successive momentum iterates agree to ``rtol``
    relative; exceeding ``max_iter`` raises :class:`NonConvergenceError`.
    """
    grid = s_n.grid
    area = grid.cell_area
    m_n = s_n.m.values
    u_n = s_n.u.values

    if s_nm1 is not None:
        _require_consecutive(s_nm1, s_n, dt)
        mp = _leapfrog(s_nm1, s_n, dt)
        up = _solve_q_stack_arr(mp, grid)
    else:
        mp, up = m_n, u_n

    mode = cfg.corrector
    max_passes = mode.count if isinstance(mode, FixedCount) else mode.max_iter
    increments = []
    converged = isinstance(mode, FixedCount)
    quarter_dt = 0.25 * dt

    for _ in range(max_passes):
        mc = m_n - quarter_dt * _gamma_arrays(m_n + mp, u_n + up, grid)
        delta = _pair_norm(mc - mp, area)
        increments.append(delta)
        mp = mc
        up = _solve_q_stack_arr(mp, grid)
        if isinstance(mode, Tolerance):
            if delta <= mode.rtol * _pair_norm(mc, area):
                converged = True
                break

    norm_mc = _pair_norm(mp, area)
    rel = increments[-1] / norm_mc if norm_mc > 0.0 else 0.0
    if not converged:
        raise NonConvergenceError(
            f"corrector did not reach rtol={mode.rtol:.1e} within "
            f"{mode.max_iter} passes (last relative increment {rel:.3e})",
            residual=rel,
        )
    return _finish(s_n, dt, up, mp, rel, tuple(increments))


def step_rk4(s_n: State, dt: float) -> StepResult:
    """Classical four-stage Runge-Kutta step on dM/dt = -Gamma(M, Q^-1 M).

    Each stage recovers the stage velocity with a Helmholtz solve.  Kept as a
    non-conservative reference; it does not preserve the discrete energy.
    """
    grid = s_n.grid

    def f(m: np.ndarray, u: np.ndarray) -> np.ndarray:
        return -_gamma_arrays(m, u, grid)

    def stage(m: np.ndarray) -> np.ndarray:
        return f(m, _solve_q_stack_arr(m, grid))

    m = s_n.m.values
    k1 = f(m, s_n.u.values)
    k2 = stage(m + 0.5 * dt * k1)
    k3 = stage(m + 0.5 * dt * k2)
    k4 = stage(m + dt * k3)

    m_new = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    u_new, res = _solve_q_checked(m_new, grid)
    return _finish(s_n, dt, u_new, m_new, res)


def _bootstrap_result(s_0: State, dt: float, cfg: SchemeConfig) -> StepResult:
    if cfg.bootstrap is BootstrapKind.RK4:
        return step_rk4(s_0, dt)
    pc_cfg = replace(cfg, corrector=DEFAULT_CORRECTOR)
    return step_scheme1_pc(None, s_0, dt, pc_cfg)


def bootstrap_first_step(s_0: State, dt: float, cfg: SchemeConfig) -> State:
    """Produce the second time level for the two-step schemes."""
    return _bootstrap_result(s_0, dt, cfg).state


def solvability_dt_bound(m_n: FieldPair) -> float:
    """Largest dt for which the midpoint-implicit step provably has a unique
    solution and a contracting corrector:

        dt <= sqrt(2(sqrt5 - 2))/5 * sqrt(dx^3 dy^3/(dx^2 + dy^2)) / ||M||.

    Returns +inf for the zero momentum (any dt works at the trivial state).
    """
    nm = norm(m_n)
    if nm == 0.0:
        return math.inf
    grid = m_n.grid
    dx, dy = grid.dx, grid.dy
    c = math.sqrt(2.0 * (math.sqrt(5.0) - 2.0)) / 5.0
    return c * math.sqrt(dx**3 * dy**3 / (dx**2 + dy**2)) / nm


def _resolve_step_count(t0: float, t_final: float, dt: float) -> int:
    if not t_final > t0:
        raise ValueError("t_final must exceed the initial time")
    ratio = (t_final - t0) / dt
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(
            f"(t_final - t0)/dt = {ratio} is not within 1e-9 of a positive integer"
        )
    return n


def integrate(
    initial: State,
    cfg: SchemeConfig,
    t_final: float,
    observer: Optional[Callable[[StepResult], None]] = None,
    *,
    snapshot_every: int = 0,
    seed_second_state: Optional[State] = None,
) -> RunRecord:
    """Run the configured stepper from ``initial`` to ``t_final``.

    The two-level schemes bootstrap their second level with ``cfg.bootstrap``
    unless ``seed_second_state`` supplies it directly (used by the
    reversibility protocol).  ``observer`` is invoked with every
    :class:`StepResult`; ``snapshot_every`` > 0 stores the velocity every
    that many steps (step 0 included).  Stepper failures abort with the step
    index attached.
    """
    kind = cfg.kind
    dt = cfg.dt
    n_steps = _resolve_step_count(initial.t, t_final, dt)
    multistep = kind is not SchemeKind.RK4
    if seed_second_state is not None and not multistep:
        raise ValueError("a seed pair only makes sense for two-level schemes")

    # Built per call, not at import, so that a stepper or energy replaced on
    # this module (by a tracer or a test) is the one that runs.
    def pointwise_energy(prev: Optional[State], cur: State) -> float:
        return energy_scheme1(cur)

    advance, scheme_energy = {
        SchemeKind.SCHEME1_PC: (
            lambda prev, cur: step_scheme1_pc(prev, cur, dt, cfg), pointwise_energy
        ),
        SchemeKind.SCHEME2: (
            lambda prev, cur: step_scheme2(prev, cur, dt), energy_half_scheme2
        ),
        SchemeKind.SCHEME3: (
            lambda prev, cur: step_scheme3(prev, cur, dt), energy_half_scheme3
        ),
        SchemeKind.RK4: (lambda prev, cur: step_rk4(cur, dt), pointwise_energy),
    }[kind]

    record = RunRecord(scheme=kind.value, grid=initial.grid, dt=dt)

    def snapshot(step: int, s: State):
        if snapshot_every > 0 and step % snapshot_every == 0:
            record.snapshots.append((s.t, s.u))

    def add_row(step: int, s: State, energy: float, res: StepResult | None, wall: float):
        mx, my = linear_momenta(s)
        record.series.append(
            SeriesRow(
                step=step,
                t=s.t,
                energy=energy,
                momentum_x=mx,
                momentum_y=my,
                corrector_iters=res.corrector_iters if res else 0,
                wall_seconds=wall,
            )
        )

    prev: Optional[State] = None
    cur = initial
    snapshot(0, cur)
    if not multistep:
        add_row(0, cur, scheme_energy(None, cur), None, 0.0)

    try:
        for step in range(1, n_steps + 1):
            t_start = time.perf_counter()
            if step > 1 or not multistep:
                result = advance(prev, cur)
            elif seed_second_state is not None:
                _require_consecutive(cur, seed_second_state, dt)
                result = StepResult(
                    seed_second_state, corrector_iters=0, linear_solve_residual=0.0
                )
            else:
                result = _bootstrap_result(cur, dt, cfg)
            wall = time.perf_counter() - t_start

            prev, cur = cur, result.state
            energy = scheme_energy(prev, cur)
            if step == 1 and multistep:
                # The two-level energy of step 0 needs the bootstrapped level.
                add_row(0, prev, energy, None, 0.0)
            add_row(step, cur, energy, result, wall)
            snapshot(step, cur)
            if observer is not None:
                observer(result)
    except NumericalFailureError as exc:
        raise type(exc)(
            f"{exc} (while computing step {step})",
            residual=exc.residual,
        ) from exc

    record.states_tail = (prev, cur) if prev is not None else (cur,)
    return record

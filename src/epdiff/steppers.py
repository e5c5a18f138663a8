"""Time steppers: midpoint-implicit predictor-corrector, two explicit/implicit
two-step schemes, an RK4 reference, and the integration driver.

All schemes evolve the momentum M and recover the velocity U by inverting
Q = 1 - alpha^2 Lap.  The two-step schemes need a first step produced by a
one-step bootstrap (RK4 by default).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .core import (
    State,
    _corrector_norms,
    _gamma_arrays,
    energy_half_scheme2,
    energy_half_scheme3,
    energy_scheme1,
    linear_momenta,
)
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
    "SchemeConfig",
    "StepResult",
    "SeriesRow",
    "RunRecord",
    "step_scheme1_pc",
    "step_scheme2",
    "step_scheme3",
    "step_rk4",
    "solvability_dt_bound",
    "step_count",
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


# scheme1's corrector, unless a FixedCount is given, stops once successive
# momentum iterates agree to CORRECTOR_RTOL in relative grid norm, and fails
# after CORRECTOR_MAX_PASSES passes.
CORRECTOR_RTOL = 1e-14
CORRECTOR_MAX_PASSES = 200


@dataclass(frozen=True)
class FixedCount:
    """Run exactly ``count`` corrector passes per step."""

    count: int

    def __post_init__(self):
        # range() would reject any other count mid-run.
        if not (1 <= self.count < math.inf and int(self.count) == self.count):
            raise ValueError(
                f"corrector count must be an integer of at least 1, got {self.count!r}"
            )
        object.__setattr__(self, "count", int(self.count))


@dataclass(frozen=True)
class SchemeConfig:
    """One scheme at one dt.  ``corrector`` is scheme1's alone: ``None``
    iterates to ``CORRECTOR_RTOL``, a :class:`FixedCount` runs that many
    passes."""

    kind: SchemeKind
    dt: float
    corrector: Optional[FixedCount] = None
    bootstrap: BootstrapKind = BootstrapKind.RK4

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.corrector is not None and self.kind != SchemeKind.SCHEME1_PC:
            raise ValueError(f"only scheme1 takes a corrector, got {self.corrector}")


@dataclass(frozen=True)
class StepResult:
    """State after one step plus solver bookkeeping.

    ``linear_solve_residual`` is the relative residual of the solve that gave
    the velocity: the checked Q-solve for scheme1, scheme2 and rk4, the CG for
    scheme3; ``corrector_increments`` holds the norms of successive corrector
    updates (predictor-corrector only).
    """

    state: State
    linear_solve_residual: float
    corrector_increments: tuple[float, ...] = ()

    @property
    def corrector_iters(self) -> int:
        """Corrector passes: one per increment, 0 for the explicit schemes."""
        return len(self.corrector_increments)


@dataclass(frozen=True)
class SeriesRow:
    """One row of the invariant time series."""

    step: int
    t: float
    energy: float
    momentum_x: float
    momentum_y: float
    corrector_iters: int
    wall_seconds: float


@dataclass
class RunRecord:
    """The invariant rows, the optional velocity snapshots and the last two
    states of one integration.

    The energy column holds the scheme's own discrete energy: the pointwise
    energy of the current state for scheme1 and rk4, and the half-step
    energy of the (previous, current) pair for scheme2 and scheme3.  Row 0
    of a two-level scheme, scheme1 included, repeats step 1's value: for
    scheme2 and scheme3 that is the baseline the conservation theory
    compares against, so the total variation and sup deviation of the
    column are unaffected.  Row 0 of rk4 holds the initial energy.
    """

    series: list[SeriesRow] = field(default_factory=list)
    snapshots: list[tuple[float, FieldPair]] = field(default_factory=list)
    # (previous, final) state: a reversal restarts from the final one.
    states_tail: tuple[State, ...] = ()

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.series])


def _require_consecutive(s_nm1: State, s_n: State, dt: float):
    _check_same_grid(s_nm1.u, s_n.u)
    if abs(s_n.t - (s_nm1.t + dt)) > _CONSECUTIVE_T_ATOL:
        raise ValueError(
            f"states are not consecutive: t={s_nm1.t} then {s_n.t} with dt={dt}"
        )


def _finish(
    s_n: State,
    dt: float,
    m: np.ndarray,
    increments: tuple[float, ...] = (),
    solved: Optional[tuple[np.ndarray, float]] = None,
) -> StepResult:
    """Wrap the (2, J, K) momentum stack ``m`` of the level after ``s_n`` with
    the velocity and residual of its checked Q-solve, or with scheme3's
    ``solved`` (x, CG residual) for m = Q x; one corrector pass per increment."""
    grid = s_n.grid
    u, residual = _solve_q_checked(m, grid) if solved is None else solved
    state = State(
        u=FieldPair.from_arrays(grid, u[0], u[1]),
        m=FieldPair.from_arrays(grid, m[0], m[1]),
        t=s_n.t + dt,
    )
    return StepResult(state, residual, increments)


def _leapfrog(s_nm1: State, s_n: State, dt: float) -> np.ndarray:
    """The explicit two-step momentum M_{n-1} - 2 dt Gamma(M_n, U_n), stacked
    in the bracket's fresh result."""
    m = _gamma_arrays(s_n.m.values, s_n.u.values, s_n.grid)
    np.multiply(m, 2.0 * dt, out=m)
    return np.subtract(s_nm1.m.values, m, out=m)


def step_scheme2(s_nm1: State, s_n: State, dt: float) -> StepResult:
    """Explicit two-step leapfrog: M advances over 2*dt with the bracket
    frozen at the middle level; conserves energy and both momenta."""
    _require_consecutive(s_nm1, s_n, dt)
    return _finish(s_n, dt, _leapfrog(s_nm1, s_n, dt))


def step_scheme3(s_nm1: State, s_n: State, dt: float) -> StepResult:
    """Linearly implicit two-step scheme: solves the coupled system
    (Q + dt*Gamma_n) U_new = (Q - dt*Gamma_n) U_old in the 2*K*J velocity
    unknowns, with the bracket coefficients frozen at the middle level.

    Conserves energy but not the linear momenta.  Q is symmetric positive
    definite and dt*Gamma_n is skew-symmetric, so the system is solved
    matrix-free by the generalized conjugate gradient method of Concus,
    Golub and Widlund for "SPD plus skew" operators, with the spectral
    Q-inverse as its splitting.  Its three-term recurrence cannot break
    down; each iteration costs one product with the operator and one
    Q-solve, and it keeps no Krylov basis and never restarts.  The product
    of the accepted iterate gives both the true residual, which the stop
    test uses, and Q U_new, the new momentum.  The corrector's fixed-point
    iteration x <- Q^-1 (b - dt Gamma_n x) is not used: it converges only
    while the spectral radius of dt Q^-1 Gamma_n stays below 1, and on the
    16x16 random state of the dense cross-validation test (alpha = 0.8,
    dt = 0.01) that radius is 1.09.  Fails if the relative residual cannot
    be pushed below ``SCHEME3_RESIDUAL_CAP``.
    """
    _require_consecutive(s_nm1, s_n, dt)
    grid = s_n.grid
    m_n = s_n.m.values

    # Using the stored momentum for Q u_old keeps the evolved variable exact.
    b = _gamma_arrays(m_n, s_nm1.u.values, grid)
    np.multiply(b, dt, out=b)
    np.subtract(s_nm1.m.values, b, out=b)
    norm_b = math.sqrt(np.vdot(b, b))
    # Linear extrapolation from the two known levels is a second-order
    # guess; a zero right-hand side has the zero solution.
    x = 2.0 * s_n.u.values - s_nm1.u.values if norm_b > 0.0 else np.zeros_like(b)
    omega = 1.0

    # Iterate k: r_k = b - A x_k, z_k = Q^-1 r_k, rho_k = (z_k, r_k), then
    # x_1 = x_0 + z_0 and x_{k+1} = x_{k-1} + omega_{k+1} (z_k + x_k - x_{k-1})
    # with omega_{k+1} = 1 / (1 + (rho_k / rho_{k-1}) / omega_k).
    iteration_cap = max(1, math.ceil(10.0 * math.sqrt(b.size)))
    for iters in range(iteration_cap + 1):
        qx = _apply_q_arr(x, grid)
        # r = b - (qx + dt Gamma_n x), in the bracket's fresh result.
        r = _gamma_arrays(m_n, x, grid)
        np.multiply(r, dt, out=r)
        np.add(qx, r, out=r)
        np.subtract(b, r, out=r)
        norm_r = math.sqrt(np.vdot(r, r))
        if (
            norm_r <= SCHEME3_RTOL * norm_b
            or not math.isfinite(norm_r)
            or iters == iteration_cap
        ):
            break
        z = _solve_q_stack_arr(r, grid)
        rho = np.vdot(z, r)
        if iters == 0:
            x_prev, x = x, x + z
        else:
            omega = 1.0 / (1.0 + (rho / rho_prev) / omega)
            x_prev, x = x, x_prev + omega * (z + x - x_prev)
        rho_prev = rho

    rel_res = norm_r / norm_b if norm_b > 0.0 else 0.0
    if not np.all(np.isfinite(x)) or not rel_res <= SCHEME3_RESIDUAL_CAP:
        raise NonConvergenceError(
            f"linear solve stalled at relative residual {rel_res:.3e} "
            f"(cap {SCHEME3_RESIDUAL_CAP:.1e}, {iters} iterations)",
            residual=rel_res,
        )
    return _finish(s_n, dt, qx, solved=(x, rel_res))


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
    both momenta are conserved to the stopping tolerance.  Without a
    ``FixedCount``, iteration stops when successive momentum iterates agree
    to ``CORRECTOR_RTOL`` relative; exceeding ``CORRECTOR_MAX_PASSES`` raises
    :class:`NonConvergenceError`, as does, in either mode, a pass whose
    iterate or increment norm is not finite.  The last pass's velocity comes
    from the checked Q-solve in ``_finish``, not from a bare solve.
    """
    grid = s_n.grid
    m_n = s_n.m.values
    u_n = s_n.u.values

    if s_nm1 is not None:
        _require_consecutive(s_nm1, s_n, dt)
        mp = _leapfrog(s_nm1, s_n, dt)
        up = _solve_q_stack_arr(mp, grid)
    else:
        mp, up = m_n, u_n

    fixed = cfg.corrector
    max_passes = CORRECTOR_MAX_PASSES if fixed is None else fixed.count
    increments = []
    rel = None
    quarter_dt = 0.25 * dt

    for passes in range(1, max_passes + 1):
        # M_c = M_n - (dt/4) Gamma(M_n + M_p, U_n + U_p), in the bracket's
        # fresh result.
        mc = _gamma_arrays(m_n + mp, u_n + up, grid)
        np.multiply(mc, quarter_dt, out=mc)
        np.subtract(m_n, mc, out=mc)
        norm_mc, delta = _corrector_norms(mc, mp, grid)
        if not (math.isfinite(norm_mc) and math.isfinite(delta)):
            # An overflowed iterate would read inf <= inf as converged.
            raise NonConvergenceError(
                f"corrector diverged: pass {passes} has a "
                "non-finite iterate or increment norm",
                residual=rel,
            )
        increments.append(delta)
        rel = delta / norm_mc if norm_mc > 0.0 else 0.0
        mp = mc
        if (delta <= CORRECTOR_RTOL * norm_mc) if fixed is None else (passes == max_passes):
            return _finish(s_n, dt, mp, tuple(increments))
        up = _solve_q_stack_arr(mp, grid)

    raise NonConvergenceError(
        f"corrector did not reach rtol={CORRECTOR_RTOL:.1e} within "
        f"{max_passes} passes (last relative increment {rel:.3e})",
        residual=rel,
    )


def step_rk4(s_n: State, dt: float) -> StepResult:
    """Classical four-stage Runge-Kutta step on dM/dt = -Gamma(M, Q^-1 M).

    Each stage recovers the stage velocity with a Helmholtz solve.  Kept as a
    non-conservative reference; it does not preserve the discrete energy.
    """
    grid = s_n.grid
    m = s_n.m.values

    # The stages hold Gamma, the negated slope, and the updates subtract
    # it.  IEEE defines x - y as x + (-y) and negation is exact, so these
    # are the bits of adding the slope, up to the sign of an exact zero.
    def stage(k: np.ndarray, h: float) -> np.ndarray:
        """Gamma at m - h k, whose momentum is formed in one new array."""
        m_stage = np.multiply(k, h)
        np.subtract(m, m_stage, out=m_stage)
        return _gamma_arrays(m_stage, _solve_q_stack_arr(m_stage, grid), grid)

    k1 = _gamma_arrays(m, s_n.u.values, grid)
    k2 = stage(k1, 0.5 * dt)
    k3 = stage(k2, 0.5 * dt)
    k4 = stage(k3, dt)

    # m - (dt/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in place.
    np.multiply(k2, 2.0, out=k2)
    np.add(k1, k2, out=k2)
    np.multiply(k3, 2.0, out=k3)
    np.add(k2, k3, out=k3)
    m_new = np.add(k3, k4, out=k4)
    np.multiply(m_new, dt / 6.0, out=m_new)
    np.subtract(m, m_new, out=m_new)
    return _finish(s_n, dt, m_new)


def _bootstrap_result(s_0: State, dt: float, cfg: SchemeConfig) -> StepResult:
    if cfg.bootstrap is BootstrapKind.RK4:
        return step_rk4(s_0, dt)
    return step_scheme1_pc(None, s_0, dt, replace(cfg, corrector=None))


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


def step_count(t0: float, t_final: float, dt: float) -> int:
    """The whole number of steps of size ``dt`` from ``t0`` to ``t_final``;
    ValueError unless (t_final - t0)/dt is within 1e-9 of one."""
    if not t_final > t0:
        raise ValueError("t_final must exceed the initial time")
    ratio = (t_final - t0) / dt
    if not math.isfinite(ratio):
        raise ValueError(f"(t_final - t0)/dt = {ratio} is not a finite step count")
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
) -> RunRecord:
    """Run the configured stepper from ``initial`` to ``t_final``.

    The first step of a two-level scheme is ``cfg.bootstrap``.  ``observer``
    is invoked with every :class:`StepResult`; ``snapshot_every`` > 0 stores
    the velocity every that many steps (step 0 included).  Stepper failures
    abort with the step index in the message and in ``exc.step``.
    """
    dt = cfg.dt
    n_steps = step_count(initial.t, t_final, dt)
    multistep = cfg.kind is not SchemeKind.RK4

    # Built per call, not at import, so that a stepper or energy replaced on
    # this module (by a tracer or a test) is the one that runs.
    def pointwise_energy(prev: State, cur: State) -> float:
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
    }[cfg.kind]

    record = RunRecord()

    def add_row(step: int, s: State, energy: float, iters: int, wall: float):
        record.series.append(SeriesRow(step, s.t, energy, *linear_momenta(s), iters, wall))
        if snapshot_every > 0 and step % snapshot_every == 0:
            record.snapshots.append((s.t, s.u))

    prev: Optional[State] = None
    cur = initial
    try:
        for step in range(1, n_steps + 1):
            t_start = time.perf_counter()
            if prev is None and multistep:
                result = _bootstrap_result(cur, dt, cfg)
            else:
                result = advance(prev, cur)
            wall = time.perf_counter() - t_start

            prev, cur = cur, result.state
            energy = scheme_energy(prev, cur)
            if step == 1:
                # A two-level energy needs the bootstrapped level, so row 0
                # repeats step 1's; rk4's row 0 holds the initial energy.
                energy_0 = energy if multistep else energy_scheme1(prev)
                add_row(0, prev, energy_0, 0, 0.0)
            add_row(step, cur, energy, result.corrector_iters, wall)
            if observer is not None:
                observer(result)
    except NumericalFailureError as exc:
        raise type(exc)(
            f"{exc} (while computing step {step})",
            residual=exc.residual,
            step=step,
        ) from exc

    record.states_tail = (prev, cur)
    return record

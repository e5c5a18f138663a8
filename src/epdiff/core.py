"""Transport bracket, discrete energies, and consistent velocity/momentum states.

The central object is the bilinear bracket ``gamma_apply(m, v)`` whose
skew-symmetry in the grid inner product drives every conservation property of
the time steppers.  Evaluated at time-averaged arguments it realizes the
midpoint-implicit scheme; evaluated at the current state it realizes the
explicit leapfrog schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    FieldPair,
    GridSpec,
    _check_same_grid,
    _plan,
    apply_q,
    inner,
    norm,
    solve_q,
)

__all__ = [
    "State",
    "gamma_apply",
    "energy_scheme1",
    "energy_half_scheme2",
    "energy_half_scheme3",
    "linear_momenta",
]


@dataclass(frozen=True)
class State:
    """A consistent (velocity, momentum) pair at one instant.

    The momentum is tied to the velocity by m_i = Q u_i.  Build states through
    :meth:`from_velocity` (applies Q, cheap) or :meth:`from_momentum` (solves
    Q u = m); the direct constructor is for steppers that already carry both
    fields.
    """

    u: FieldPair
    m: FieldPair
    t: float

    def __post_init__(self):
        _check_same_grid(self.u, self.m)
        object.__setattr__(self, "t", float(self.t))

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    @classmethod
    def from_velocity(cls, u: FieldPair, t: float = 0.0) -> "State":
        return cls(u=u, m=apply_q(u), t=t)

    @classmethod
    def from_momentum(cls, m: FieldPair, t: float = 0.0) -> "State":
        return cls(u=solve_q(m), m=m, t=t)

    def momentum_defect(self) -> float:
        """Relative residual ||Q u - m|| / ||m|| (0 for the zero state)."""
        nm = norm(self.m)
        if nm == 0.0:
            return norm(apply_q(self.u))
        return norm(apply_q(self.u) - self.m) / nm

    def negated(self, t: float) -> "State":
        """The time-reversed image (-u, -m) restamped at time t."""
        return State(u=-self.u, m=-self.m, t=t)


def _gamma_arrays(m: np.ndarray, v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The bracket of (2, J, K) momentum and velocity stacks, as one new stack.

    The eight centered differences are taken as four stencil passes over
    (2, J, K) stacks written into the two stacks of the plan's work array,
    and the terms are summed left to right, bit for bit as term by term
    with d1x/d1y:

        c1 = m1*d1x(v1) + m2*d1x(v2) + d1x(m1*v1) + d1y(m1*v2)
        c2 = m1*d1y(v1) + m2*d1y(v2) + d1x(m2*v1) + d1y(m2*v2)

    Each pass is the three calls of ``grid._pass_indices`` followed by its
    scale, on operands the plan built once: only the views into ``m`` and
    ``v`` are taken per call.  The products m*v_c go one layer per call, as
    a call that broadcasts v_c over both layers of m allocates an iterator
    buffer of up to 64 KiB.  On a split plan, each component is one
    :func:`_gamma_component` on its own thread.
    """
    plan = _plan(grid, m.shape)
    if plan.split is not None:
        out = np.empty(m.shape)
        plan.split(_gamma_component, m, v, out, grid)
        return out
    diff, work = plan.pair0, plan.pair1
    work1, work2 = plan.work_layers
    m1, m2 = m[0], m[1]
    flat = v.ravel()
    out = np.empty(m.shape)
    # Direction c (x, then y) gives component c its m1*dc(v1) + m2*dc(v2),
    # and then adds dc(m*v_c) to both components.
    for c, (axis, scale, ((next_, prev, dst), edges), _) in enumerate(plan.bracket):
        np.subtract(flat[next_], flat[prev], out=dst)
        edge_src = flat if axis == -1 else v
        for next_, prev, dst in edges:
            np.subtract(edge_src[next_], edge_src[prev], out=dst)
        np.multiply(diff, scale, out=diff)
        np.multiply(m, diff, out=work)
        np.add(work1, work2, out=out[c])
    for c, (_, scale, _, calls) in enumerate(plan.bracket):
        v_c = v[c]
        np.multiply(m1, v_c, out=work1)
        np.multiply(m2, v_c, out=work2)
        for next_, prev, dst in calls:
            np.subtract(next_, prev, out=dst)
        np.multiply(diff, scale, out=diff)
        np.add(out, diff, out=out)
    return out


def _gamma_component(c: int, m: np.ndarray, v: np.ndarray, out: np.ndarray, grid: GridSpec):
    """Component ``c`` of the bracket into ``out[c]``, on the thread's
    (J, K) plan, in the stacked kernel's order: m1*dc(v1) + m2*dc(v2), then
    + d1x(m_c*v1), then + d1y(m_c*v2)."""
    plan = _plan(grid, grid.shape)
    diff, work = plan.pair0, plan.pair1
    out_c = out[c]
    axis, scale, ((next_, prev, dst), edges), _ = plan.bracket[c]
    for layer in (0, 1):
        flat = v[layer].ravel()
        np.subtract(flat[next_], flat[prev], out=dst)
        edge_src = flat if axis == -1 else v[layer]
        for n, p, d in edges:
            np.subtract(edge_src[n], edge_src[p], out=d)
        np.multiply(diff, scale, out=diff)
        np.multiply(m[layer], diff, out=work if layer else out_c)
    np.add(out_c, work, out=out_c)
    m_c = m[c]
    for (_, scale, _, calls), v_d in zip(plan.bracket, v):
        np.multiply(m_c, v_d, out=work)
        for n, p, d in calls:
            np.subtract(n, p, out=d)
        np.multiply(diff, scale, out=diff)
        np.add(out_c, diff, out=out_c)


def gamma_apply(m: FieldPair, v: FieldPair) -> FieldPair:
    """The discrete transport bracket, skew-symmetric in v for fixed m.

    Component 1 is m1*d1x(v1) + m2*d1x(v2) + d1x(m1*v1) + d1y(m1*v2) and
    component 2 is m1*d1y(v1) + m2*d1y(v2) + d1x(m2*v1) + d1y(m2*v2), with *
    the Hadamard product.  Bilinear in (m, v).
    """
    _check_same_grid(m, v)
    return FieldPair._wrap(m.grid, _gamma_arrays(m.values, v.values, m.grid))


def energy_scheme1(s: State) -> float:
    """Pointwise discrete energy sum((m1 u1 + m2 u2)/2) dx dy."""
    return 0.5 * inner(s.m, s.u)


def _two_level_energy(a: FieldPair, b: FieldPair, c: FieldPair, d: FieldPair) -> float:
    """(<a, b> + <c, d>) / 4, the grid inner products of two pairs summed
    component 1 of both first: the two products fill the plan's two-stack
    work array, and one reduction sums all four layers (two per thread on a
    split plan)."""
    _check_same_grid(a, c)
    grid = a.grid
    plan = _plan(grid, a.values.shape)
    if plan.split is not None:
        (ab1, cd1), (ab2, cd2) = plan.split(
            _product_sums, a.values, b.values, c.values, d.values, grid
        )
    else:
        np.multiply(a.values, b.values, out=plan.pair0)
        np.multiply(c.values, d.values, out=plan.pair1)
        np.add.reduce(plan.pair, axis=(-2, -1), out=plan.sums)
        (ab1, ab2), (cd1, cd2) = plan.sums.tolist()
    area = plan.area
    return 0.25 * (ab1 * area + cd1 * area + ab2 * area + cd2 * area)


def _product_sums(i: int, a, b, c, d, grid: GridSpec) -> list[float]:
    """[sum(a*b), sum(c*d)] over layer ``i`` of four (2, J, K) stacks, on
    the thread's (J, K) plan."""
    plan = _plan(grid, grid.shape)
    np.multiply(a[i], b[i], out=plan.pair0)
    np.multiply(c[i], d[i], out=plan.pair1)
    np.add.reduce(plan.pair, axis=(-2, -1), out=plan.sums)
    return plan.sums.tolist()


# A diverging iterate may square past the largest float.  Its norm is then
# inf, which the corrector reports as a failure; numpy's overflow warning
# would only repeat it.
@np.errstate(over="ignore")
def _corrector_norms(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> tuple[float, float]:
    """(||a||, ||a - b||) of two (2, J, K) stacks, a corrector iterate and
    the one before it, from one reduction: the squares of ``a`` and of
    ``a - b`` fill the plan's two-stack work array.  Each norm adds its two
    layer sums of squares, as ``np.sum(x * x, axis=(-2, -1)).sum()`` does."""
    plan = _plan(grid, a.shape)
    if plan.split is not None:
        (a1, d1), (a2, d2) = plan.square_sums(a, b, grid)
    else:
        np.multiply(a, a, out=plan.pair0)
        increment = np.subtract(a, b, out=plan.pair1)
        np.multiply(increment, increment, out=increment)
        np.add.reduce(plan.pair, axis=(-2, -1), out=plan.sums)
        (a1, a2), (d1, d2) = plan.sums.tolist()
    area = plan.area
    return math.sqrt((a1 + a2) * area), math.sqrt((d1 + d2) * area)


def energy_half_scheme2(s_n: State, s_np1: State) -> float:
    """Cross-averaged half-step energy (new momentum against old velocity
    and vice versa, averaged over the four products)."""
    return _two_level_energy(s_np1.m, s_n.u, s_n.m, s_np1.u)


def energy_half_scheme3(s_n: State, s_np1: State) -> float:
    """Same-time products averaged across the two levels."""
    return _two_level_energy(s_np1.m, s_np1.u, s_n.m, s_n.u)


def linear_momenta(s: State) -> tuple[float, float]:
    """(sum(u1) dx dy, sum(u2) dx dy)."""
    mx, my = np.add.reduce(s.u.values, axis=(-2, -1)).tolist()
    area = s.grid.cell_area
    return mx * area, my * area

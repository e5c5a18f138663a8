"""Transport bracket, discrete energies, and consistent velocity/momentum states.

The central object is the bilinear bracket ``gamma_apply(m, v)`` whose
skew-symmetry in the grid inner product drives every conservation property of
the time steppers.  Evaluated at time-averaged arguments it realizes the
midpoint-implicit scheme; evaluated at the current state it realizes the
explicit leapfrog schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    FieldPair,
    GridSpec,
    _check_same_grid,
    _d1_arr,
    _layer_inners,
    apply_q,
    inner,
    norm,
    solve_q,
)

__all__ = [
    "State",
    "gamma_apply",
    "dvd_scheme1",
    "dvd_scheme2",
    "dvd_scheme3",
    "semi_discrete_rhs",
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
    """The bracket of (2, J, K) momentum and velocity stacks, as one stack.

    The eight centered differences are taken as two stencil passes over
    stacked (4, J, K) blocks, which is ~3x cheaper than eight separate
    stencils; elementwise this is identical to applying d1x/d1y term by term:

        c1 = m1*d1x(v1) + m2*d1x(v2) + d1x(m1*v1) + d1y(m1*v2)
        c2 = m1*d1y(v1) + m2*d1y(v2) + d1x(m2*v1) + d1y(m2*v2)
    """
    # Layer by layer: the broadcast np.concatenate([v, m * v1]) has the same
    # bits but made an RK4 step at 256x256 about 10% slower.
    m1, m2 = m
    v1, v2 = v
    dxs = _d1_arr(np.stack([v1, v2, m1 * v1, m2 * v1]), -1, grid.dx)
    dys = _d1_arr(np.stack([v1, v2, m1 * v2, m2 * v2]), -2, grid.dy)
    return np.stack(
        [
            m1 * dxs[0] + m2 * dxs[1] + dxs[2] + dys[2],
            m1 * dys[0] + m2 * dys[1] + dxs[3] + dys[3],
        ]
    )


def gamma_apply(m: FieldPair, v: FieldPair) -> FieldPair:
    """The discrete transport bracket, skew-symmetric in v for fixed m.

    Component 1 is m1*d1x(v1) + m2*d1x(v2) + d1x(m1*v1) + d1y(m1*v2) and
    component 2 is m1*d1y(v1) + m2*d1y(v2) + d1x(m2*v1) + d1y(m2*v2), with *
    the Hadamard product.  Bilinear in (m, v).
    """
    _check_same_grid(m, v)
    return FieldPair._wrap(m.grid, _gamma_arrays(m.values, v.values, m.grid))


def dvd_scheme1(u_n: FieldPair, u_np1: FieldPair) -> FieldPair:
    """Variational derivative of the pointwise energy: the two-level average."""
    _check_same_grid(u_n, u_np1)
    return 0.5 * (u_n + u_np1)


def dvd_scheme2(u_n: FieldPair) -> FieldPair:
    """Variational derivative of the cross-averaged energy: the middle level."""
    return u_n


def dvd_scheme3(u_nm1: FieldPair, u_np1: FieldPair) -> FieldPair:
    """Variational derivative of the same-time-averaged energy."""
    _check_same_grid(u_nm1, u_np1)
    return 0.5 * (u_nm1 + u_np1)


def semi_discrete_rhs(s: State) -> FieldPair:
    """dM/dt of the spatially discretized system: -gamma_apply(m, u)."""
    return -gamma_apply(s.m, s.u)


def energy_scheme1(s: State) -> float:
    """Pointwise discrete energy sum((m1 u1 + m2 u2)/2) dx dy."""
    return 0.5 * inner(s.m, s.u)


def energy_half_scheme2(s_n: State, s_np1: State) -> float:
    """Cross-averaged half-step energy (new momentum against old velocity
    and vice versa, averaged over the four products)."""
    new_old = _layer_inners(s_np1.m, s_n.u)
    old_new = _layer_inners(s_n.m, s_np1.u)
    return float(0.25 * (new_old[0] + old_new[0] + new_old[1] + old_new[1]))


def energy_half_scheme3(s_n: State, s_np1: State) -> float:
    """Same-time products averaged across the two levels."""
    new = _layer_inners(s_np1.m, s_np1.u)
    old = _layer_inners(s_n.m, s_n.u)
    return float(0.25 * (new[0] + old[0] + new[1] + old[1]))


def linear_momenta(s: State) -> tuple[float, float]:
    """(sum(u1) dx dy, sum(u2) dx dy)."""
    mx, my = np.sum(s.u.values, axis=(-2, -1)) * s.grid.cell_area
    return float(mx), float(my)

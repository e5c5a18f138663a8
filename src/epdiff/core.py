"""Transport bracket, discrete energies, and consistent velocity/momentum states.

The central object is the bilinear bracket ``_gamma_arrays(m, v, grid)`` of
two (2, J, K) stacks, whose skew-symmetry in the grid inner product drives
every conservation property of the time steppers.  Evaluated at
time-averaged arguments it realizes the midpoint-implicit scheme; evaluated
at the current state it realizes the explicit leapfrog schemes.
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
)

__all__ = [
    "State",
    "energy_scheme1",
    "energy_half_scheme2",
    "energy_half_scheme3",
    "linear_momenta",
]


@dataclass(frozen=True)
class State:
    """A consistent (velocity, momentum) pair at one instant.

    The momentum is tied to the velocity by m_i = Q u_i.  Build states through
    :meth:`from_velocity`, which applies Q; the direct constructor is for
    steppers that already carry both fields.
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
    """The discrete transport bracket of (2, J, K) momentum and velocity
    stacks, bilinear and skew-symmetric in v for fixed m, as one new stack,
    by the plan's ``bracket`` kernel, whose docstring spells out its terms."""
    return _plan(grid, m.shape).bracket(m, v)


def energy_scheme1(s: State) -> float:
    """Pointwise discrete energy sum((m1 u1 + m2 u2)/2) dx dy."""
    return 0.5 * inner(s.m, s.u)


def _two_level_energy(a: FieldPair, b: FieldPair, c: FieldPair, d: FieldPair) -> float:
    """(<a, b> + <c, d>) / 4, the grid inner products of two pairs summed
    component 1 of both first, from the plan's ``product_sums``."""
    _check_same_grid(a, c)
    grid = a.grid
    (ab1, ab2), (cd1, cd2) = _plan(grid, a.values.shape).product_sums(
        a.values, b.values, c.values, d.values
    )
    area = grid.cell_area
    return 0.25 * (ab1 * area + cd1 * area + ab2 * area + cd2 * area)


# A diverging iterate may square past the largest float.  Its norm is then
# inf, which the corrector reports as a failure; numpy's overflow warning
# would only repeat it.
@np.errstate(over="ignore")
def _corrector_norms(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> tuple[float, float]:
    """(||a||, ||a - b||) of two (2, J, K) stacks, a corrector iterate and
    the one before it, from the plan's ``square_sums``.  Each norm adds its
    two layer sums of squares, as ``np.sum(x * x, axis=(-2, -1)).sum()``
    does."""
    (a1, a2), (d1, d2) = _plan(grid, a.shape).square_sums(a, b)
    area = grid.cell_area
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

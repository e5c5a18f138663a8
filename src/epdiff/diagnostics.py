"""Invariant time series, error norms, reversibility and convergence protocols."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .core import State
from .grid import FieldPair, GridSpec, norm

if TYPE_CHECKING:  # pragma: no cover
    from .steppers import SchemeConfig

__all__ = [
    "SeriesRow",
    "RunRecord",
    "invariant_stats",
    "relative_l2_error",
    "reversibility_test",
    "convergence_study",
    "fit_loglog_slope",
]


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
    """Time series of invariants plus optional snapshots from one integration.

    The energy column holds the scheme's own discrete energy: the pointwise
    energy of the current state for one-step schemes, and the half-step energy
    of the (previous, current) pair for the two-step schemes.  For the latter
    the step-0 row repeats the first available half-step value, which is also
    the baseline the conservation theory compares against, so the total
    variation and sup deviation of the column are unaffected.
    """

    scheme: str
    grid: GridSpec
    dt: float
    series: list[SeriesRow] = field(default_factory=list)
    snapshots: list[tuple[float, FieldPair]] = field(default_factory=list)
    # The last two states; used to seed reversals.
    states_tail: tuple[State, ...] = ()

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.series])

    def invariant_summary(self) -> dict:
        out = {}
        for name in ("energy", "momentum_x", "momentum_y"):
            tv, sup = invariant_stats(self.column(name))
            out[name] = {"total_variation": tv, "sup_deviation": sup}
        return out


def invariant_stats(series: Sequence[float]) -> tuple[float, float]:
    """(total variation, sup deviation from the first entry) of a series."""
    s = np.asarray(series, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("invariant series must be a non-empty 1D sequence")
    total_variation = float(np.sum(np.abs(np.diff(s)))) if s.size > 1 else 0.0
    sup_deviation = float(np.max(np.abs(s - s[0])))
    return total_variation, sup_deviation


def relative_l2_error(a: FieldPair, b: FieldPair) -> float:
    """||a - b|| / ||b|| in the two-component grid norm."""
    nb = norm(b)
    if nb == 0.0:
        raise ValueError("relative error against a zero reference is undefined")
    return norm(a - b) / nb


def reversibility_test(initial: State, cfg: "SchemeConfig", t_final: float) -> float:
    """Integrate forward, flip the sign of the final state, integrate the
    same span again, flip back, and return the relative miss against the
    initial velocity.

    The reversed run is started fresh from the negated final state (the
    two-level schemes re-bootstrap), so the turnaround injects the scheme's
    own one-step error.  Seeding the reversed run with the negated final
    *pair* instead would make the two-level stencils retrace the forward
    trajectory identically up to rounding (their defining relations are
    invariant under swapping the outer levels and negating both fields and
    dt), which measures nothing but accumulated round-off; the fresh restart
    is what makes the returned error scale with dt.
    """
    from .steppers import integrate

    fwd = integrate(initial, cfg, t_final)
    span = t_final - initial.t
    back = integrate(fwd.states_tail[-1].negated(t=0.0), cfg, span)
    returned = back.states_tail[-1].negated(t=initial.t)
    return relative_l2_error(returned.u, initial.u)


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    pts = [(h, e) for h, e in points if e > 0.0]
    if len(pts) < 2:
        raise ValueError("need at least two points with positive error to fit a slope")
    h = np.log([p[0] for p in pts])
    e = np.log([p[1] for p in pts])
    return float(np.polyfit(h, e, 1)[0])


def convergence_study(
    profile: Callable[[GridSpec], State],
    cfg_template: "SchemeConfig",
    grid_sizes: Sequence[int],
    reference_size: int,
    t_final: float,
    alpha: float,
) -> list[tuple[float, float]]:
    """Self-convergence against a fine-grid reference with dt = dx = dy.

    Each level n runs the same profile on an n-by-n grid to ``t_final`` with
    dt = 2/n; the reference solution is restricted to the coarse grid by
    index sampling (grids must be nested: every size has to divide the
    reference size).  Returns (h, relative L2 error) per level.
    """
    from .steppers import integrate

    sizes = list(grid_sizes)
    if not sizes:
        raise ValueError("no grid sizes given")
    for n in sizes:
        if n <= 0 or reference_size % n != 0:
            raise ValueError(
                f"grid size {n} does not nest into reference {reference_size}"
            )

    def run(n: int) -> State:
        g = GridSpec(n, n, alpha)
        cfg = replace(cfg_template, dt=g.dx)
        rec = integrate(profile(g), cfg, t_final)
        return rec.states_tail[-1]

    ref = run(reference_size)
    results = []
    for n in sizes:
        sol = ref if n == reference_size else run(n)
        stride = reference_size // n
        g = sol.grid
        restricted = FieldPair.from_arrays(g, *ref.u.values[:, ::stride, ::stride])
        if norm(restricted) == 0.0:
            raise ValueError("restricted reference solution vanishes")
        # The reference level compares ref with itself: exactly 0.0.
        results.append((g.dx, relative_l2_error(sol.u, restricted)))
    return results

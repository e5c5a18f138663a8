"""Initial conditions: the smooth sine benchmark and near-singular wave fronts.

Wave fronts have constant speed along a front curve (vertical segments or
circular arcs) with an exponential cross-section exp(-d/sigma) in the normal
direction, multiplied by a C-infinity bump that cuts the support off at
distance 4*sigma from the curve and tapers over a length sigma past the
curve's endpoints.  Velocity points along the front's outward normal.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from .core import State
from .grid import FieldPair, GridSpec

__all__ = [
    "FrontKind",
    "Segment",
    "Arc",
    "WaveFrontSpec",
    "default_spec",
    "sine_profile",
    "wavefront_profile",
]

# Support radius of the cross-section bump, in units of sigma.
CUTOFF_SIGMAS = 4.0


class FrontKind(str, Enum):
    PLATE = "plate"
    PARALLEL = "parallel"
    STAR = "star"


@dataclass(frozen=True)
class Segment:
    """Vertical front segment at abscissa ``x`` spanning y in [y_lo, y_hi].

    Velocity points along +x (the outward normal, oriented right), with the
    profile's amplitude scaled by ``scale``.
    """

    x: float
    y_lo: float
    y_hi: float
    scale: float = 1.0


@dataclass(frozen=True)
class Arc:
    """Circular front arc centered at (cx, cy).

    The arc spans ``theta_span`` radians centered on direction
    ``theta_center``; velocity points radially away from the arc center.
    """

    cx: float
    cy: float
    radius: float
    theta_center: float
    theta_span: float


@dataclass(frozen=True)
class WaveFrontSpec:
    """Geometry plus cross-section parameters of one wave-front profile.

    ``sigma`` is the cross-section width, ``amplitude`` the peak speed on the
    curve.  ``gaussian_cross_section`` switches the cross-section from
    exp(-d/sigma) to exp(-(d/sigma)^2).
    """

    kind: FrontKind
    sigma: float
    amplitude: float = 1.0
    gaussian_cross_section: bool = False
    segments: tuple[Segment, ...] = ()
    arcs: tuple[Arc, ...] = ()

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0 < self.amplitude < math.inf:
            raise ValueError("amplitude must be positive and finite")
        if not self.segments and not self.arcs:
            raise ValueError("wave-front geometry is empty")
        for part in (*self.segments, *self.arcs):
            if not all(map(math.isfinite, astuple(part))):
                raise ValueError(f"wave-front geometry must be finite, got {part}")
        margin = 1.0 - CUTOFF_SIGMAS * self.sigma
        if margin <= 0:
            raise ValueError("cutoff radius 4*sigma does not fit inside the domain")
        for seg in self.segments:
            if seg.y_hi <= seg.y_lo:
                raise ValueError("segment has empty y-extent")
            if max(abs(seg.x), abs(seg.y_lo), abs(seg.y_hi)) >= margin:
                raise ValueError(
                    "front segment is closer than the cutoff radius to the boundary"
                )
        for arc in self.arcs:
            if arc.radius <= 0 or arc.theta_span <= 0:
                raise ValueError("arc radius and span must be positive")
            reach = max(abs(arc.cx), abs(arc.cy)) + arc.radius
            if reach >= margin:
                raise ValueError(
                    "front arc is closer than the cutoff radius to the boundary"
                )

    @classmethod
    def plate(
        cls,
        sigma: float = 0.1,
        amplitude: float = 1.0,
        x: float = -0.3,
        y_half: float = 0.4,
        gaussian_cross_section: bool = False,
    ) -> "WaveFrontSpec":
        """One vertical segment moving right."""
        return cls(
            kind=FrontKind.PLATE,
            sigma=sigma,
            amplitude=amplitude,
            gaussian_cross_section=gaussian_cross_section,
            segments=(Segment(x, -y_half, y_half),),
        )

    @classmethod
    def parallel(
        cls,
        sigma: float = 0.1,
        amplitude: float = 1.0,
        y_half: float = 0.4,
        gaussian_cross_section: bool = False,
    ) -> "WaveFrontSpec":
        """Two vertical segments, at x = -0.5 and x = -0.1, moving right; the
        left one twice as strong."""
        return cls(
            kind=FrontKind.PARALLEL,
            sigma=sigma,
            amplitude=amplitude,
            gaussian_cross_section=gaussian_cross_section,
            segments=(
                Segment(-0.5, -y_half, y_half, scale=2.0),
                Segment(-0.1, -y_half, y_half, scale=1.0),
            ),
        )

    @classmethod
    def star(
        cls,
        sigma: float = 0.05,
        amplitude: float = 1.0,
        arc_radius: float = 0.25,
        ring_radius: float = 0.35,
        gaussian_cross_section: bool = False,
    ) -> "WaveFrontSpec":
        """Three 120-degree arcs placed on the ring at 90, 210 and 330
        degrees, whose outward normals circulate clockwise (each arc bulges a
        quarter turn clockwise of its position on the ring, so the fragments
        chase each other)."""
        arcs = []
        for i in range(3):
            phi = math.radians(90.0 + i * 120.0)
            arcs.append(
                Arc(
                    cx=ring_radius * math.cos(phi),
                    cy=ring_radius * math.sin(phi),
                    radius=arc_radius,
                    theta_center=phi + math.radians(-90.0),
                    theta_span=math.radians(120.0),
                )
            )
        return cls(
            kind=FrontKind.STAR,
            sigma=sigma,
            amplitude=amplitude,
            gaussian_cross_section=gaussian_cross_section,
            arcs=tuple(arcs),
        )


def default_spec(kind: FrontKind, sigma: float | None = None, **kwargs) -> WaveFrontSpec:
    """Default geometry for a front kind, optionally overriding sigma."""
    factory = {
        FrontKind.PLATE: WaveFrontSpec.plate,
        FrontKind.PARALLEL: WaveFrontSpec.parallel,
        FrontKind.STAR: WaveFrontSpec.star,
    }[kind]
    if sigma is not None:
        kwargs["sigma"] = sigma
    return factory(**kwargs)


def sine_profile(grid: GridSpec) -> State:
    """The long-run conservation benchmark: a y-independent sine wave.

    u1 = 0.5*((2 + pi^2) + sin(pi*x)), u2 = 0.  The vertical shift keeps the
    speed positive; the y-independence means the second component must stay
    zero for all time, which the conservation tests lean on.
    """
    row = 0.5 * ((2.0 + np.pi**2) + np.sin(np.pi * grid.x))
    u1 = np.tile(row, (grid.J, 1))
    u2 = np.zeros(grid.shape)
    return State.from_velocity(FieldPair.from_arrays(grid, u1, u2))


def _bump(r: np.ndarray, radius: float) -> np.ndarray:
    """C-infinity cutoff: exp(1 - 1/(1 - (r/R)^2)) inside r < R, 0 outside."""
    out = np.zeros_like(r)
    inside = r < radius
    q = (r[inside] / radius) ** 2
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - q))
    return out


def _cross_section(d: np.ndarray, spec: WaveFrontSpec) -> np.ndarray:
    if spec.gaussian_cross_section:
        return np.exp(-((d / spec.sigma) ** 2))
    return np.exp(-d / spec.sigma)


def wavefront_profile(spec: WaveFrontSpec, grid: GridSpec) -> State:
    """Sample a wave-front profile on the grid and lift it to a state.

    Speed at a point is amplitude * cross-section(d) * bump(d) * taper(s)
    with d the normal distance to the curve and s the arclength overshoot
    past the curve's ends; the direction is the curve's outward normal.
    Contributions of separate curves add.
    """
    X, Y = grid.meshgrid()
    u1 = np.zeros(grid.shape)
    u2 = np.zeros(grid.shape)
    cut = CUTOFF_SIGMAS * spec.sigma

    for seg in spec.segments:
        d = np.abs(X - seg.x)
        over = np.maximum(np.maximum(seg.y_lo - Y, Y - seg.y_hi), 0.0)
        speed = (
            (spec.amplitude * seg.scale)
            * _cross_section(d, spec)
            * _bump(d, cut)
            * _bump(over, spec.sigma)
        )
        u1 += speed

    for arc in spec.arcs:
        px = X - arc.cx
        py = Y - arc.cy
        r = np.hypot(px, py)
        d = np.abs(r - arc.radius)
        phi = np.arctan2(py, px)
        dev = np.abs(
            np.mod(phi - arc.theta_center + np.pi, 2.0 * np.pi) - np.pi
        )
        over = arc.radius * np.maximum(dev - 0.5 * arc.theta_span, 0.0)
        speed = (
            spec.amplitude
            * _cross_section(d, spec)
            * _bump(d, cut)
            * _bump(over, spec.sigma)
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            nx = np.where(r > 0.0, px / r, 0.0)
            ny = np.where(r > 0.0, py / r, 0.0)
        u1 += speed * nx
        u2 += speed * ny

    return State.from_velocity(FieldPair.from_arrays(grid, u1, u2))

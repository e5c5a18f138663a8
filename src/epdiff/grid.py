"""Periodic 2D grid geometry, scalar/vector fields, and discrete operators.

All fields live on a uniform K-by-J grid covering the square [-1, 1]^2 with
periodic wraparound in both directions.  Values are stored in a (J, K) array
indexed ``[j, k]`` with ``k`` the x-index and ``j`` the y-index, so the flat
row-major buffer runs with k fastest; a two-component field stores its
components as one (2, J, K) stack.

The module provides the centered/one-sided difference stencils, the 5-point
Laplacian, the grid inner product and norm, the Hadamard product, and the
screened-Laplacian operator ``Q = 1 - alpha^2 * Lap`` together with its
inverse (spectral, with a dense fallback for cross-validation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import GridMismatchError, NumericalFailureError

__all__ = [
    "GridSpec",
    "ScalarField",
    "FieldPair",
    "inner",
    "norm",
    "hadamard",
    "d1x",
    "d1y",
    "d2",
    "dplus_x",
    "dminus_x",
    "dplus_y",
    "dminus_y",
    "apply_q",
    "solve_q",
    "solve_q_dense",
    "QSOLVE_RTOL",
]

# Relative residual the Helmholtz solve must reach before it is accepted.
QSOLVE_RTOL = 1e-12

# Dense factorizations beyond this point count are refused (memory guard).
_DENSE_MAX_POINTS = 64 * 64


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a periodic K-by-J grid on [-1, 1]^2.

    Parameters
    ----------
    K, J : int
        Number of grid points in the x and y direction (at least 3 each).
    alpha : float
        Positive length scale of the screened Laplacian ``1 - alpha^2 Lap``.
    """

    K: int
    J: int
    alpha: float

    def __post_init__(self):
        if int(self.K) != self.K or int(self.J) != self.J:
            raise ValueError("grid sizes K, J must be integers")
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "J", int(self.J))
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.K < 3 or self.J < 3:
            raise ValueError(f"grid must be at least 3x3, got {self.K}x{self.J}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def dx(self) -> float:
        return 2.0 / self.K

    @property
    def dy(self) -> float:
        return 2.0 / self.J

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape (J, K) of fields on this grid."""
        return (self.J, self.K)

    @property
    def x(self) -> np.ndarray:
        """Cell coordinates x_k = -1 + k*dx, shape (K,)."""
        return -1.0 + np.arange(self.K) * self.dx

    @property
    def y(self) -> np.ndarray:
        """Cell coordinates y_j = -1 + j*dy, shape (J,)."""
        return -1.0 + np.arange(self.J) * self.dy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (X, Y), each of shape (J, K)."""
        return np.meshgrid(self.x, self.y, indexing="xy")


class _Field:
    """Values on one grid, stored read-only in an array of shape
    ``_LEAD + grid.shape``.  Construction rejects non-finite entries, so a
    blow-up inside a time stepper surfaces as :class:`NumericalFailureError`
    as soon as the offending field is wrapped.  All operators return new
    fields of the same type.
    """

    _LEAD: tuple[int, ...] = ()

    grid: GridSpec
    values: np.ndarray

    def __init__(self, grid: GridSpec, values: np.ndarray):
        # Takes ``values`` over without a copy; public constructors copy first.
        shape = self._LEAD + grid.shape
        if values.shape != shape:
            raise ValueError(
                f"field shape {values.shape} does not match grid shape {shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericalFailureError("field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _wrap(cls, grid: GridSpec, values: np.ndarray):
        """A field over a C-contiguous float64 array the package just
        computed and hands over (no copy)."""
        field = cls.__new__(cls)
        _Field.__init__(field, grid, values)
        return field

    @classmethod
    def zeros(cls, grid: GridSpec):
        return cls._wrap(grid, np.zeros(cls._LEAD + grid.shape))

    def __add__(self, other):
        _check_same_grid(self, other)
        return self._wrap(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return self._wrap(self.grid, self.values - other.values)

    def __mul__(self, c: float):
        return self._wrap(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(self.grid, -self.values)


class ScalarField(_Field):
    """One real scalar sampled on a periodic grid; ``values`` has shape (J, K)."""

    def __init__(self, grid: GridSpec, values):
        super().__init__(grid, np.array(values, dtype=np.float64, order="C"))

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls._wrap(grid, np.full(grid.shape, float(value)))


class FieldPair(_Field):
    """Two-component vector field (velocity or momentum) on one grid.

    ``values`` is one (2, J, K) stack, component 1 first; ``c1`` and ``c2``
    are :class:`ScalarField` views of its layers.
    """

    _LEAD = (2,)

    def __init__(self, c1: ScalarField, c2: ScalarField):
        if c1.grid != c2.grid:
            raise GridMismatchError("FieldPair components live on different grids")
        super().__init__(c1.grid, np.array([c1.values, c2.values]))

    @classmethod
    def from_arrays(cls, grid: GridSpec, a1: np.ndarray, a2: np.ndarray) -> "FieldPair":
        return cls._wrap(grid, np.array([a1, a2], dtype=np.float64))

    @property
    def c1(self) -> ScalarField:
        return ScalarField._wrap(self.grid, self.values[0])

    @property
    def c2(self) -> ScalarField:
        return ScalarField._wrap(self.grid, self.values[1])


def _check_same_grid(v, w):
    if type(v) is not type(w):
        raise TypeError(f"cannot combine {type(v).__name__} with {type(w).__name__}")
    if v.grid != w.grid:
        raise GridMismatchError(f"grid mismatch: {v.grid} vs {w.grid}")


def _layer_inners(v, w) -> np.ndarray:
    """sum(v*w)*dx*dy per (J, K) layer: a 0-d value for two ScalarFields,
    one value per component for two FieldPairs."""
    _check_same_grid(v, w)
    return np.sum(v.values * w.values, axis=(-2, -1)) * v.grid.cell_area


def inner(v, w) -> float:
    """Grid inner product sum(v*w)*dx*dy.

    Accepts two :class:`ScalarField` or two :class:`FieldPair` (in which case
    both components are summed).
    """
    return float(np.sum(_layer_inners(v, w)))


def norm(w) -> float:
    """Grid norm sqrt(inner(w, w)); for a pair, the hypot of the two
    component norms."""
    return float(np.hypot.reduce(np.sqrt(_layer_inners(w, w)), axis=None))


def hadamard(v: ScalarField, w: ScalarField) -> ScalarField:
    """Pointwise product (v*w)_{k,j} = v_{k,j} w_{k,j}."""
    _check_same_grid(v, w)
    return ScalarField._wrap(v.grid, v.values * w.values)


# ---------------------------------------------------------------------------
# Stencil kernels on raw arrays whose trailing axes are (J, K): the last axis
# is x (index k), the second-to-last is y (index j).  Leading axes, if any,
# are batch dimensions.

def _d1_arr(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(a, -1, axis) - np.roll(a, 1, axis)) * (0.5 / h)


def _dplus_arr(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(a, -1, axis) - a) * (1.0 / h)


def _dminus_arr(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (a - np.roll(a, 1, axis)) * (1.0 / h)


def _d2_arr(a: np.ndarray, dx: float, dy: float) -> np.ndarray:
    lap_x = (np.roll(a, -1, -1) + np.roll(a, 1, -1) - 2.0 * a) * (1.0 / dx**2)
    lap_y = (np.roll(a, -1, -2) + np.roll(a, 1, -2) - 2.0 * a) * (1.0 / dy**2)
    return lap_x + lap_y


def _apply_q_arr(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    return a - grid.alpha**2 * _d2_arr(a, grid.dx, grid.dy)


def d1x(f: ScalarField) -> ScalarField:
    """Centered first difference in x with periodic wraparound."""
    return ScalarField._wrap(f.grid, _d1_arr(f.values, -1, f.grid.dx))


def d1y(f: ScalarField) -> ScalarField:
    """Centered first difference in y with periodic wraparound."""
    return ScalarField._wrap(f.grid, _d1_arr(f.values, -2, f.grid.dy))


def d2(f: ScalarField) -> ScalarField:
    """5-point periodic Laplacian."""
    return ScalarField._wrap(f.grid, _d2_arr(f.values, f.grid.dx, f.grid.dy))


def dplus_x(f: ScalarField) -> ScalarField:
    return ScalarField._wrap(f.grid, _dplus_arr(f.values, -1, f.grid.dx))


def dminus_x(f: ScalarField) -> ScalarField:
    return ScalarField._wrap(f.grid, _dminus_arr(f.values, -1, f.grid.dx))


def dplus_y(f: ScalarField) -> ScalarField:
    return ScalarField._wrap(f.grid, _dplus_arr(f.values, -2, f.grid.dy))


def dminus_y(f: ScalarField) -> ScalarField:
    return ScalarField._wrap(f.grid, _dminus_arr(f.values, -2, f.grid.dy))


# ---------------------------------------------------------------------------
# Screened Laplacian Q = 1 - alpha^2 Lap and its inverse.

@lru_cache(maxsize=32)
def _helmholtz_symbol(K: int, J: int, alpha: float) -> np.ndarray:
    """Eigenvalues of Q in the rfft2 basis, shape (J, K//2 + 1).

    lambda_{k,j} = 1 + (4 a^2/dx^2) sin^2(pi k/K) + (4 a^2/dy^2) sin^2(pi j/J),
    all >= 1, so the pointwise divide is unconditionally safe.
    """
    dx = 2.0 / K
    dy = 2.0 / J
    sx = np.sin(np.pi * np.arange(K // 2 + 1) / K) ** 2
    sy = np.sin(np.pi * np.arange(J) / J) ** 2
    lam = 1.0 + (4.0 * alpha**2 / dx**2) * sx[None, :] + (4.0 * alpha**2 / dy**2) * sy[:, None]
    lam.setflags(write=False)
    return lam


def _solve_q_stack_arr(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral Q-solve of a (..., J, K) stack of fields in one pass.

    The y-mean is split off and solved with the 1D (k_y = 0) symbol so that
    input constant in y stays bitwise constant in y; the mixed-radix stages
    of a full 2D FFT would otherwise leak ~1e-16 of y-variation per solve,
    which accumulates over long runs.
    """
    lam = _helmholtz_symbol(grid.K, grid.J, grid.alpha)
    rows = a.mean(axis=-2)
    rest = a - rows[..., None, :]
    u_rows = scipy.fft.irfft(scipy.fft.rfft(rows, axis=-1) / lam[0], n=grid.K, axis=-1)
    u_rest = scipy.fft.irfft2(
        scipy.fft.rfft2(rest, axes=(-2, -1)) / lam, s=grid.shape, axes=(-2, -1)
    )
    return u_rows[..., None, :] + u_rest


def _solve_q_checked(a: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, float]:
    """Solve and verify: stacked input gives the worst per-layer residual.

    A momentum or residual whose norm is not finite (NaN or infinite
    entries, or entries too large to square) cannot be verified and is
    rejected without a residual.
    """
    u = _solve_q_stack_arr(a, grid)
    norm_m = np.sqrt(np.sum(a * a, axis=(-2, -1)))
    r = _apply_q_arr(u, grid) - a
    norm_r = np.sqrt(np.sum(r * r, axis=(-2, -1)))
    if not (np.all(np.isfinite(norm_m)) and np.all(np.isfinite(norm_r))):
        raise NumericalFailureError(
            "Helmholtz solve momentum or residual norm is not finite"
        )
    with np.errstate(invalid="ignore"):
        rel = float(np.max(np.where(norm_m > 0.0, norm_r / norm_m, 0.0)))
    if rel > QSOLVE_RTOL:
        raise NumericalFailureError(
            f"Helmholtz solve residual {rel:.3e} exceeds {QSOLVE_RTOL:.1e}",
            residual=rel,
        )
    return u, rel


def apply_q(u):
    """Apply Q = 1 - alpha^2 Lap to a :class:`ScalarField` or to both
    components of a :class:`FieldPair`."""
    return u._wrap(u.grid, _apply_q_arr(u.values, u.grid))


def solve_q(m):
    """Invert Q: return u with ||Q u - m|| <= 1e-12 ||m||.

    Q is diagonal in the discrete Fourier basis with eigenvalues >= 1, so the
    solve is a forward transform, a pointwise divide, and an inverse
    transform.  Works on a :class:`ScalarField` or componentwise on a
    :class:`FieldPair`.  Raises :class:`NumericalFailureError` (carrying the
    achieved residual) if the residual check fails.
    """
    u, _ = _solve_q_checked(m.values, m.grid)
    return m._wrap(m.grid, u)


def _circulant_shift(n: int, s: int) -> np.ndarray:
    return np.roll(np.eye(n), s, axis=1)


@lru_cache(maxsize=8)
def _dense_q_lu(K: int, J: int, alpha: float):
    if K * J > _DENSE_MAX_POINTS:
        raise ValueError(f"dense Q factorization refused for {K}x{J} grid")
    dx = 2.0 / K
    dy = 2.0 / J
    d2x = (_circulant_shift(K, 1) + _circulant_shift(K, -1) - 2.0 * np.eye(K)) / dx**2
    d2y = (_circulant_shift(J, 1) + _circulant_shift(J, -1) - 2.0 * np.eye(J)) / dy**2
    # Flattened index is j*K + k, so the x-stencil acts blockwise.
    lap = np.kron(np.eye(J), d2x) + np.kron(d2y, np.eye(K))
    q = np.eye(K * J) - alpha**2 * lap
    return scipy.linalg.lu_factor(q)


def solve_q_dense(m):
    """Invert Q through a dense LU factorization (small grids only).

    Exists to cross-validate the spectral solve; refuses grids above
    64x64 points.  The components of a pair are solved one by one, since a
    two-column solve rounds differently.
    """
    grid = m.grid
    lu = _dense_q_lu(grid.K, grid.J, grid.alpha)
    layers = m.values.reshape(-1, grid.K * grid.J)
    u = np.array([scipy.linalg.lu_solve(lu, b) for b in layers])
    return m._wrap(grid, u.reshape(m.values.shape))

"""Periodic 2D grid geometry, scalar/vector fields, and discrete operators.

All fields live on a uniform K-by-J grid covering the square [-1, 1]^2 with
periodic wraparound in both directions.  Values are stored in a (J, K) array
indexed ``[j, k]`` with ``k`` the x-index and ``j`` the y-index, so the flat
row-major buffer runs with k fastest; a two-component field stores its
components as one (2, J, K) stack.

The module provides the centered difference stencils, the 5-point
Laplacian, the grid inner product and norm, and the screened-Laplacian
operator ``Q = 1 - alpha^2 * Lap`` together with its spectral inverse.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import GridMismatchError, NumericalFailureError

__all__ = [
    "GridSpec",
    "ScalarField",
    "FieldPair",
    "inner",
    "norm",
    "d1x",
    "d1y",
    "d2",
    "apply_q",
    "solve_q",
    "QSOLVE_RTOL",
]

# Relative residual the Helmholtz solve must reach before it is accepted.
QSOLVE_RTOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a periodic K-by-J grid on [-1, 1]^2.

    Parameters
    ----------
    K, J : int
        Number of grid points in the x and y direction (at least 3 each).
    alpha : float
        Positive, finite length scale of the screened Laplacian ``1 - alpha^2 Lap``.
    """

    K: int
    J: int
    alpha: float

    def __post_init__(self):
        finite = math.isfinite(self.K) and math.isfinite(self.J)
        if not finite or int(self.K) != self.K or int(self.J) != self.J:
            raise ValueError(f"grid sizes K, J must be integers, got {self.K}, {self.J}")
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "J", int(self.J))
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.K < 3 or self.J < 3:
            raise ValueError(f"grid must be at least 3x3, got {self.K}x{self.J}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

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
        if not np.isfinite(values).all():
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
    if v.grid is not w.grid and v.grid != w.grid:
        raise GridMismatchError(f"grid mismatch: {v.grid} vs {w.grid}")


def _layer_inners(v, w) -> np.ndarray:
    """sum(v*w)*dx*dy per (J, K) layer: a 0-d value for two ScalarFields,
    one value per component for two FieldPairs."""
    _check_same_grid(v, w)
    # np.sum's arithmetic without its Python wrapper.
    return np.add.reduce(v.values * w.values, axis=(-2, -1)) * v.grid.cell_area


def inner(v, w) -> float:
    """Grid inner product sum(v*w)*dx*dy.

    Accepts two :class:`ScalarField` or two :class:`FieldPair` (in which case
    both components are summed).
    """
    return float(np.add.reduce(_layer_inners(v, w), axis=None))


def norm(w) -> float:
    """Grid norm sqrt(inner(w, w)); for a pair, the hypot of the two
    component norms."""
    return float(np.hypot.reduce(np.sqrt(_layer_inners(w, w)), axis=None))


# ---------------------------------------------------------------------------
# Stencil kernels on raw arrays whose trailing axes are (J, K): the last axis
# is x (index k), the second-to-last is y (index j).  Leading axes, if any,
# are batch dimensions.  The kernels allocate only the arrays they return;
# their temporaries live in the calling thread's :class:`_Plan` for the grid
# and the stack shape.  They update arrays in place through explicit ufunc
# calls with ``out``, which skip the slower operator protocol of ``a -= b``.

_THREAD = threading.local()


def _pass_indices(K: int) -> dict:
    """Per axis (-1 for x, -2 for y), the (out, next, prev) indices of the
    three calls of a stencil pass ``out[k] = op(a[k+1], a[k-1])``: the
    interior's, then the two edges'.

    The interior is one call on the flat buffers, a neighbour an entry (x)
    or a row of K entries (y) away; the first and last index along the
    axis, where that call reads across a row or layer boundary, are then
    overwritten from their wrapped neighbours: out[0] = op(a[1], a[-1]) and
    out[-1] = op(a[0], a[-2]).  Along x those are slices of the flat
    buffers with stride K, one entry per row; along y, the (..., K) rows of
    the arrays themselves.  Both edges in one call would iterate a
    (..., 2, n) view, which numpy copies through a buffer.
    """

    def col(k):
        return slice(k % K, None, K)

    def row(j):
        return (..., j, slice(None))

    return {
        -1: ((slice(1, -1), slice(2, None), slice(None, -2)),
             ((col(0), col(1), col(-1)), (col(-1), col(0), col(-2)))),
        -2: ((slice(K, -K), slice(2 * K, None), slice(None, -2 * K)),
             ((row(0), row(1), row(-1)), (row(-1), row(0), row(-2)))),
    }


def _periodic_pair(op, a: np.ndarray, axis: int, out: np.ndarray, plan: _Plan) -> np.ndarray:
    """out[k] = op(a[k+1], a[k-1]) along ``axis`` (-1 or -2), periodic, in
    the three calls of the plan's ``passes``; ``out`` is C-contiguous."""
    (mid, next_, prev), edges = plan.passes[axis]
    flat, res = a.ravel(), out.ravel()
    op(flat[next_], flat[prev], out=res[mid])
    src, dst = (flat, res) if axis == -1 else (a, out)
    for edge, next_, prev in edges:
        op(src[next_], src[prev], out=dst[edge])
    return out


def _d1_arr(a: np.ndarray, axis: int, plan: _Plan) -> np.ndarray:
    """Centered difference (a[k+1] - a[k-1]) * (0.5/h) along ``axis``, by
    ``a``'s plan, as a new array."""
    out = _periodic_pair(np.subtract, a, axis, np.empty(a.shape), plan)
    return np.multiply(out, 0.5 / (plan.dx if axis == -1 else plan.dy), out=out)


def _d2_arr(a: np.ndarray, plan: _Plan, out: np.ndarray | None = None) -> np.ndarray:
    """5-point Laplacian: ((a[k+1] + a[k-1]) - 2a) * (1/h^2), x then y, by
    ``a``'s plan, written into ``out`` (a new array if None)."""
    two_a = np.multiply(a, 2.0, out=plan.two_a)
    lap = _periodic_pair(np.add, a, -1, np.empty(a.shape) if out is None else out, plan)
    np.subtract(lap, two_a, out=lap)
    np.multiply(lap, 1.0 / plan.dx**2, out=lap)
    lap_y = _periodic_pair(np.add, a, -2, plan.lap_y, plan)
    np.subtract(lap_y, two_a, out=lap_y)
    np.multiply(lap_y, 1.0 / plan.dy**2, out=lap_y)
    return np.add(lap, lap_y, out=lap)


class _Plan:
    """What the kernels on one grid reuse for one (..., J, K) stack shape:
    the only kernel state a thread keeps.

    Built once per thread on first use and kept in the thread's store under
    ``(grid, shape)``, the full grid with alpha, so a kernel call issues its
    ufunc and FFT calls with little else.  It holds the grid's numbers, the
    stencil indices of :func:`_pass_indices` (``passes``), the Laplacian's
    two work arrays, a two-stack work array (the bracket's difference and
    product, the Q-solve check's two squares, the two products of a
    two-level energy, the corrector's iterate and increment), its per-layer
    sums, the bracket's stencil passes over that work array, and the
    Q-solve's buffers with their views: the (L*J + L, K) real rows, the
    mean-free part and the y-means in them, the spectrum, its mean-free
    rows and its float64 view, and the reciprocal symbol that multiplies
    that view.

    ``bracket`` holds the bracket's x and then y direction as (axis,
    0.5/h, velocity pass, work pass), two passes into ``pair0`` made of the
    calls of ``passes``.  The velocity pass is the interior call's (next,
    prev, out) and the two edge calls' (next, prev, out), with next and
    prev indices into the caller's velocity; the work pass is the three
    calls' (next, prev, out) views, reading ``pair1``.
    """

    __slots__ = (
        "dx", "dy", "area", "alpha2", "passes", "two_a", "lap_y", "bracket",
        "pair", "pair0", "pair1", "work_layers", "sums", "sums_rows",
        "J", "rfft", "real", "rest", "rows", "rows_b",
        "spec", "spec_rest", "spec_f", "recip", "scale", "inv_K",
    )

    def __init__(self, grid: GridSpec, shape: tuple[int, ...]):
        J, K = grid.shape
        lead = shape[:-2]
        n_rest = math.prod(shape[:-1])
        layers = n_rest // J
        self.dx, self.dy, self.area = grid.dx, grid.dy, grid.cell_area
        self.alpha2 = grid.alpha**2
        self.passes = passes = _pass_indices(K)
        self.two_a = np.empty(shape)
        self.lap_y = np.empty(shape)

        self.pair = np.empty((2,) + shape)
        self.pair0, self.pair1 = self.pair
        self.work_layers = tuple(self.pair1)
        self.sums = np.empty((2,) + lead)
        self.sums_rows = self.sums.reshape(2, -1)

        res, work = self.pair0.ravel(), self.pair1.ravel()
        bracket = []
        for axis, h in ((-1, self.dx), (-2, self.dy)):
            (mid, next_, prev), edges = passes[axis]
            src, dst = (work, res) if axis == -1 else (self.pair1, self.pair0)
            velocity_pass = (
                (next_, prev, res[mid]),
                tuple((n, p, dst[e]) for e, n, p in edges),
            )
            work_pass = ((work[next_], work[prev], res[mid]),) + tuple(
                (src[n], src[p], dst[e]) for e, n, p in edges
            )
            bracket.append((axis, 0.5 / h, velocity_pass, work_pass))
        self.bracket = tuple(bracket)

        self.J = J
        self.rfft = "rfft_n_even" if K % 2 == 0 else "rfft_n_odd"
        self.real = np.empty((n_rest + layers, K))
        self.rest = self.real[:n_rest].reshape(shape)
        self.rows = self.real[n_rest:].reshape(lead + (K,))
        self.rows_b = self.rows[..., None, :]
        self.spec = np.empty((n_rest + layers, K // 2 + 1), np.complex128)
        self.spec_rest = self.spec[:n_rest].reshape(lead + (J, K // 2 + 1))
        self.spec_f = self.spec.view(np.float64)
        self.recip = _helmholtz_symbol(K, J, grid.alpha, layers)
        self.scale = 1.0 / (J * K)
        self.inv_K = 1.0 / K


def _plan(grid: GridSpec, shape: tuple[int, ...]) -> _Plan:
    """The calling thread's :class:`_Plan` for ``grid`` and ``shape``, built
    on first use.  A thread whose plans belong to another grid shape (J, K)
    drops them first, so resident memory stays bounded."""
    try:
        return _THREAD.plans[grid, shape]
    except (AttributeError, KeyError):
        pass
    if getattr(_THREAD, "grid_shape", None) != grid.shape:
        _THREAD.grid_shape = grid.shape
        _THREAD.plans = {}
    plan = _THREAD.plans[grid, shape] = _Plan(grid, shape)
    return plan


def _apply_q_arr(
    a: np.ndarray, grid: GridSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """Q a = a - alpha^2 Lap a, written into ``out`` (a new array if None)."""
    plan = _plan(grid, a.shape)
    q = _d2_arr(a, plan, out)
    np.multiply(q, plan.alpha2, out=q)
    return np.subtract(a, q, out=q)


def d1x(f: ScalarField) -> ScalarField:
    """Centered first difference in x with periodic wraparound."""
    return ScalarField._wrap(f.grid, _d1_arr(f.values, -1, _plan(f.grid, f.grid.shape)))


def d1y(f: ScalarField) -> ScalarField:
    """Centered first difference in y with periodic wraparound."""
    return ScalarField._wrap(f.grid, _d1_arr(f.values, -2, _plan(f.grid, f.grid.shape)))


def d2(f: ScalarField) -> ScalarField:
    """5-point periodic Laplacian."""
    return ScalarField._wrap(f.grid, _d2_arr(f.values, _plan(f.grid, f.grid.shape)))


# ---------------------------------------------------------------------------
# Screened Laplacian Q = 1 - alpha^2 Lap and its inverse.

@lru_cache(maxsize=32)
def _helmholtz_symbol(K: int, J: int, alpha: float, layers: int) -> np.ndarray:
    """Reciprocal eigenvalues of Q in the rfft2 basis, laid out to multiply
    the float64 view of the spectrum of a ``layers``-layer Q-solve: shape
    (layers*J + layers, 2*(K//2 + 1)).

    lambda_{k,j} = 1 + (4 a^2/dx^2) sin^2(pi k/K) + (4 a^2/dy^2) sin^2(pi j/J),
    all >= 1, so every reciprocal is finite.  The (J, K//2 + 1) block of
    1/lambda repeats once per layer, and its k_y = 0 row, the symbol of the
    y-means, follows once per layer; each entry appears twice in a row, for
    the real and the imaginary part of its spectral entry.  numpy divides a
    complex number by c + 0j as a multiply by 1.0/c, so the product has the
    bits of the divide by the symbol, up to the sign of an exact zero.
    """
    dx = 2.0 / K
    dy = 2.0 / J
    sx = np.sin(np.pi * np.arange(K // 2 + 1) / K) ** 2
    sy = np.sin(np.pi * np.arange(J) / J) ** 2
    lam = 1.0 + (4.0 * alpha**2 / dx**2) * sx[None, :] + (4.0 * alpha**2 / dy**2) * sy[:, None]
    stack = np.concatenate((np.tile(lam, (layers, 1)), np.tile(lam[:1], (layers, 1))))
    recip = np.repeat(1.0 / stack, 2, axis=-1)
    recip.setflags(write=False)
    return recip


# The gufunc axes of a transform along y: the input's, none for the length
# argument, the output's.
_Y_AXES = [(-2,), (), (-2,)]


def _solve_q_stack_arr(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral Q-solve of a (..., J, K) stack of fields in one pass.

    The y-mean is split off and solved with the 1D (k_y = 0) symbol so that
    input constant in y stays bitwise constant in y; the mixed-radix stages
    of a full 2D FFT would otherwise leak ~1e-16 of y-variation per solve,
    which accumulates over long runs.

    The transforms are numpy's pocketfft in the order of a real 2D
    transform pair: rfft along x then fft along y, and back ifft along y
    then irfft along x.  Both inverse passes run unscaled (factor 1.0),
    and the result is scaled by 1/(J K) once at the end, which is where
    pocketfft's own 2D inverse (``scipy.fft.irfft2``) applies its single
    scale factor; scaling each pass by 1/J and 1/K would round
    differently.  So the bits are those of a solve through ``scipy.fft``'s
    ``rfft2`` and ``irfft2``.

    The y-means ride along as extra rows: the L*J rows of the mean-free
    part and the L means (L layers) sit in one (L*J + L, K) buffer, so one
    rfft and one irfft along x serve both, and only the y-passes are
    restricted to the mean-free rows.  The means are scaled by 1/K, the
    factor a default-norm 1D ``irfft`` applies.

    At 20 points a transform costs less than the numpy calls around it, so
    the solve makes as few as it can.  It calls pocketfft's gufuncs, the
    call each ``numpy.fft`` wrapper ends in, with the same arguments (the
    transform axis as ``axes``; the irfft length K from the shape of its
    output) but without the wrapper's argument handling, which takes close
    to half of a wrapped call at 20 points.  It divides the whole spectrum
    in one call, as a real multiply of its float64 view by the stacked
    reciprocal of ``_helmholtz_symbol``, which has the bits of numpy's
    complex divide up to the sign of an exact zero.  And every buffer,
    view and number it reuses comes from the thread's :class:`_Plan` for
    the grid and the stack shape, built on the first call; the gufuncs are
    looked up on each call.

    The returned array is the only one allocated.  Broadcasting operands
    go through plain assignment, since a broadcasting ufunc call allocates
    an iterator buffer of up to 64 KiB.
    """
    plan = _plan(grid, a.shape)
    fft = _pocketfft_umath
    rows, rest = plan.rows, plan.rest

    # np.mean's arithmetic without its Python wrapper.
    np.add.reduce(a, axis=-2, out=rows)
    np.true_divide(rows, plan.J, out=rows)
    rest[...] = plan.rows_b
    np.subtract(a, rest, out=rest)
    getattr(fft, plan.rfft)(plan.real, 1.0, out=plan.spec)
    fft.fft(plan.spec_rest, 1.0, axes=_Y_AXES, out=plan.spec_rest)
    np.multiply(plan.spec_f, plan.recip, out=plan.spec_f)
    fft.ifft(plan.spec_rest, 1.0, axes=_Y_AXES, out=plan.spec_rest)
    fft.irfft(plan.spec, 1.0, out=plan.real)
    u = np.multiply(rest, plan.scale, out=np.empty(a.shape))
    np.multiply(rows, plan.inv_K, out=rows)
    rest[...] = plan.rows_b
    return np.add(u, rest, out=u)


def _solve_q_checked(a: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, float]:
    """Solve and verify: stacked input gives the worst per-layer residual.

    The squares of the momentum and of the residual fill the two stacks of
    the plan's work array, so one reduction sums both.  A momentum or
    residual whose norm is not finite (NaN or infinite entries, or entries
    too large to square) cannot be verified and is rejected without a
    residual.
    """
    u = _solve_q_stack_arr(a, grid)
    plan = _plan(grid, a.shape)
    np.multiply(a, a, out=plan.pair0)
    r = _apply_q_arr(u, grid, plan.pair1)
    np.subtract(r, a, out=r)
    np.multiply(r, r, out=r)
    np.add.reduce(plan.pair, axis=(-2, -1), out=plan.sums)
    sq_m, sq_r = plan.sums_rows.tolist()
    rel = 0.0
    for nm, nr in zip(map(math.sqrt, sq_m), map(math.sqrt, sq_r)):
        if not (math.isfinite(nm) and math.isfinite(nr)):
            raise NumericalFailureError(
                "Helmholtz solve momentum or residual norm is not finite"
            )
        if nm > 0.0:
            rel = max(rel, nr / nm)
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


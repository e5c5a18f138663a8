"""Periodic 2D grid geometry, scalar/vector fields, and discrete operators.

All fields live on a uniform K-by-J grid covering the square [-1, 1]^2 with
periodic wraparound in both directions.  Values are stored in a (J, K) array
indexed ``[j, k]`` with ``k`` the x-index and ``j`` the y-index, so the flat
row-major buffer runs with k fastest; a two-component field stores its
components as one (2, J, K) stack.

The module provides the grid inner product and norm, the screened-Laplacian
operator ``Q = 1 - alpha^2 * Lap``, and the array kernels the steppers run:
the bracket's stencil passes, the 5-point Laplacian and Q's spectral inverse.
"""

from __future__ import annotations

import contextvars
import math
import os
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
    "apply_q",
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
        # Every kernel call looks its plan up by grid: hash the fields once,
        # as the dataclass's __hash__ would on each lookup.
        object.__setattr__(self, "_hash", hash((self.K, self.J, self.alpha)))
        # Read by the energies and momenta on every step: dx * dy, once.
        object.__setattr__(self, "cell_area", (2.0 / self.K) * (2.0 / self.J))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dx(self) -> float:
        return 2.0 / self.K

    @property
    def dy(self) -> float:
        return 2.0 / self.J

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
# they are methods of the calling thread's plan for the grid and the stack
# shape, which holds their temporaries.  They update arrays in
# place through explicit ufunc calls with ``out``, which skip the slower
# operator protocol of ``a -= b``.

_THREAD = threading.local()

# Points per layer from which a (2, J, K) stack splits.  Each numpy call of
# a split layer waits of the order of 10 us for the interpreter lock, so a
# split pays only once a layer's calls take longer: on a 2-core host, steps
# of scheme1, scheme2, scheme3 and rk4 ran 1.1 to 1.6 times as long split at
# 112^2 and 0.8 to 1.0 times at 128^2 (see CHANGES.md).
_SPLIT_POINTS = 128 * 128


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


class _Helper:
    """The one daemon thread that runs layer 0 of a :class:`_SplitPlan`'s
    kernel calls.

    ``helper(fn, *args)`` returns ``(fn(0, *args), fn(1, *args))``.  A
    caller that finds the helper idle hands it layer 0, runs layer 1 itself
    and waits for layer 0 before it returns or raises; one that finds it
    busy with another caller's layer runs both itself.  Layer 0 runs in a
    copy of the caller's context, so numpy's error state around the call
    holds for both layers.  A job may not call a name that a profiler can
    wrap: one traced span per stacked call, on the calling thread.
    """

    def __init__(self):
        self.idle = threading.Lock()
        self.go = threading.Lock()
        self.done = threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.job = self.result = None
        threading.Thread(target=self._serve, name="epdiff-layer-0", daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            context, fn, args = self.job
            try:
                self.result = context.run(fn, 0, *args), None
            except BaseException as exc:  # handed to the caller, which raises it
                self.result = None, exc
            self.done.release()

    def __call__(self, fn, *args):
        if not self.idle.acquire(blocking=False):
            return fn(0, *args), fn(1, *args)
        self.job = contextvars.copy_context(), fn, args
        self.go.release()
        try:
            second = fn(1, *args)
        finally:
            # Interrupted here, the helper stays marked busy for good.
            self.done.acquire()
            first, error = self.result
            self.job = self.result = None
            self.idle.release()
        if error is not None:
            raise error
        return first, second


_HELPER = None
_HELPER_START = threading.Lock()


def _forget_helper():
    """In a forked child, where the helper thread does not exist."""
    global _HELPER, _HELPER_START
    _HELPER, _HELPER_START = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # Windows has neither fork nor the hook
    os.register_at_fork(after_in_child=_forget_helper)


def _split(fn, *args):
    """``(fn(0, *args), fn(1, *args))`` through the helper, which the first
    call starts."""
    global _HELPER
    if _HELPER is None:
        with _HELPER_START:
            if _HELPER is None:
                _HELPER = _Helper()
    return _HELPER(fn, *args)


class _Plan:
    """The kernels on one grid for one (..., J, K) stack shape, as methods,
    and what they reuse: the only kernel state a thread keeps.

    Built once per thread on first use and kept in the thread's store under
    ``(grid, shape)``, the full grid with alpha, so a kernel call issues its
    ufunc and FFT calls with little else.  It holds the grid's numbers, the
    scalar operand of every such call, as the shared read-only 0-d arrays of
    :func:`_grid_numbers`: numpy converts a Python scalar operand to an
    array on each call, and takes a 0-d array as it is.  It holds the
    stencil indices of :func:`_pass_indices` (``passes``), the bracket's
    passes, the shared Helmholtz symbol ``recip``, and three buffers with
    their views: ``pair`` (two stacks, ``pair0`` and ``pair1``: the
    bracket's difference and product, the two squares or products that one
    reduction sums into ``sums``, and the Laplacian's 2a in ``pair0``), and
    the Q-solve's ``real``, whose ``rest`` view also takes the Laplacian's
    y pass.  The Q-solve's spectrum ``spec`` is a complex view of the start
    of ``pair``, which it fits on every grid of at least 3x3, since
    (J + 1)(K//2 + 1) <= J K.  They are shared on one rule: a thread runs
    one kernel of a plan at a time, no kernel uses ``spec`` and ``pair`` in
    one call, and the Laplacian never uses ``pair1``, which
    :meth:`residual_sums` fills with Q u.

    ``bracket_passes`` holds the bracket's x and then y direction as
    (axis, 0.5/h, velocity pass, work pass), two passes into ``pair0`` made
    of the calls of ``passes``.  The velocity pass is the interior call's
    (next, prev, out) and the two edge calls' (next, prev, out), with next
    and prev indices into the caller's velocity; the work pass is the three
    calls' (next, prev, out) views, reading ``pair1``.
    """

    __slots__ = (
        "half_dx", "half_dy", "two", "inv_dx2", "inv_dy2", "alpha2",
        "J", "scale", "inv_K", "one", "passes", "bracket_passes",
        "pair", "pair0", "pair1", "work_layers", "sums", "sums_rows",
        "rfft", "real", "rest", "rows", "rows_b",
        "spec", "spec_rest", "spec_f", "recip",
    )

    def __init__(self, grid: GridSpec, shape: tuple[int, ...]):
        J, K = grid.shape
        lead = shape[:-2]
        n_rest = math.prod(shape[:-1])
        layers = n_rest // J
        (self.half_dx, self.half_dy, self.two, self.inv_dx2, self.inv_dy2, self.alpha2,
         self.J, self.scale, self.inv_K, self.one) = _grid_numbers(K, J, grid.alpha)
        self.passes = passes = _pass_indices(K)

        self.pair = np.empty((2,) + shape)
        self.pair0, self.pair1 = self.pair
        self.work_layers = tuple(self.pair1)
        self.sums = np.empty((2,) + lead)
        self.sums_rows = self.sums.reshape(2, -1)

        res, work = self.pair0.ravel(), self.pair1.ravel()
        bracket = []
        for axis, half_h in ((-1, self.half_dx), (-2, self.half_dy)):
            (mid, next_, prev), edges = passes[axis]
            src, dst = (work, res) if axis == -1 else (self.pair1, self.pair0)
            velocity_pass = (
                (next_, prev, res[mid]),
                tuple((n, p, dst[e]) for e, n, p in edges),
            )
            work_pass = ((work[next_], work[prev], res[mid]),) + tuple(
                (src[n], src[p], dst[e]) for e, n, p in edges
            )
            bracket.append((axis, half_h, velocity_pass, work_pass))
        self.bracket_passes = tuple(bracket)

        self.rfft = "rfft_n_even" if K % 2 == 0 else "rfft_n_odd"
        self.real = np.empty((n_rest + layers, K))
        self.rest = self.real[:n_rest].reshape(shape)
        self.rows = self.real[n_rest:].reshape(lead + (K,))
        self.rows_b = self.rows[..., None, :]
        n_spec = (n_rest + layers) * (K // 2 + 1)
        spec = self.pair.reshape(-1).view(np.complex128)[:n_spec]
        self.spec = spec.reshape(n_rest + layers, K // 2 + 1)
        self.spec_rest = self.spec[:n_rest].reshape(lead + (J, K // 2 + 1))
        self.spec_f = self.spec.view(np.float64)
        self.recip = _helmholtz_symbol(K, J, grid.alpha, layers)

    def _pair(self, op, a: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        """out[k] = op(a[k+1], a[k-1]) along ``axis`` (-1 or -2), periodic, in
        the three calls of ``passes``; ``out`` is C-contiguous."""
        (mid, next_, prev), edges = self.passes[axis]
        flat, res = a.ravel(), out.ravel()
        op(flat[next_], flat[prev], res[mid])
        src, dst = (flat, res) if axis == -1 else (a, out)
        for edge, next_, prev in edges:
            op(src[next_], src[prev], dst[edge])
        return out

    def laplacian(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """5-point Laplacian: ((a[k+1] + a[k-1]) - 2a) * (1/h^2), x then y,
        written into ``out``, with 2a in ``pair0`` and the y pass in
        ``rest``."""
        two_a = np.multiply(a, self.two, self.pair0)
        lap = self._pair(np.add, a, -1, out)
        np.subtract(lap, two_a, lap)
        np.multiply(lap, self.inv_dx2, lap)
        lap_y = self._pair(np.add, a, -2, self.rest)
        np.subtract(lap_y, two_a, lap_y)
        np.multiply(lap_y, self.inv_dy2, lap_y)
        return np.add(lap, lap_y, lap)

    def apply_q(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Q a = a - alpha^2 Lap a, written into ``out``."""
        q = self.laplacian(a, out)
        np.multiply(q, self.alpha2, q)
        return np.subtract(a, q, q)

    def solve(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Spectral Q-solve of a stack of fields in one pass, written into
        ``out``.

        The y-mean is split off and solved with the 1D (k_y = 0) symbol so
        that input constant in y stays bitwise constant in y; the
        mixed-radix stages of a full 2D FFT would otherwise leak ~1e-16 of
        y-variation per solve, which accumulates over long runs.

        The transforms are numpy's pocketfft in the order of a real 2D
        transform pair: rfft along x then fft along y, and back ifft along
        y then irfft along x.  Both inverse passes run unscaled (factor
        1.0), and the result is scaled by 1/(J K) once at the end, which is
        where pocketfft's own 2D inverse (``scipy.fft.irfft2``) applies its
        single scale factor; scaling each pass by 1/J and 1/K would round
        differently.  So the bits are those of a solve through
        ``scipy.fft``'s ``rfft2`` and ``irfft2``.

        The y-means ride along as extra rows: the L*J rows of the mean-free
        part and the L means (L layers) sit in one (L*J + L, K) buffer, so
        one rfft and one irfft along x serve both, and only the y-passes
        are restricted to the mean-free rows.  The means are scaled by 1/K,
        the factor a default-norm 1D ``irfft`` applies.

        At 20 points a transform costs less than the numpy calls around it,
        so the solve makes as few as it can.  It calls pocketfft's gufuncs,
        the call each ``numpy.fft`` wrapper ends in, with the same
        arguments (the transform axis as ``axes``; the irfft length K from
        the shape of its output) but without the wrapper's argument
        handling, which takes close to half of a wrapped call at 20 points.
        It divides the whole spectrum in one call, as a real multiply of
        its float64 view by the stacked reciprocal of
        ``_helmholtz_symbol``, which has the bits of numpy's complex divide
        up to the sign of an exact zero.  Every buffer, view and number it
        reuses is the plan's; the gufuncs are looked up on each call.

        It allocates no array of the stack's size.  Broadcasting operands
        go through plain assignment, since a broadcasting ufunc call
        allocates an iterator buffer of up to 64 KiB.
        """
        fft = _pocketfft_umath
        rows, rest = self.rows, self.rest

        # np.mean's arithmetic without its Python wrapper.
        np.add.reduce(a, axis=-2, out=rows)
        np.true_divide(rows, self.J, rows)
        rest[...] = self.rows_b
        np.subtract(a, rest, rest)
        getattr(fft, self.rfft)(self.real, self.one, out=self.spec)
        fft.fft(self.spec_rest, self.one, axes=_Y_AXES, out=self.spec_rest)
        np.multiply(self.spec_f, self.recip, self.spec_f)
        fft.ifft(self.spec_rest, self.one, axes=_Y_AXES, out=self.spec_rest)
        fft.irfft(self.spec, self.one, out=self.real)
        u = np.multiply(rest, self.scale, out)
        np.multiply(rows, self.inv_K, rows)
        rest[...] = self.rows_b
        return np.add(u, rest, u)

    def square_sums(self, a: np.ndarray, b: np.ndarray) -> list[list[float]]:
        """[per-layer sum(a*a), per-layer sum((a - b)**2)], from one
        reduction over the two squares in the work array.  ``b`` may be
        ``pair1``."""
        d = np.subtract(a, b, self.pair1)
        return self.product_sums(a, a, d, d)

    def product_sums(self, a, b, c, d) -> list[list[float]]:
        """[per-layer sum(a*b), per-layer sum(c*d)], from one reduction
        over the two products in the work array."""
        np.multiply(a, b, self.pair0)
        np.multiply(c, d, self.pair1)
        np.add.reduce(self.pair, axis=(-2, -1), out=self.sums)
        return self.sums_rows.tolist()

    def residual_sums(self, a: np.ndarray, u: np.ndarray) -> list[list[float]]:
        """[per-layer sum(a*a), per-layer sum((a - Q u)**2)]: Q u goes into
        ``pair1``, and :meth:`square_sums` takes the squares."""
        return self.square_sums(a, self.apply_q(u, self.pair1))

    def bracket(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The bracket of (2, J, K) momentum and velocity stacks, as one new
        stack.

        The eight centered differences are taken as four stencil passes
        over (2, J, K) stacks written into the two stacks of the work
        array, and the terms are summed left to right, bit for bit as term
        by term with d1x/d1y:

            c1 = m1*d1x(v1) + m2*d1x(v2) + d1x(m1*v1) + d1y(m1*v2)
            c2 = m1*d1y(v1) + m2*d1y(v2) + d1x(m2*v1) + d1y(m2*v2)

        Each pass is the three calls of :func:`_pass_indices` followed by
        its scale, on operands built once in ``bracket_passes``: only the
        views into ``m`` and ``v`` are taken per call.  The products m*v_c
        go one layer per call, as a call that broadcasts v_c over both
        layers of m allocates an iterator buffer of up to 64 KiB.
        """
        diff, work = self.pair0, self.pair1
        work1, work2 = self.work_layers
        m1, m2 = m[0], m[1]
        flat = v.ravel()
        out = np.empty(m.shape)
        # Direction c (x, then y) gives component c its m1*dc(v1) + m2*dc(v2),
        # and then adds dc(m*v_c) to both components.
        for c, (axis, scale, ((next_, prev, dst), edges), _) in enumerate(self.bracket_passes):
            np.subtract(flat[next_], flat[prev], dst)
            edge_src = flat if axis == -1 else v
            for next_, prev, dst in edges:
                np.subtract(edge_src[next_], edge_src[prev], dst)
            np.multiply(diff, scale, diff)
            np.multiply(m, diff, work)
            np.add(work1, work2, out[c])
        for c, (_, scale, _, calls) in enumerate(self.bracket_passes):
            v_c = v[c]
            np.multiply(m1, v_c, work1)
            np.multiply(m2, v_c, work2)
            for next_, prev, dst in calls:
                np.subtract(next_, prev, dst)
            np.multiply(diff, scale, diff)
            np.add(out, diff, out)
        return out

    def bracket_component(self, c: int, m: np.ndarray, v: np.ndarray, out_c: np.ndarray):
        """Component ``c`` of the bracket of (2, J, K) stacks into
        ``out_c``, on a (J, K) plan, in :meth:`bracket`'s order:
        m1*dc(v1) + m2*dc(v2), then + d1x(m_c*v1), then + d1y(m_c*v2)."""
        diff, work = self.pair0, self.pair1
        axis, scale, ((next_, prev, dst), edges), _ = self.bracket_passes[c]
        for layer in (0, 1):
            flat = v[layer].ravel()
            np.subtract(flat[next_], flat[prev], dst)
            edge_src = flat if axis == -1 else v[layer]
            for n, p, d in edges:
                np.subtract(edge_src[n], edge_src[p], d)
            np.multiply(diff, scale, diff)
            np.multiply(m[layer], diff, work if layer else out_c)
        np.add(out_c, work, out_c)
        m_c = m[c]
        for (_, scale, _, calls), v_d in zip(self.bracket_passes, v):
            np.multiply(m_c, v_d, work)
            for n, p, d in calls:
                np.subtract(n, p, d)
            np.multiply(diff, scale, diff)
            np.add(out_c, diff, out_c)


class _SplitPlan:
    """The plan of a (2, J, K) stack of at least _SPLIT_POINTS points per
    layer: the kernel methods of :class:`_Plan`, each run at once on the
    stack's two layers through :func:`_split`, layer 0 on the helper
    thread and layer 1 on the calling thread, each by the same
    :class:`_Plan` method on its own thread's (J, K) plan.  The bracket
    splits by output component instead (:meth:`_Plan.bracket_component`).
    The results have the bits of the stacked call.

    It keeps no buffer, since each layer works in its thread's (J, K)
    plan, and has no stencil methods: no package path runs a stencil on a
    split stack.
    """

    __slots__ = ("grid",)

    def __init__(self, grid: GridSpec):
        self.grid = grid

    def _layer_job(self, i: int, method, stacks):
        """``method`` of the thread's (J, K) plan on layer ``i`` of each of
        ``stacks``: one thread's half of a kernel call."""
        return method(_plan(self.grid, self.grid.shape), *[s[i] for s in stacks])

    def _sums(self, method, *stacks) -> list[list[float]]:
        """``method``'s two lists of sums, each with layer 0's then layer
        1's sum."""
        first, second = _split(self._layer_job, method, stacks)
        return [x + y for x, y in zip(first, second)]

    def apply_q(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        _split(self._layer_job, _Plan.apply_q, (a, out))
        return out

    def solve(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        _split(self._layer_job, _Plan.solve, (a, out))
        return out

    def square_sums(self, a: np.ndarray, b: np.ndarray) -> list[list[float]]:
        return self._sums(_Plan.square_sums, a, b)

    def product_sums(self, a, b, c, d) -> list[list[float]]:
        return self._sums(_Plan.product_sums, a, b, c, d)

    def residual_sums(self, a: np.ndarray, u: np.ndarray) -> list[list[float]]:
        return self._sums(_Plan.residual_sums, a, u)

    def _component_job(self, c: int, m: np.ndarray, v: np.ndarray, out: np.ndarray):
        _plan(self.grid, self.grid.shape).bracket_component(c, m, v, out[c])

    def bracket(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty(m.shape)
        _split(self._component_job, m, v, out)
        return out


def _plan(grid: GridSpec, shape: tuple[int, ...]) -> _Plan | _SplitPlan:
    """The calling thread's plan for ``grid`` and ``shape``, built on first
    use: a :class:`_SplitPlan` for a (2, J, K) stack of at least
    _SPLIT_POINTS points per layer, else a :class:`_Plan`.  A thread whose
    plans belong to another grid shape (J, K) drops them first, so
    resident memory stays bounded."""
    try:
        return _THREAD.plans[grid, shape]
    except (AttributeError, KeyError):
        pass
    if getattr(_THREAD, "grid_shape", None) != grid.shape:
        _THREAD.grid_shape = grid.shape
        _THREAD.plans = {}
    split = shape[:-2] == (2,) and grid.J * grid.K >= _SPLIT_POINTS
    plan = _THREAD.plans[grid, shape] = _SplitPlan(grid) if split else _Plan(grid, shape)
    return plan


def _apply_q_arr(
    a: np.ndarray, grid: GridSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """Q a = a - alpha^2 Lap a, written into ``out`` (a new array if None)."""
    return _plan(grid, a.shape).apply_q(a, np.empty(a.shape) if out is None else out)


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


@lru_cache(maxsize=32)
def _grid_numbers(K: int, J: int, alpha: float) -> tuple[np.ndarray, ...]:
    """The scalar operands of a plan's ufunc and transform calls on a
    K-by-J grid, as read-only 0-d views of one float64 vector: 0.5/dx,
    0.5/dy, 2, 1/dx^2, 1/dy^2, alpha^2, J, 1/(J K), 1/K and 1.

    numpy converts a Python scalar operand to an array on every call, which
    costs about a quarter of a microsecond; it takes a 0-d array as it is.
    Each number is the float64 the Python expression gives, so every result
    keeps its bits.  The views are read-only, and the plans of every thread
    on the grid share them.
    """
    dx, dy = 2.0 / K, 2.0 / J
    values = np.array([
        0.5 / dx, 0.5 / dy, 2.0, 1.0 / dx**2, 1.0 / dy**2, alpha**2,
        J, 1.0 / (J * K), 1.0 / K, 1.0,
    ])
    values.setflags(write=False)
    return tuple(values[i, ...] for i in range(values.size))


# The gufunc axes of a transform along y: the input's, none for the length
# argument, the output's.
_Y_AXES = [(-2,), (), (-2,)]


def _solve_q_stack_arr(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral Q-solve of a (..., J, K) stack of fields (see
    :meth:`_Plan.solve`), as a new array."""
    return _plan(grid, a.shape).solve(a, np.empty(a.shape))


def _solve_q_checked(a: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, float]:
    """Solve and verify: stacked input gives the worst per-layer residual.

    The squares of the momentum and of the residual a - Q u come from one
    :meth:`_Plan.residual_sums`, which forms Q u in the plan (on a split
    stack, each layer on its own thread).  A momentum or residual whose
    norm is not finite (NaN or infinite entries, or entries too large to
    square) cannot be verified and is rejected without a residual.
    """
    u = _solve_q_stack_arr(a, grid)
    sq_m, sq_r = _plan(grid, a.shape).residual_sums(a, u)
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


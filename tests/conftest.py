from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from epdiff import FieldPair, GridSpec, ScalarField, State
from epdiff.core import _gamma_arrays
from epdiff.grid import _plan, _solve_q_checked

# Every property test draws the same examples on every run: no example
# database, no deadline; each test sets only its ``max_examples``.
settings.register_profile("epdiff", derandomize=True, database=None, deadline=None)
settings.load_profile("epdiff")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def same_bits(actual, expected) -> bool:
    """True when two float64 arrays have one shape and the same bits in
    every entry.  Compared as uint64 views, -0.0 and +0.0 differ, which
    np.array_equal treats as equal."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return actual.shape == expected.shape and np.array_equal(
        actual.view(np.uint64), expected.view(np.uint64)
    )


def random_field(grid: GridSpec, rng) -> ScalarField:
    return ScalarField(grid, rng.standard_normal(grid.shape))


def random_pair(grid: GridSpec, rng) -> FieldPair:
    return FieldPair(random_field(grid, rng), random_field(grid, rng))


def random_state(grid: GridSpec, rng, t: float = 0.0) -> State:
    return State.from_velocity(random_pair(grid, rng), t=t)


# The operators the tests state identities in, as calls of the package's
# kernels; d1x and d1y are the np.roll centred difference, which the
# bracket's stencil passes match bit for bit.
def d1x(f):
    return f._wrap(f.grid, (np.roll(f.values, -1, -1) - np.roll(f.values, 1, -1)) * (0.5 / f.grid.dx))


def d1y(f):
    return f._wrap(f.grid, (np.roll(f.values, -1, -2) - np.roll(f.values, 1, -2)) * (0.5 / f.grid.dy))


def d2(f):
    return f._wrap(f.grid, _plan(f.grid, f.values.shape).laplacian(f.values, np.empty(f.values.shape)))


def solve_q(m):
    return m._wrap(m.grid, _solve_q_checked(m.values, m.grid)[0])


def gamma_apply(m, v):
    return m._wrap(m.grid, _gamma_arrays(m.values, v.values, m.grid))


# Reference operators that no run uses: the one-sided differences behind the
# summation-by-parts identities, and a dense LU solve of Q that
# cross-validates the spectral one.
def dplus_x(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, (np.roll(f.values, -1, -1) - f.values) * (1.0 / f.grid.dx))


def dminus_x(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, (f.values - np.roll(f.values, 1, -1)) * (1.0 / f.grid.dx))


def dplus_y(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, (np.roll(f.values, -1, -2) - f.values) * (1.0 / f.grid.dy))


def dminus_y(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, (f.values - np.roll(f.values, 1, -2)) * (1.0 / f.grid.dy))


@lru_cache(maxsize=8)
def _dense_q_lu(K: int, J: int, alpha: float):
    import scipy.linalg

    # A 128x128 grid would factor a 16384^2 matrix.
    if K * J > 64 * 64:
        raise ValueError(f"dense Q factorization refused for {K}x{J} grid")

    def d2_matrix(n: int, h: float) -> np.ndarray:
        eye = np.eye(n)
        return (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2.0 * eye) / h**2

    # Flattened index is j*K + k, so the x-stencil acts blockwise.
    lap = np.kron(np.eye(J), d2_matrix(K, 2.0 / K)) + np.kron(d2_matrix(J, 2.0 / J), np.eye(K))
    return scipy.linalg.lu_factor(np.eye(K * J) - alpha**2 * lap)


def solve_q_dense(m):
    """Invert Q of a ScalarField or FieldPair by dense LU, grids up to 64x64
    points; a pair is solved layer by layer."""
    import scipy.linalg

    g = m.grid
    lu = _dense_q_lu(g.K, g.J, g.alpha)
    u = [scipy.linalg.lu_solve(lu, b) for b in m.values.reshape(-1, g.K * g.J)]
    return m._wrap(g, np.array(u).reshape(m.values.shape))

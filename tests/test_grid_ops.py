"""Grid geometry, inner products, stencils, and the screened-Laplacian solve."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epdiff import (
    FieldPair,
    FixedCount,
    GridMismatchError,
    GridSpec,
    NumericalFailureError,
    ScalarField,
    SchemeConfig,
    SchemeKind,
    apply_q,
    inner,
    norm,
    step_rk4,
    step_scheme1_pc,
    step_scheme2,
    step_scheme3,
)
from epdiff.core import (
    State,
    _corrector_norms,
    _gamma_arrays,
    _two_level_energy,
    energy_half_scheme2,
    energy_half_scheme3,
    energy_scheme1,
    linear_momenta,
)
from epdiff import grid as grid_module
from epdiff.grid import (
    QSOLVE_RTOL,
    _apply_q_arr,
    _Plan,
    _SplitPlan,
    _plan,
    _solve_q_checked,
    _solve_q_stack_arr,
)
from conftest import (
    d1x,
    d1y,
    d2,
    dminus_x,
    dminus_y,
    dplus_x,
    dplus_y,
    gamma_apply,
    random_field,
    random_pair,
    random_state,
    same_bits,
    solve_q,
    solve_q_dense,
)

# The public constructors that take caller arrays, each fed from a (2, J, K)
# array.
FROM_CALLER_ARRAY = {
    "ScalarField": lambda g, a: ScalarField(g, a[0]),
    "FieldPair": lambda g, a: FieldPair(ScalarField(g, a[0]), ScalarField(g, a[1])),
    "from_arrays": lambda g, a: FieldPair.from_arrays(g, a[0], a[1]),
}


class TestGridSpec:
    def test_spacings_cover_the_domain(self):
        g = GridSpec(20, 40, 1.0)
        assert g.dx * g.K == 2.0
        assert g.dy * g.J == 2.0
        assert g.cell_area == g.dx * g.dy
        assert g.x[0] == -1.0 and g.y[0] == -1.0

    @pytest.mark.parametrize("bad", [(2, 20, 1.0), (20, 2, 1.0), (20, 20, 0.0), (20, 20, -1.0)])
    def test_rejects_degenerate_parameters(self, bad):
        with pytest.raises(ValueError):
            GridSpec(*bad)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("which", range(3))
    def test_rejects_non_finite_numbers(self, value, which):
        args = [8, 8, 1.0]
        args[which] = value
        with pytest.raises(ValueError):
            GridSpec(*args)

    def test_equality_is_by_geometry(self):
        assert GridSpec(8, 8, 0.5) == GridSpec(8, 8, 0.5)
        assert GridSpec(8, 8, 0.5) != GridSpec(8, 8, 0.25)

    def test_hash_is_that_of_the_normalised_fields(self):
        # The hash is taken once, of the fields as the dataclass's own
        # __hash__ would take it; it is no field, so repr and equality
        # stay those of (K, J, alpha).
        g = GridSpec(8.0, 6, 1)
        assert hash(g) == hash((8, 6, 1.0)) == hash(GridSpec(8, 6, 1.0))
        assert g == GridSpec(8, 6, 1.0) and {g: 1}[GridSpec(8, 6, 1.0)] == 1
        assert repr(g) == "GridSpec(K=8, J=6, alpha=1.0)"


class TestFields:
    def test_rejects_non_finite_values(self):
        g = GridSpec(4, 4, 1.0)
        bad = np.zeros(g.shape)
        bad[1, 2] = np.nan
        with pytest.raises(NumericalFailureError):
            ScalarField(g, bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ScalarField(GridSpec(4, 4, 1.0), np.zeros((4, 5)))

    def test_values_are_read_only(self):
        g = GridSpec(4, 4, 1.0)
        a = np.ones((2,) + g.shape)
        fields = [ScalarField.full(g, 1.0)] + [make(g, a) for make in FROM_CALLER_ARRAY.values()]
        for f in fields:
            with pytest.raises(ValueError):
                f.values[(0,) * f.values.ndim] = 2.0

    def test_construction_copies_caller_arrays(self):
        g = GridSpec(4, 4, 1.0)
        for make in FROM_CALLER_ARRAY.values():
            a = np.zeros((2,) + g.shape)
            f = make(g, a)
            a[:, 0, 0] = 7.0
            assert np.all(f.values == 0.0)

    def test_pair_components_must_share_grid(self):
        f = ScalarField.zeros(GridSpec(4, 4, 1.0))
        h = ScalarField.zeros(GridSpec(4, 8, 1.0))
        with pytest.raises(GridMismatchError):
            FieldPair(f, h)


class TestInnerAndNorm:
    def test_ones_inner_is_domain_area(self):
        g = GridSpec(20, 20, 1.0)
        ones = ScalarField.full(g, 1.0)
        assert inner(ones, ones) == pytest.approx(4.0, rel=1e-14)

    def test_zero_factor_gives_zero(self, rng):
        g = GridSpec(20, 20, 1.0)
        assert inner(random_field(g, rng), ScalarField.zeros(g)) == 0.0

    def test_small_grid_against_double_loop(self):
        # Independent oracle: explicit double loop over v_{k,j} = k + j, w = 1.
        g = GridSpec(4, 4, 1.0)
        v = np.empty(g.shape)
        for j in range(g.J):
            for k in range(g.K):
                v[j, k] = k + j
        expected = 0.0
        for j in range(g.J):
            for k in range(g.K):
                expected += v[j, k] * 1.0 * g.dx * g.dy
        assert expected == pytest.approx(12.0)
        got = inner(ScalarField(g, v), ScalarField.full(g, 1.0))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_grid_mismatch_raises(self, rng):
        a = random_field(GridSpec(4, 4, 1.0), rng)
        b = random_field(GridSpec(8, 4, 1.0), rng)
        with pytest.raises(GridMismatchError):
            inner(a, b)

    def test_norm_of_ones_is_two(self):
        g = GridSpec(16, 12, 1.0)
        assert norm(ScalarField.full(g, 1.0)) == pytest.approx(2.0, rel=1e-14)
        assert norm(ScalarField.zeros(g)) == 0.0

    def test_norm_homogeneity(self, rng):
        f = random_field(GridSpec(12, 8, 1.0), rng)
        assert norm(-3.0 * f) == pytest.approx(3.0 * norm(f), rel=1e-13)

    def test_pair_norm_combines_components(self, rng):
        p = random_pair(GridSpec(8, 8, 1.0), rng)
        expected = np.hypot(norm(p.c1), norm(p.c2))
        assert norm(p) == pytest.approx(expected, rel=1e-14)
        assert inner(p, p) == pytest.approx(norm(p) ** 2, rel=1e-13)


@pytest.mark.parametrize("k,j", [(8, 8), (16, 16), (20, 20), (33, 17)])
def test_pair_operators_equal_componentwise(k, j, rng):
    # Exact equality: a pair's (2, J, K) stack must give the bits of the
    # per-component ScalarField operators, which the output digests rest on.
    g = GridSpec(k, j, 0.7)
    p, q = random_pair(g, rng), random_pair(g, rng)
    assert inner(p, q) == inner(p.c1, q.c1) + inner(p.c2, q.c2)
    assert norm(p) == np.hypot(norm(p.c1), norm(p.c2))
    for op in (apply_q, solve_q):
        out = op(p)
        assert np.array_equal(out.c1.values, op(p.c1).values)
        assert np.array_equal(out.c2.values, op(p.c2).values)
    # The bracket term by term, as its docstring spells it.
    (m1, m2), (v1, v2) = (p.c1, p.c2), (q.c1, q.c2)

    def hadamard(v, w):
        return ScalarField(g, v.values * w.values)

    c1 = (hadamard(m1, d1x(v1)) + hadamard(m2, d1x(v2))
          + d1x(hadamard(m1, v1)) + d1y(hadamard(m1, v2)))
    c2 = (hadamard(m1, d1y(v1)) + hadamard(m2, d1y(v2))
          + d1x(hadamard(m2, v1)) + d1y(hadamard(m2, v2)))
    out = gamma_apply(p, q)
    assert np.array_equal(out.c1.values, c1.values)
    assert np.array_equal(out.c2.values, c2.values)


class TestHadamard:
    def test_norm_inequality(self, rng):
        # ||v.w|| <= ||v|| ||w|| / sqrt(dx dy), checked on many random pairs.
        g = GridSpec(8, 8, 1.0)
        bound_factor = 1.0 / np.sqrt(g.cell_area)
        for _ in range(100):
            v = random_field(g, rng)
            w = random_field(g, rng)
            vw = ScalarField(g, v.values * w.values)
            assert norm(vw) <= bound_factor * norm(v) * norm(w) * (1 + 1e-14)


class TestFirstDifferences:
    def test_constant_field_has_zero_gradient(self):
        g = GridSpec(8, 8, 1.0)
        c = ScalarField.full(g, 3.25)
        assert np.all(d1x(c).values == 0.0)
        assert np.all(d1y(c).values == 0.0)

    def test_hand_computed_row(self):
        # K = 4, dx = 0.5, row [0, 1, 0, -1]: first entry (f1 - f3)/(2 dx) = 2.
        g = GridSpec(4, 4, 1.0)
        row = np.array([0.0, 1.0, 0.0, -1.0])
        f = ScalarField(g, np.tile(row, (4, 1)))
        expected = np.array([2.0, 0.0, -2.0, 0.0])
        assert np.allclose(d1x(f).values, np.tile(expected, (4, 1)), atol=1e-15)

    def test_d1y_matches_transposed_d1x(self, rng):
        g = GridSpec(8, 8, 1.0)
        a = rng.standard_normal(g.shape)
        got = d1y(ScalarField(g, a)).values
        ref = d1x(ScalarField(g, a.T.copy())).values.T
        assert np.allclose(got, ref, atol=1e-15)

    def test_second_order_convergence_on_sine(self):
        errs = []
        hs = []
        for n in (16, 32, 64, 128):
            g = GridSpec(n, 4, 1.0)
            x = g.x
            f = ScalarField(g, np.tile(np.sin(np.pi * x), (g.J, 1)))
            exact = np.tile(np.pi * np.cos(np.pi * x), (g.J, 1))
            errs.append(norm(d1x(f) - ScalarField(g, exact)))
            hs.append(g.dx)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_centered_commute(self, rng):
        g = GridSpec(12, 10, 1.0)
        f = random_field(g, rng)
        a = d1x(d1y(f)).values
        b = d1y(d1x(f)).values
        # The stencils act on disjoint axes; the orders differ only by
        # floating-point association.
        assert np.allclose(a, b, atol=1e-12 * max(1.0, np.abs(a).max()))


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        g = GridSpec(6, 6, 1.0)
        assert np.all(d2(ScalarField.full(g, 5.0)).values == 0.0)

    def test_delta_stencil_values(self):
        # K = J = 4, dx = dy = 0.5: center -2/dx^2 - 2/dy^2 = -16, neighbors +4.
        g = GridSpec(4, 4, 1.0)
        delta = np.zeros(g.shape)
        delta[0, 0] = 1.0
        out = d2(ScalarField(g, delta)).values
        assert out[0, 0] == pytest.approx(-16.0)
        for j, k in ((0, 1), (0, 3), (1, 0), (3, 0)):
            assert out[j, k] == pytest.approx(4.0)
        assert out[2, 2] == 0.0

    def test_zero_mean(self, rng):
        g = GridSpec(8, 8, 1.0)
        f = random_field(g, rng)
        total = float(np.sum(d2(f).values)) * g.cell_area
        assert abs(total) <= 1e-12 * norm(f)


class TestOneSidedDifferences:
    def test_composition_gives_second_difference(self, rng):
        g = GridSpec(8, 8, 1.0)
        f = random_field(g, rng)
        lap_x = dminus_x(dplus_x(f)).values + dminus_y(dplus_y(f)).values
        ref = d2(f).values
        assert np.allclose(lap_x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_summation_by_parts(self, rng):
        # sum f d2_xx g dx dy = -sum ((d+f)(d+g) + (d-f)(d-g))/2 dx dy.
        g = GridSpec(8, 8, 1.0)
        for _ in range(20):
            f = random_field(g, rng)
            w = random_field(g, rng)
            lap_xx = dminus_x(dplus_x(w))
            lhs = inner(f, lap_xx)
            rhs = -0.5 * (
                inner(dplus_x(f), dplus_x(w)) + inner(dminus_x(f), dminus_x(w))
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestAdjointness:
    def test_laplacian_self_adjoint_and_gradients_skew(self, rng):
        g = GridSpec(12, 10, 1.0)
        for _ in range(100):
            f = random_field(g, rng)
            w = random_field(g, rng)
            scale = norm(f) * norm(w)
            assert abs(inner(f, d2(w)) - inner(d2(f), w)) <= 1e-12 * scale / g.cell_area
            assert abs(inner(f, d1x(w)) + inner(w, d1x(f))) <= 1e-12 * scale / g.dx
            assert abs(inner(f, d1y(w)) + inner(w, d1y(f))) <= 1e-12 * scale / g.dy

    def test_zero_sum_of_derivatives(self, rng):
        g = GridSpec(10, 14, 1.0)
        for _ in range(100):
            f = random_field(g, rng)
            for op in (d1x, d1y, d2):
                total = float(np.sum(op(f).values)) * g.cell_area
                assert abs(total) <= 1e-12 * norm(f) / min(g.dx, g.dy) ** 2


class TestOperatorNormBounds:
    def test_first_and_second_difference_bounds(self, rng):
        g = GridSpec(10, 12, 0.7)
        lap_bound = 4.0 * (1.0 / g.dx**2 + 1.0 / g.dy**2)
        for _ in range(100):
            v = random_field(g, rng)
            nv = norm(v)
            assert norm(d1x(v)) <= nv / g.dx * (1 + 1e-14)
            assert norm(d1y(v)) <= nv / g.dy * (1 + 1e-14)
            assert norm(d2(v)) <= lap_bound * nv * (1 + 1e-14)
            assert norm(solve_q(v)) <= nv * (1 + 1e-14)


class TestHelmholtz:
    def test_q_fixes_constants(self):
        g = GridSpec(8, 8, 0.3)
        c = ScalarField.full(g, 2.5)
        assert np.allclose(apply_q(c).values, 2.5, rtol=1e-15)
        assert np.allclose(solve_q(c).values, 2.5, rtol=1e-14)

    def test_delta_composition_value(self):
        # alpha = 1 on the 4x4 grid: (1 - lap) delta has 1 + 16 at the origin.
        g = GridSpec(4, 4, 1.0)
        delta = np.zeros(g.shape)
        delta[0, 0] = 1.0
        out = apply_q(ScalarField(g, delta)).values
        assert out[0, 0] == pytest.approx(17.0)
        assert out[0, 1] == pytest.approx(-4.0)

    def test_self_adjoint(self, rng):
        g = GridSpec(8, 10, 0.5)
        for _ in range(50):
            f = random_field(g, rng)
            w = random_field(g, rng)
            lhs = inner(f, apply_q(w))
            rhs = inner(apply_q(f), w)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_solve_inverts_apply(self, rng):
        g = GridSpec(12, 8, 1.0)
        for _ in range(20):
            u = random_field(g, rng)
            back = solve_q(apply_q(u))
            assert norm(back - u) <= 1e-11 * norm(u)

    def test_pair_solve(self, rng):
        g = GridSpec(8, 8, 1.0)
        p = random_pair(g, rng)
        u = solve_q(apply_q(p))
        assert norm(u - p) <= 1e-11 * norm(p)

    def test_matches_dense_factorization(self, rng):
        # Cross-validation of the spectral path against a direct LU solve.
        for k, j, alpha in ((8, 8, 1.0), (12, 10, 0.35), (16, 16, 2.0)):
            g = GridSpec(k, j, alpha)
            m = random_field(g, rng)
            u_fft = solve_q(m)
            u_lu = solve_q_dense(m)
            assert norm(u_fft - u_lu) <= 1e-12 * norm(m)

    def test_dense_refuses_large_grids(self, rng):
        g = GridSpec(128, 128, 1.0)
        with pytest.raises(ValueError):
            solve_q_dense(random_field(g, rng))

    def test_preserves_y_invariance_exactly(self, rng):
        # Fields constant in y must stay bitwise constant in y through the
        # solve; this keeps the flat-in-y benchmark exactly flat over long runs.
        # An odd K needs the explicit n=K of the inverse transforms.
        for g, lead in ((GridSpec(20, 20, 1.0), ()), (GridSpec(33, 20, 0.1), (2,))):
            a = np.repeat(rng.standard_normal(lead + (1, g.K)), g.J, axis=-2)
            u = _solve_q_stack_arr(a, g)
            assert np.array_equal(u, np.repeat(u[..., :1, :], g.J, axis=-2)), g

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_rejects_non_finite_momentum(self, bad):
        # NaN input reads as residual 0 and inf as residual NaN, and neither
        # compares above the tolerance; the rejection carries no residual,
        # since summary.json cannot encode NaN.
        g = GridSpec(8, 8, 1.0)
        m = np.ones((2,) + g.shape)
        m[1, 3, 4] = bad
        with np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as err:
            _solve_q_checked(m, g)
        assert err.value.residual is None

    @pytest.mark.parametrize("zero", [0, 1])
    def test_check_skips_zero_layer(self, rng, zero):
        # A zero layer has no relative residual: the verdict beside it is
        # the other layer's, as when that layer is checked alone.
        g = GridSpec(8, 8, 1.0)
        m = np.zeros((2,) + g.shape)
        m[1 - zero] = rng.standard_normal(g.shape)
        u, res = _solve_q_checked(m, g)
        u_alone, res_alone = _solve_q_checked(m[1 - zero].copy(), g)
        assert res == res_alone and 0.0 < res <= QSOLVE_RTOL
        assert np.array_equal(u[1 - zero], u_alone) and np.all(u[zero] == 0.0)

    def test_solve_of_zero_is_zero(self):
        g = GridSpec(8, 8, 1.0)
        assert np.all(solve_q(ScalarField.zeros(g)).values == 0.0)


class TestPeriodicity:
    def test_all_operators_commute_with_translations(self, rng):
        g = GridSpec(8, 6, 0.8)
        f = random_field(g, rng)
        shifted = ScalarField(g, np.roll(f.values, (2, 3), axis=(0, 1)))
        for op in (d1x, d1y, d2, apply_q):
            direct = op(shifted).values
            rolled = np.roll(op(f).values, (2, 3), axis=(0, 1))
            assert np.array_equal(direct, rolled)


# Reference implementations: the np.roll stencils the slicing kernels
# replaced, and the scipy.fft Q-solve the numpy.fft one replaced, in their
# exact operation order.
def roll_d1(a, axis, h):
    return (np.roll(a, -1, axis) - np.roll(a, 1, axis)) * (0.5 / h)


def roll_d2(a, dx, dy):
    lap_x = (np.roll(a, -1, -1) + np.roll(a, 1, -1) - 2.0 * a) * (1.0 / dx**2)
    lap_y = (np.roll(a, -1, -2) + np.roll(a, 1, -2) - 2.0 * a) * (1.0 / dy**2)
    return lap_x + lap_y


def roll_gamma(m, v, g):
    m1, m2 = m
    v1, v2 = v
    dxs = roll_d1(np.stack([v1, v2, m1 * v1, m2 * v1]), -1, g.dx)
    dys = roll_d1(np.stack([v1, v2, m1 * v2, m2 * v2]), -2, g.dy)
    return np.stack(
        [
            m1 * dxs[0] + m2 * dxs[1] + dxs[2] + dys[2],
            m1 * dys[0] + m2 * dys[1] + dxs[3] + dys[3],
        ]
    )


def scipy_solve_q(a, g):
    import scipy.fft

    sx = np.sin(np.pi * np.arange(g.K // 2 + 1) / g.K) ** 2
    sy = np.sin(np.pi * np.arange(g.J) / g.J) ** 2
    ax, ay = 4.0 * g.alpha**2 / g.dx**2, 4.0 * g.alpha**2 / g.dy**2
    lam = 1.0 + ax * sx[None, :] + ay * sy[:, None]
    rows = a.mean(axis=-2)
    rest = a - rows[..., None, :]
    spec_rows = scipy.fft.rfft(rows, axis=-1)
    spec_rows /= lam[0]
    u_rows = scipy.fft.irfft(spec_rows, n=g.K, axis=-1)
    spec = scipy.fft.rfft2(rest, axes=(-2, -1))
    spec /= lam
    u = scipy.fft.irfft2(spec, s=g.shape, axes=(-2, -1))
    u += u_rows[..., None, :]
    return u


class TestKernels:
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["layer", "stack"])
    @pytest.mark.parametrize(
        "k,j", [(3, 3), (3, 8), (8, 3), (4, 5), (20, 20), (33, 17), (64, 63)]
    )
    def test_match_roll_stencils_bitwise(self, k, j, lead, rng):
        g = GridSpec(k, j, 0.7)
        a = rng.standard_normal(lead + g.shape)
        plan = _plan(g, a.shape)
        assert same_bits(plan.laplacian(a, np.empty(a.shape)), roll_d2(a, g.dx, g.dy))
        q = a - g.alpha**2 * roll_d2(a, g.dx, g.dy)
        assert same_bits(_apply_q_arr(a, g), q)
        out = np.empty(a.shape)
        assert plan.laplacian(a, out) is out
        assert same_bits(out, roll_d2(a, g.dx, g.dy))
        assert _apply_q_arr(a, g, out) is out
        assert same_bits(out, q)
        if lead:
            v = rng.standard_normal(lead + g.shape)
            assert same_bits(_gamma_arrays(a, v, g), roll_gamma(a, v, g))

    @pytest.mark.parametrize("alpha", [1.0, 0.1])
    @pytest.mark.parametrize("lead", [(), (2,), (3, 2)], ids=["layer", "stack", "stacks"])
    @pytest.mark.parametrize(
        "k,j", [(3, 3), (5, 7), (7, 5), (33, 17), (17, 33), (160, 160), (250, 250)]
    )
    def test_q_solve_matches_scipy_fft_bitwise(self, k, j, lead, alpha, rng):
        # Two random stacks (the second on a warm plan), then a y-constant
        # stack and one whose last layer is zero, as u2 of the sine
        # benchmark is.  Their spectra hold exact zeros, where a signed
        # zero would tell a divide and a multiply by the reciprocal apart.
        g = GridSpec(k, j, alpha)
        inputs = [rng.standard_normal(lead + g.shape) for _ in range(2)]
        y_constant = np.repeat(rng.standard_normal(lead + (1, k)), j, axis=-2)
        zero_layer = rng.standard_normal(lead + g.shape)
        zero_layer.reshape((-1,) + g.shape)[-1] = 0.0
        for a in inputs + [y_constant, zero_layer]:
            assert same_bits(_solve_q_stack_arr(a, g), scipy_solve_q(a, g))

    def test_plan_is_keyed_by_the_whole_grid(self, rng):
        # Two grids of one shape differ only in alpha; a thread that solves
        # on one, then the other, then the first again gets the bits a
        # thread that starts afresh gets.
        grids = [GridSpec(20, 20, 1.0), GridSpec(20, 20, 0.5), GridSpec(20, 20, 1.0)]
        a = rng.standard_normal((2, 20, 20))

        def fresh(g):
            out = []
            thread = threading.Thread(target=lambda: out.append(_solve_q_checked(a, g)[0]))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            return out[0]

        for g in grids:
            assert same_bits(_solve_q_checked(a, g)[0], fresh(g)), g

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["layer", "stack"])
    def test_plan_owns_no_private_laplacian_stack(self, lead, rng):
        # The Laplacian works in buffers the plan's other kernels own, so
        # the arrays a plan owns (views and the shared symbol aside) come
        # to no more than pair, sums, real and spec.  A warm plan then runs
        # solve, apply-Q and a checked solve, whose kernels share those
        # buffers, and each call has the bits of the same call on a fresh
        # plan.
        g = GridSpec(33, 17, 0.7)
        shape = lead + g.shape
        plan = _plan(g, shape)
        assert type(plan) is _Plan
        owned, todo = {}, [getattr(plan, name) for name in _Plan.__slots__]
        while todo:
            x = todo.pop()
            if isinstance(x, np.ndarray):
                if x.base is None and x is not plan.recip:
                    owned[id(x)] = x.nbytes
            elif isinstance(x, (tuple, list)):
                todo.extend(x)
            elif isinstance(x, dict):
                todo.extend(x.values())
        buffers = (plan.pair, plan.sums, plan.real, plan.spec)
        assert sum(owned.values()) <= sum(x.nbytes for x in buffers)

        a, b, c = rng.standard_normal((3,) + shape)
        _solve_q_checked(b, g)
        calls = [
            lambda: [_solve_q_stack_arr(a, g)],
            lambda: [_apply_q_arr(b, g)],
            lambda: list(_solve_q_checked(c, g)),
        ]
        for call in calls:
            warm, fresh = call(), []
            thread = threading.Thread(target=lambda: fresh.extend(call()))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            for got, expected in zip(warm, fresh, strict=True):
                assert same_bits(got, expected)

    def test_plans_of_a_grid_share_read_only_numbers(self):
        # A plan's scalar operands are 0-d views of one read-only float64
        # vector per grid, shared by the (J, K) and (2, J, K) plans of every
        # thread: no kernel call can change a number another plan reads.
        g = GridSpec(20, 12, 0.7)
        names = (
            "half_dx", "half_dy", "two", "inv_dx2", "inv_dy2", "alpha2",
            "J", "scale", "inv_K", "one",
        )

        def numbers():
            return [
                [getattr(_plan(g, lead + g.shape), name) for name in names]
                for lead in ((), (2,))
            ]

        layer, stack = numbers()
        other = []
        thread = threading.Thread(target=lambda: other.extend(numbers()))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        shared = layer[0].base
        assert not shared.flags.writeable
        for plan_numbers in (layer, stack, *other):
            assert all(x is y for x, y in zip(plan_numbers, layer, strict=True))
        for x in layer:
            assert x.ndim == 0 and x.dtype == np.float64 and x.base is shared
            with pytest.raises(ValueError):
                x[...] = 1.0
            with pytest.raises(ValueError):
                np.add(x, 1.0, out=x)
        with pytest.raises(ValueError):
            shared[0] = 1.0
        assert [float(x) for x in layer] == [
            0.5 / g.dx, 0.5 / g.dy, 2.0, 1.0 / g.dx**2, 1.0 / g.dy**2, g.alpha**2,
            g.J, 1.0 / (g.J * g.K), 1.0 / g.K, 1.0,
        ]

    def test_kernels_pass_only_array_operands(self, rng, monkeypatch):
        # numpy converts a Python scalar operand on every call; every
        # positional operand of a kernel's ufunc and transform calls is an
        # array.
        scalars = []

        class CheckedUfunc:
            def __init__(self, name, ufunc):
                self.name, self.ufunc, self.reduce = name, ufunc, ufunc.reduce

            def __call__(self, *args, **kwargs):
                scalars.extend((self.name, x) for x in args if not isinstance(x, np.ndarray))
                return self.ufunc(*args, **kwargs)

        class Checked:
            def __init__(self, module):
                self.module = module

            def __getattr__(self, name):
                target = getattr(self.module, name)
                return CheckedUfunc(name, target) if isinstance(target, np.ufunc) else target

        for g in (GridSpec(20, 20, 0.7), GridSpec(15, 12, 0.3)):
            for lead in ((), (2,)):
                a, b, c, d = rng.standard_normal((4,) + lead + g.shape)
                m, v = rng.standard_normal((2, 2) + g.shape)
                plan, pair = _plan(g, lead + g.shape), _plan(g, (2,) + g.shape)
                monkeypatch.setattr(grid_module, "np", Checked(np))
                monkeypatch.setattr(
                    grid_module, "_pocketfft_umath", Checked(grid_module._pocketfft_umath)
                )
                plan.laplacian(a, np.empty(a.shape))
                plan.apply_q(a, np.empty(a.shape))
                plan.solve(a, np.empty(a.shape))
                plan.square_sums(a, b)
                plan.product_sums(a, b, c, d)
                pair.bracket(m, v)
                _plan(g, g.shape).bracket_component(1, m, v, np.empty(g.shape))
                monkeypatch.undo()
        assert scalars == []

    def test_thread_drops_its_plans_for_another_grid_shape(self, rng):
        # A step of every scheme label and the object-layer stencils leave
        # only (grid, shape) -> _Plan entries in the thread's store; kernels
        # on another grid shape then drop every plan of the first.
        old, new = GridSpec(20, 20, 1.0), GridSpec(24, 16, 1.0)

        def store_keys(g):
            store = grid_module._THREAD.plans
            assert all(type(plan) is _Plan for plan in store.values())
            assert set(store) == {(g, g.shape), (g, (2,) + g.shape)}

        _plan(new, new.shape)
        dt = 0.05 * old.dx
        s0 = random_state(old, rng)
        s1 = step_rk4(s0, dt).state
        for mode in (None, FixedCount(3)):
            step_scheme1_pc(s0, s1, dt, SchemeConfig(SchemeKind.SCHEME1_PC, dt, mode))
        step_scheme2(s0, s1, dt)
        step_scheme3(s0, s1, dt)
        for op in (d1x, d1y, d2):
            op(s1.u.c1)
        store_keys(old)
        m, v = rng.standard_normal((2, 2) + new.shape)
        assert same_bits(_gamma_arrays(m, v, new), roll_gamma(m, v, new))
        _solve_q_checked(m, new)
        d2(ScalarField(new, v[0]))
        store_keys(new)

    def test_warm_q_solve_allocates_only_its_result(self, rng):
        # The spectra and the y-mean split live in the thread's plan, which
        # must survive from one call to the next: the buffers of shape
        # (..., J, K//2 + 1) belong to the (J, K) grid.  Besides the result,
        # a warm call may allocate no more than its (2, K) row solve would
        # (the rows, their spectrum and its inverse).
        g = GridSpec(63, 64, 1.0)
        a = rng.standard_normal((2,) + g.shape)
        row_solve = 2 * (2 * g.K * 8 + (g.K // 2 + 1) * 16)
        _solve_q_stack_arr(a, g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            u = _solve_q_stack_arr(a, g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert u.nbytes <= peak <= u.nbytes + row_solve

    def test_warm_q_check_allocates_only_its_result(self, rng):
        # The check writes Q u into the plan, so it may allocate no more than
        # the solve it verifies: its result and the (2, K) row solve.
        g = GridSpec(63, 64, 1.0)
        a = rng.standard_normal((2,) + g.shape)
        row_solve = 2 * (2 * g.K * 8 + (g.K // 2 + 1) * 16)
        _solve_q_checked(a, g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            u, _ = _solve_q_checked(a, g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert u.nbytes <= peak <= u.nbytes + row_solve

    def test_warm_bracket_allocates_only_its_result(self, rng):
        # Every view the bracket writes through comes from the plan; a warm
        # call allocates its result and the views into its operands, a few
        # hundred bytes each.  A broadcasting product would add an iterator
        # buffer of up to 64 KiB.
        g = GridSpec(63, 64, 1.0)
        m, v = rng.standard_normal((2, 2) + g.shape)
        _gamma_arrays(m, v, g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = _gamma_arrays(m, v, g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.nbytes <= peak <= out.nbytes + 4096

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["layer", "stack"])
    def test_warm_q_solve_makes_four_transform_calls(self, lead, rng, monkeypatch):
        # At 20 points a transform costs less than the dispatch of the numpy
        # call around it.  One rfft and one irfft along x serve the y-means
        # and the mean-free rows alike; fft and ifft along y run once.  The
        # calls go to pocketfft's gufuncs, past the numpy.fft wrappers; the
        # rfft gufunc is the one for the parity of K.
        gufuncs = grid_module._pocketfft_umath

        class Counting:
            def __getattr__(self, name):
                def count(*args, gufunc=getattr(gufuncs, name), **kwargs):
                    calls.append(name)
                    return gufunc(*args, **kwargs)

                return count

        for k, rfft in ((20, "rfft_n_even"), (21, "rfft_n_odd")):
            g = GridSpec(k, 20, 1.0)
            a = rng.standard_normal(lead + g.shape)
            expected = _solve_q_stack_arr(a, g)
            calls, wrapped = [], []
            monkeypatch.setattr(grid_module, "_pocketfft_umath", Counting())
            for name in (
                "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft",
            ):
                def spy(*args, transform=getattr(np.fft, name), name=name, **kwargs):
                    wrapped.append(name)
                    return transform(*args, **kwargs)

                monkeypatch.setattr(np.fft, name, spy)
            u = _solve_q_stack_arr(a, g)
            monkeypatch.undo()
            assert sorted(calls) == sorted(["fft", "ifft", "irfft", rfft])
            assert wrapped == []
            assert np.array_equal(u, expected)

    def test_solve_check_and_corrector_norm_skip_reduction_wrappers(
        self, rng, monkeypatch
    ):
        # np.mean and np.sum cost microseconds of Python wrapper each; the
        # kernels and the invariants call the add.reduce ufunc directly, with
        # the same bits.
        g = GridSpec(20, 20, 1.0)
        layer = rng.standard_normal(g.shape)
        stacks = list(rng.standard_normal((3, 2) + g.shape))

        def solves():
            return [
                (_solve_q_stack_arr(a, g), _solve_q_checked(a, g)[0])
                for a in [layer] + stacks
            ]

        # The invariants of integrate's rows, on states and on the 0-d
        # inner product of two ScalarFields.
        momenta = [FieldPair.from_arrays(g, *m) for m in stacks]
        states = [State(solve_q(m), m, 0.0) for m in momenta]
        fields = [ScalarField(g, layer), ScalarField(g, stacks[0][0])]

        def invariants():
            return [
                energy_scheme1(states[0]),
                energy_half_scheme2(states[0], states[1]),
                energy_half_scheme3(states[1], states[2]),
                linear_momenta(states[2]),
                inner(*fields),
                inner(fields[0], fields[0]),
                norm(fields[1]),
                inner(states[0].m, states[1].u),
            ]

        expected = solves()
        expected_invariants = invariants()
        expected_norms = [
            math.sqrt(np.sum(a * a, axis=(-2, -1)).sum() * g.cell_area) for a in stacks
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("a numpy reduction wrapper ran")

        monkeypatch.setattr(np, "mean", refuse)
        monkeypatch.setattr(np, "sum", refuse)
        got = solves()
        got_invariants = invariants()
        norms = [_corrector_norms(a, np.zeros_like(a), g) for a in stacks]
        monkeypatch.undo()
        assert got_invariants == expected_invariants
        for (u, checked), (u_ref, checked_ref) in zip(got, expected):
            assert np.array_equal(u, u_ref)
            assert np.array_equal(checked, checked_ref)
        assert norms == [(n, n) for n in expected_norms]

    def test_results_are_fresh_arrays(self, rng):
        # Callers keep results across kernel calls (RK4 holds k1..k4), so no
        # result may share memory with the kernels' plans or a later result.
        # An odd K needs the explicit n=K of the Q-solve's inverse transforms.
        for g in (GridSpec(16, 12, 0.7), GridSpec(15, 12, 0.7)):
            m, v, w = rng.standard_normal((3, 2) + g.shape)
            kernels = {
                "_gamma_arrays": lambda x: _gamma_arrays(m, x, g),
                "_apply_q_arr": lambda x: _apply_q_arr(x, g),
                "_solve_q_stack_arr": lambda x: _solve_q_stack_arr(x, g),
                "_solve_q_checked": lambda x: _solve_q_checked(x, g)[0],
            }
            for name, kernel in kernels.items():
                first = kernel(v)
                kept = first.copy()
                second = kernel(w)
                assert not np.shares_memory(first, second), (name, g)
                assert np.array_equal(first, kept), (name, g)


def layer_by_layer(kernel, a, g):
    """A stacked kernel's result taken one (J, K) layer at a time."""
    return np.stack([kernel(layer, g) for layer in a])


class TestSplitKernels:
    # A (2, J, K) stack of at least _SPLIT_POINTS points per layer runs its
    # layers on two threads; (127, 129) has one point fewer.
    @pytest.mark.parametrize(
        "k,j,split",
        [(128, 128, True), (129, 129, True), (192, 96, True), (97, 169, True),
         (127, 129, False)],
    )
    def test_have_the_bits_of_layer_calls(self, k, j, split, rng):
        g = GridSpec(k, j, 0.3)
        assert (k * j >= grid_module._SPLIT_POINTS) == split
        assert isinstance(_plan(g, (2,) + g.shape), _SplitPlan) == split
        a, b, m, v = rng.standard_normal((4, 2) + g.shape)
        a[0, 3, 5] = b[1, 0, 0] = -0.0
        area = g.cell_area

        for velocity in (v, np.zeros_like(v)):
            assert same_bits(_gamma_arrays(m, velocity, g), roll_gamma(m, velocity, g))
        assert same_bits(_solve_q_stack_arr(a, g), layer_by_layer(_solve_q_stack_arr, a, g))
        assert same_bits(_apply_q_arr(a, g), layer_by_layer(_apply_q_arr, a, g))
        u, rel = _solve_q_checked(a, g)
        alone = [_solve_q_checked(layer, g) for layer in a]
        assert same_bits(u, np.stack([u_i for u_i, _ in alone]))
        assert rel == max(rel_i for _, rel_i in alone)

        def sums(x, y):
            return [float(np.add.reduce(x[i] * y[i], axis=(-2, -1))) for i in (0, 1)]

        # The checked solve's residual max_i ||Q u - a||_i / ||a||_i, by
        # np.add.reduce: the check squares a - Q u, with the bits of Q u - a.
        r = _apply_q_arr(u, g) - a
        assert rel == max(math.sqrt(x) / math.sqrt(y) for x, y in zip(sums(r, r), sums(a, a)))

        d = a - b
        (a1, a2), (d1, d2) = sums(a, a), sums(d, d)
        assert _corrector_norms(a, b, g) == (
            math.sqrt((a1 + a2) * area), math.sqrt((d1 + d2) * area)
        )
        (ab1, ab2), (mv1, mv2) = sums(a, b), sums(m, v)
        pairs = [FieldPair.from_arrays(g, *x) for x in (a, b, m, v)]
        assert _two_level_energy(*pairs) == 0.25 * (
            ab1 * area + mv1 * area + ab2 * area + mv2 * area
        )

    def test_non_finite_layer_0_fails_the_check_and_the_next_call_runs(self, rng):
        # Layer 0 runs on the helper thread; its failure is the check's, as
        # on one thread, and leaves the helper ready for the next call.
        g = GridSpec(128, 128, 0.3)
        a = rng.standard_normal((2,) + g.shape)
        bad = a.copy()
        bad[0, 7, 9] = np.nan
        with np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as err:
            _solve_q_checked(bad, g)
        assert str(err.value) == "Helmholtz solve momentum or residual norm is not finite"
        assert err.value.residual is None
        assert same_bits(_solve_q_checked(a, g)[0], layer_by_layer(_solve_q_stack_arr, a, g))

    def test_an_error_in_layer_0_reaches_the_caller(self, rng):
        # The helper runs layer 0 under the caller's numpy error state, and
        # the caller raises what layer 0 raised once both layers are done.
        g = GridSpec(128, 128, 0.3)
        a = rng.standard_normal((2,) + g.shape)
        huge = a.copy()
        huge[0, 4, 4] = 1e308
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _apply_q_arr(huge, g)
        assert same_bits(_apply_q_arr(a, g), layer_by_layer(_apply_q_arr, a, g))

    def test_forked_child_splits_without_the_parents_helper(self, rng, monkeypatch):
        # A forked child has no helper thread; its first split starts one
        # and registers no fork hook: the one registered at import holds.
        g = GridSpec(128, 128, 0.3)
        a = rng.standard_normal((2,) + g.shape)
        expected = layer_by_layer(_solve_q_stack_arr, a, g)
        _solve_q_stack_arr(a, g)
        pid = os.fork()
        if pid == 0:
            code = 2
            try:
                hooks = []
                monkeypatch.setattr(os, "register_at_fork", lambda **hook: hooks.append(hook))
                same = same_bits(_solve_q_stack_arr(a, g), expected)
                code = 0 if same and not hooks else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its split solve")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_importing_the_package_starts_no_thread(self):
        src = Path(grid_module.__file__).resolve().parent.parent
        code = (
            "import sys, threading; sys.path.insert(0, sys.argv[1]); "
            "import epdiff, epdiff.cli; print(threading.active_count())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.split() == ["1"]


# Worst |<Gamma(m, v), v>| / (||m|| ||v||^2 / sqrt(dx dy)) over 3000 numpy
# draws of the test's distribution was 7.8e-17; the bound leaves a margin
# of about 13.
SKEW_BOUND = 1e-15


def kernel_outputs(a, m, v, g):
    return [
        _plan(g, a.shape).laplacian(a, np.empty(a.shape)),
        _apply_q_arr(a, g),
        _solve_q_checked(a, g)[0],
        _gamma_arrays(m, v, g),
    ]


@settings(max_examples=100)
@given(
    K=st.integers(3, 33),
    J=st.integers(3, 33),
    lead=st.sampled_from([(), (2,)]),
    alpha=st.floats(0.05, 1.5),
    twin_alpha=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_on_drawn_grids(K, J, lead, alpha, twin_alpha, seed):
    # The stencils and the bracket have the bits of the roll references;
    # two grids of one shape that differ only in alpha, called in
    # alternation, give the bits of a fresh thread; the bracket is skew.
    assume(twin_alpha != alpha)
    g, twin = GridSpec(K, J, alpha), GridSpec(K, J, twin_alpha)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(lead + g.shape)
    m, v = rng.standard_normal((2, 2) + g.shape)

    lap, _, _, gamma = kernel_outputs(a, m, v, g)
    assert same_bits(lap, roll_d2(a, g.dx, g.dy))
    assert same_bits(gamma, roll_gamma(m, v, g))

    def fresh(grid):
        out = []
        thread = threading.Thread(target=lambda: out.append(kernel_outputs(a, m, v, grid)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        return out[0]

    for grid in (g, twin, g, twin):
        for got, expected in zip(kernel_outputs(a, m, v, grid), fresh(grid)):
            assert same_bits(got, expected), grid

    area = g.cell_area
    skew = abs(float(np.vdot(gamma, v))) * area
    scale = math.sqrt(np.vdot(m, m) * area) * float(np.vdot(v, v)) * area / math.sqrt(area)
    assert skew <= SKEW_BOUND * scale


# Worst ||u_spectral - u_LU|| / ||m|| over 330 numpy draws of the test's
# distribution, with large grids and both ends of alpha drawn often, was
# 1.7e-14; the bound leaves a margin of about 6.
DENSE_SOLVE_MISS = 1e-13


@settings(max_examples=40)
@given(
    K=st.integers(3, 64),
    J=st.integers(3, 64),
    alpha=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_q_solve_matches_dense_lu_on_drawn_grids(K, J, alpha, seed):
    # The checked spectral solve against a dense LU factorization of Q, on
    # odd and non-square grids of up to 48^2 points: the LU alone takes
    # about 0.3 s at 48^2.
    assume(K * J <= 48 * 48)
    g = GridSpec(K, J, alpha)
    m = FieldPair.from_arrays(g, *np.random.default_rng(seed).standard_normal((2,) + g.shape))
    u, _ = _solve_q_checked(m.values, g)
    assert norm(FieldPair._wrap(g, u) - solve_q_dense(m)) <= DENSE_SOLVE_MISS * norm(m)


@settings(max_examples=100)
@given(
    K=st.integers(3, 33),
    J=st.integers(3, 33),
    alpha=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_y_constant_input_stays_y_constant(K, J, alpha, seed):
    # Every row of a (2, J, K) stack constant in y equals row 0 bit for bit
    # after the bare and the checked Q-solve, apply-Q, the bracket and one
    # step of each scheme, as the flat-in-y sine benchmark needs over long
    # runs.  dt = 0.2 min(dx, dy) / max|m| is below the advective limit of
    # the state, since max|u| <= max|m|.
    g = GridSpec(K, J, alpha)
    u, v = np.repeat(np.random.default_rng(seed).standard_normal((2, 2, 1, K)), J, axis=-2)
    s0 = State.from_velocity(FieldPair.from_arrays(g, *u))
    m = s0.m.values
    outputs = [
        _solve_q_stack_arr(m, g),
        _solve_q_checked(m, g)[0],
        _apply_q_arr(v, g),
        _gamma_arrays(m, v, g),
    ]
    dt = 0.2 * min(g.dx, g.dy) / float(np.abs(m).max())
    s1 = step_rk4(s0, dt).state
    cfg = SchemeConfig(SchemeKind.SCHEME1_PC, dt)
    for s in (
        s1,
        step_scheme1_pc(s0, s1, dt, cfg).state,
        step_scheme2(s0, s1, dt).state,
        step_scheme3(s0, s1, dt).state,
    ):
        outputs += [s.u.values, s.m.values]
    for x in outputs:
        assert same_bits(x, np.repeat(x[..., :1, :], J, axis=-2))


# The grid's symmetries on a (2, J, K) stack of vector components.  Each
# reflection maps index i to -i mod n along its axis and negates the
# component along it; a shift moves every entry one cell; the swap of x and
# y (square grids) transposes each layer and swaps the components.
def reflect_x(a):
    b = np.roll(a[..., ::-1], 1, axis=-1)
    b[0] *= -1.0
    return b


def reflect_y(a):
    b = np.roll(a[..., ::-1, :], 1, axis=-2)
    b[1] *= -1.0
    return b


def swap_xy(a):
    return np.ascontiguousarray(np.swapaxes(a[::-1], -1, -2))


GRID_MAPS = {
    "reflect_x": reflect_x,
    "reflect_y": reflect_y,
    "shift_x": lambda a: np.roll(a, 1, axis=-1),
    "shift_y": lambda a: np.roll(a, 1, axis=-2),
}

# Worst max-norm relative miss over 20 random draws per grid below: the
# Q-solve 1.6e-15 (any map), the bracket under the swap 2.3e-16, one step of
# rk4, scheme1 or scheme2 4.4e-15, of scheme3 1.3e-15.  Each bound leaves a
# margin of 3 to 5; scheme3's CG stops at a relative residual of 1e-13, so
# two runs may stop an iteration apart, and its bound is ten times that.
SOLVE_MISS = 5e-15
SWAPPED_BRACKET_MISS = 1e-15
STEP_MISS = 2e-14
SCHEME3_STEP_MISS = 1e-12


def relative_miss(got, expected) -> float:
    return float(np.abs(got - expected).max() / np.abs(expected).max())


@pytest.mark.parametrize("k,j", [(16, 16), (20, 20), (33, 33), (17, 12)])
def test_kernels_and_steps_commute_with_the_grid_symmetries(k, j, rng):
    # The bracket and apply-Q commute with both reflections and both shifts
    # bit for bit, on any platform: their arithmetic is elementwise and its
    # order does not depend on the index.  The Q-solve's transforms and the
    # steps that use them commute to rounding.  On a square grid so does
    # the swap of x and y; apply-Q keeps its bits there too, while the
    # bracket adds its x terms before its y terms and the solve splits off
    # the y-mean.
    g = GridSpec(k, j, 0.7)
    a, m, v, u = rng.standard_normal((4, 2) + g.shape)
    s0 = State.from_velocity(FieldPair.from_arrays(g, *u))
    dt = 0.2 * min(g.dx, g.dy) / float(np.abs(s0.m.values).max())
    s1 = step_rk4(s0, dt).state
    cfg = SchemeConfig(SchemeKind.SCHEME1_PC, dt)
    steps = {
        "rk4": (lambda p, c: step_rk4(c, dt), STEP_MISS),
        "scheme1": (lambda p, c: step_scheme1_pc(p, c, dt, cfg), STEP_MISS),
        "scheme2": (lambda p, c: step_scheme2(p, c, dt), STEP_MISS),
        "scheme3": (lambda p, c: step_scheme3(p, c, dt), SCHEME3_STEP_MISS),
    }
    maps = dict(GRID_MAPS, swap_xy=swap_xy) if k == j else GRID_MAPS

    def mapped(s, T):
        return State(FieldPair._wrap(g, T(s.u.values)), FieldPair._wrap(g, T(s.m.values)), s.t)

    for name, T in maps.items():
        bracket = _gamma_arrays(T(m), T(v), g), T(_gamma_arrays(m, v, g))
        assert same_bits(_apply_q_arr(T(a), g), T(_apply_q_arr(a, g))), name
        if name == "swap_xy":
            assert relative_miss(*bracket) <= SWAPPED_BRACKET_MISS
        else:
            assert same_bits(*bracket), name
        assert relative_miss(_solve_q_stack_arr(T(a), g), T(_solve_q_stack_arr(a, g))) <= SOLVE_MISS
        assert relative_miss(_solve_q_checked(T(a), g)[0], T(_solve_q_checked(a, g)[0])) <= SOLVE_MISS
        for scheme, (step, bound) in steps.items():
            got = step(mapped(s0, T), mapped(s1, T)).state
            expected = step(s0, s1).state
            for x, y in ((got.u, expected.u), (got.m, expected.m)):
                assert relative_miss(x.values, T(y.values)) <= bound, (name, scheme)

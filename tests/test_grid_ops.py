"""Grid geometry, inner products, stencils, and the screened-Laplacian solve."""

import numpy as np
import pytest

from epdiff import (
    FieldPair,
    GridMismatchError,
    GridSpec,
    NumericalFailureError,
    ScalarField,
    apply_q,
    d1x,
    d1y,
    d2,
    dminus_x,
    dminus_y,
    dplus_x,
    dplus_y,
    gamma_apply,
    hadamard,
    inner,
    norm,
    solve_q,
    solve_q_dense,
)
from epdiff.grid import _solve_q_checked
from conftest import random_field, random_pair

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

    def test_equality_is_by_geometry(self):
        assert GridSpec(8, 8, 0.5) == GridSpec(8, 8, 0.5)
        assert GridSpec(8, 8, 0.5) != GridSpec(8, 8, 0.25)


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
    for op in (apply_q, solve_q, solve_q_dense):
        out = op(p)
        assert np.array_equal(out.c1.values, op(p.c1).values)
        assert np.array_equal(out.c2.values, op(p.c2).values)
    # The bracket term by term, as its docstring spells it.
    (m1, m2), (v1, v2) = (p.c1, p.c2), (q.c1, q.c2)
    c1 = (hadamard(m1, d1x(v1)) + hadamard(m2, d1x(v2))
          + d1x(hadamard(m1, v1)) + d1y(hadamard(m1, v2)))
    c2 = (hadamard(m1, d1y(v1)) + hadamard(m2, d1y(v2))
          + d1x(hadamard(m2, v1)) + d1y(hadamard(m2, v2)))
    out = gamma_apply(p, q)
    assert np.array_equal(out.c1.values, c1.values)
    assert np.array_equal(out.c2.values, c2.values)


class TestHadamard:
    def test_ones_is_identity(self, rng):
        g = GridSpec(8, 8, 1.0)
        v = random_field(g, rng)
        assert np.array_equal(hadamard(v, ScalarField.full(g, 1.0)).values, v.values)
        assert np.all(hadamard(v, ScalarField.zeros(g)).values == 0.0)

    def test_norm_inequality(self, rng):
        # ||v.w|| <= ||v|| ||w|| / sqrt(dx dy), checked on many random pairs.
        g = GridSpec(8, 8, 1.0)
        bound_factor = 1.0 / np.sqrt(g.cell_area)
        for _ in range(100):
            v = random_field(g, rng)
            w = random_field(g, rng)
            assert norm(hadamard(v, w)) <= bound_factor * norm(v) * norm(w) * (1 + 1e-14)


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
    def test_constant_maps_to_zero(self):
        g = GridSpec(6, 8, 1.0)
        c = ScalarField.full(g, 2.0)
        for op in (dplus_x, dminus_x, dplus_y, dminus_y):
            assert np.all(op(c).values == 0.0)

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
        g = GridSpec(20, 20, 1.0)
        row = rng.standard_normal(g.K)
        u = solve_q(ScalarField(g, np.tile(row, (g.J, 1)))).values
        assert all(np.array_equal(u[0], u[j]) for j in range(g.J))

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

    def test_solve_of_zero_is_zero(self):
        g = GridSpec(8, 8, 1.0)
        assert np.all(solve_q(ScalarField.zeros(g)).values == 0.0)


class TestPeriodicity:
    def test_all_operators_commute_with_translations(self, rng):
        g = GridSpec(8, 6, 0.8)
        f = random_field(g, rng)
        shifted = ScalarField(g, np.roll(f.values, (2, 3), axis=(0, 1)))
        for op in (d1x, d1y, d2, dplus_x, dminus_x, dplus_y, dminus_y, apply_q):
            direct = op(shifted).values
            rolled = np.roll(op(f).values, (2, 3), axis=(0, 1))
            assert np.array_equal(direct, rolled)

"""Transport bracket, discrete energies, and states."""

import numpy as np
import pytest

from epdiff import (
    FieldPair,
    GridMismatchError,
    GridSpec,
    ScalarField,
    State,
    energy_half_scheme2,
    energy_half_scheme3,
    energy_scheme1,
    inner,
    linear_momenta,
    norm,
    sine_profile,
)
from conftest import gamma_apply, random_pair, random_state, solve_q


def constant_pair(grid, c1, c2=0.0):
    return FieldPair(ScalarField.full(grid, c1), ScalarField.full(grid, c2))


class TestState:
    def test_from_velocity_is_consistent(self, rng):
        s = random_state(GridSpec(10, 8, 0.6), rng)
        assert s.momentum_defect() <= 1e-11

    def test_from_momentum_is_consistent(self, rng):
        g = GridSpec(10, 8, 0.6)
        m = random_pair(g, rng)
        s = State(solve_q(m), m, 1.5)
        assert s.momentum_defect() <= 1e-11
        assert s.t == 1.5

    def test_roundtrip_between_constructors(self, rng):
        g = GridSpec(8, 8, 1.0)
        s = random_state(g, rng)
        back = State(solve_q(s.m), s.m, 0.0)
        assert norm(back.u - s.u) <= 1e-11 * norm(s.u)

    def test_negated_flips_both_fields(self, rng):
        s = random_state(GridSpec(6, 6, 1.0), rng)
        ns = s.negated(t=2.0)
        assert np.array_equal(ns.u.c1.values, -s.u.c1.values)
        assert np.array_equal(ns.m.c2.values, -s.m.c2.values)
        assert ns.t == 2.0

    def test_mismatched_grids_rejected(self, rng):
        u = random_pair(GridSpec(6, 6, 1.0), rng)
        m = random_pair(GridSpec(8, 6, 1.0), rng)
        with pytest.raises(GridMismatchError):
            State(u=u, m=m, t=0.0)


class TestGammaApply:
    def test_constant_state_is_equilibrium(self):
        g = GridSpec(8, 8, 1.0)
        m = constant_pair(g, 2.0)
        v = constant_pair(g, 2.0)
        out = gamma_apply(m, v)
        assert np.all(out.c1.values == 0.0)
        assert np.all(out.c2.values == 0.0)

    def test_skew_symmetry(self, rng):
        # inner(v, Gamma_m u) + inner(u, Gamma_m v) = 0 for all m, u, v.
        for k, j in ((8, 8), (16, 12), (32, 32)):
            g = GridSpec(k, j, 1.0)
            for _ in range(40):
                m = random_pair(g, rng)
                u = random_pair(g, rng)
                v = random_pair(g, rng)
                resid = inner(v, gamma_apply(m, u)) + inner(u, gamma_apply(m, v))
                scale = norm(m) * norm(u) * norm(v) / np.sqrt(g.cell_area)
                assert abs(resid) <= 1e-12 * scale

    def test_bilinearity(self, rng):
        g = GridSpec(8, 8, 1.0)
        m, m2, v, v2 = (random_pair(g, rng) for _ in range(4))
        scale = norm(gamma_apply(m, v)) + 1.0
        assert norm(gamma_apply(3.0 * m, v) - 3.0 * gamma_apply(m, v)) <= 1e-13 * scale
        assert (
            norm(gamma_apply(m + m2, v) - gamma_apply(m, v) - gamma_apply(m2, v))
            <= 1e-12 * (scale + norm(gamma_apply(m2, v)))
        )
        assert (
            norm(gamma_apply(m, v + v2) - gamma_apply(m, v) - gamma_apply(m, v2))
            <= 1e-12 * (scale + norm(gamma_apply(m, v2)))
        )

    def test_reduces_to_1d_bracket_for_flat_data(self, rng):
        # Data constant in y with zero second component: component 1 must match
        # a separately coded 1D periodic stencil for m d/dx u + d/dx(m u).
        g = GridSpec(16, 8, 1.0)
        m_row = rng.standard_normal(g.K)
        u_row = rng.standard_normal(g.K)

        def d1_periodic(row):
            return (np.roll(row, -1) - np.roll(row, 1)) / (2.0 * g.dx)

        expected = m_row * d1_periodic(u_row) + d1_periodic(m_row * u_row)

        m = FieldPair.from_arrays(g, np.tile(m_row, (g.J, 1)), np.zeros(g.shape))
        v = FieldPair.from_arrays(g, np.tile(u_row, (g.J, 1)), np.zeros(g.shape))
        out = gamma_apply(m, v)
        assert np.allclose(out.c1.values, np.tile(expected, (g.J, 1)), atol=1e-13)
        assert np.all(out.c2.values == 0.0)


class TestSemiDiscreteRhs:
    def test_constant_state_has_zero_tendency(self):
        g = GridSpec(8, 8, 1.0)
        s = State.from_velocity(constant_pair(g, 1.7))
        out = -gamma_apply(s.m, s.u)
        assert np.all(out.c1.values == 0.0)
        assert np.all(out.c2.values == 0.0)

    def test_sine_profile_keeps_second_component_zero(self):
        s = sine_profile(GridSpec(20, 20, 1.0))
        out = -gamma_apply(s.m, s.u)
        assert np.all(out.c2.values == 0.0)

    def test_energy_flux_vanishes(self, rng):
        g = GridSpec(12, 12, 0.8)
        for _ in range(25):
            s = random_state(g, rng)
            flux = inner(s.u, -gamma_apply(s.m, s.u))
            scale = norm(s.m) * norm(s.u) ** 2 / np.sqrt(g.cell_area)
            assert abs(flux) <= 1e-12 * scale


class TestEnergies:
    def test_unit_velocity_energy_is_half_area(self):
        g = GridSpec(10, 10, 1.0)
        s = State.from_velocity(constant_pair(g, 1.0))
        assert energy_scheme1(s) == pytest.approx(2.0, rel=1e-13)
        assert energy_scheme1(State.from_velocity(FieldPair.zeros(g))) == 0.0

    def test_sine_energy_against_double_loop(self):
        g = GridSpec(20, 20, 1.0)
        s = sine_profile(g)
        expected = 0.0
        for j in range(g.J):
            for k in range(g.K):
                expected += (
                    s.m.c1.values[j, k] * s.u.c1.values[j, k]
                    + s.m.c2.values[j, k] * s.u.c2.values[j, k]
                ) / 2.0
        expected *= g.cell_area
        assert expected > 0.0
        assert energy_scheme1(s) == pytest.approx(expected, rel=1e-13)

    def test_half_energies_collapse_to_pointwise(self, rng):
        g = GridSpec(10, 10, 1.0)
        s = random_state(g, rng)
        assert energy_half_scheme2(s, s) == pytest.approx(energy_scheme1(s), rel=1e-13)
        assert energy_half_scheme3(s, s) == pytest.approx(energy_scheme1(s), rel=1e-13)
        zero = State.from_velocity(FieldPair.zeros(g))
        assert energy_half_scheme2(zero, zero) == 0.0
        assert energy_half_scheme3(zero, zero) == 0.0

    def test_half_energies_against_double_loop(self, rng):
        g = GridSpec(6, 6, 1.0)
        a = random_state(g, rng)
        b = random_state(g, rng)
        cross = same = 0.0
        for j in range(g.J):
            for k in range(g.K):
                cross += (
                    b.m.c1.values[j, k] * a.u.c1.values[j, k]
                    + a.m.c1.values[j, k] * b.u.c1.values[j, k]
                    + b.m.c2.values[j, k] * a.u.c2.values[j, k]
                    + a.m.c2.values[j, k] * b.u.c2.values[j, k]
                ) / 4.0
                same += (
                    b.m.c1.values[j, k] * b.u.c1.values[j, k]
                    + a.m.c1.values[j, k] * a.u.c1.values[j, k]
                    + b.m.c2.values[j, k] * b.u.c2.values[j, k]
                    + a.m.c2.values[j, k] * a.u.c2.values[j, k]
                ) / 4.0
        assert energy_half_scheme2(a, b) == pytest.approx(cross * g.cell_area, rel=1e-12)
        assert energy_half_scheme3(a, b) == pytest.approx(same * g.cell_area, rel=1e-12)


class TestLinearMomenta:
    def test_unit_velocity(self):
        g = GridSpec(12, 12, 1.0)
        s = State.from_velocity(constant_pair(g, 1.0))
        mx, my = linear_momenta(s)
        assert mx == pytest.approx(4.0, rel=1e-14)
        assert my == 0.0

    def test_sine_profile_momenta(self):
        g = GridSpec(20, 20, 1.0)
        mx, my = linear_momenta(sine_profile(g))
        # The sine sums to zero over a full period of equispaced samples,
        # leaving the constant shift times the domain area.
        assert mx == pytest.approx(2.0 * (2.0 + np.pi**2), rel=1e-13)
        assert my == 0.0


class TestEnergyDifferenceIdentities:
    def test_two_level_pointwise_energy_identity(self, rng):
        # H(s_b) - H(s_a) = inner(avg(u_a, u_b), m_b - m_a) for any state pair.
        g = GridSpec(12, 10, 0.9)
        for _ in range(30):
            a = random_state(g, rng)
            b = random_state(g, rng)
            lhs = energy_scheme1(b) - energy_scheme1(a)
            rhs = inner(0.5 * (a.u + b.u), b.m - a.m)
            scale = abs(energy_scheme1(a)) + abs(energy_scheme1(b))
            assert abs(lhs - rhs) <= 1e-11 * scale

    def test_cross_averaged_energy_identity(self, rng):
        # H_half(s_n, s_np1) - H_half(s_nm1, s_n) telescopes against the
        # middle velocity for any state triple.
        g = GridSpec(10, 12, 1.1)
        for _ in range(30):
            a, b, c = (random_state(g, rng) for _ in range(3))
            lhs = energy_half_scheme2(b, c) - energy_half_scheme2(a, b)
            rhs = inner(b.u, 0.5 * (c.m - a.m))
            scale = abs(lhs) + abs(energy_half_scheme2(a, b)) + abs(energy_half_scheme2(b, c))
            assert abs(lhs - rhs) <= 1e-11 * scale

    def test_same_time_averaged_energy_identity(self, rng):
        g = GridSpec(10, 12, 1.1)
        for _ in range(30):
            a, b, c = (random_state(g, rng) for _ in range(3))
            lhs = energy_half_scheme3(b, c) - energy_half_scheme3(a, b)
            rhs = inner(0.5 * (a.u + c.u), 0.5 * (c.m - a.m))
            scale = abs(lhs) + abs(energy_half_scheme3(a, b)) + abs(energy_half_scheme3(b, c))
            assert abs(lhs - rhs) <= 1e-11 * scale

"""Invariant statistics, error norms, reversibility, and convergence."""

import numpy as np
import pytest

from epdiff import (
    FieldPair,
    GridSpec,
    NumericalFailureError,
    ScalarField,
    SchemeConfig,
    SchemeKind,
    State,
    convergence_study,
    invariant_stats,
    relative_l2_error,
    reversibility_test,
    sine_profile,
)
from epdiff.diagnostics import fit_loglog_slope
from conftest import random_pair


class TestInvariantStats:
    def test_constant_series(self):
        assert invariant_stats([3.0, 3.0, 3.0]) == (0.0, 0.0)
        assert invariant_stats([5.0]) == (0.0, 0.0)

    def test_zigzag(self):
        tv, sup = invariant_stats([0.0, 1.0, 0.0])
        assert tv == 2.0
        assert sup == 1.0

    def test_monotone_series_telescopes(self):
        series = [0.0, 0.5, 1.25, 2.0]
        tv, sup = invariant_stats(series)
        assert tv == pytest.approx(2.0)
        assert sup == pytest.approx(2.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            invariant_stats([])

    def test_shift_invariance(self, rng):
        series = rng.standard_normal(50)
        shifted = series + 1000.0
        tv_a, sup_a = invariant_stats(series)
        tv_b, sup_b = invariant_stats(shifted)
        assert tv_b == pytest.approx(tv_a, rel=1e-11, abs=1e-11)
        assert sup_b == pytest.approx(sup_a, rel=1e-11, abs=1e-11)


class TestRelativeL2Error:
    def test_identity_and_scaling(self, rng):
        g = GridSpec(8, 8, 1.0)
        b = random_pair(g, rng)
        assert relative_l2_error(b, b) == 0.0
        assert relative_l2_error(2.0 * b, b) == pytest.approx(1.0, rel=1e-13)

    def test_small_perturbation(self, rng):
        from epdiff import norm

        g = GridSpec(8, 8, 1.0)
        b = random_pair(g, rng)
        r = random_pair(g, rng)
        eps = 1e-6
        expected = eps * norm(r) / norm(b)
        assert relative_l2_error(b + eps * r, b) == pytest.approx(expected, rel=1e-6)

    def test_zero_reference_rejected(self, rng):
        g = GridSpec(8, 8, 1.0)
        with pytest.raises(ValueError):
            relative_l2_error(random_pair(g, rng), FieldPair.zeros(g))


class TestReversibility:
    def test_constant_state_reverses_exactly(self):
        g = GridSpec(10, 10, 1.0)
        s0 = State.from_velocity(
            FieldPair(ScalarField.full(g, 1.2), ScalarField.zeros(g))
        )
        for kind in SchemeKind:
            err = reversibility_test(s0, SchemeConfig(kind, 0.01), 0.2)
            assert err <= 1e-13

    @pytest.mark.parametrize("kind", [SchemeKind.SCHEME2, SchemeKind.SCHEME3])
    def test_error_decreases_with_dt_on_sine_benchmark(self, kind):
        # dt spans dx/4, dx/8, dx/16; the coarsest is beyond the advective
        # stability limit for this profile, so a diverged run counts as
        # infinitely irreversible.
        g = GridSpec(20, 20, 1.0)
        errs = []
        for divisor in (4, 8, 16):
            cfg = SchemeConfig(kind, g.dx / divisor)
            try:
                errs.append(reversibility_test(sine_profile(g), cfg, 0.25))
            except NumericalFailureError:
                errs.append(np.inf)
        assert errs[0] > errs[1] > errs[2]


class TestConvergenceStudy:
    @staticmethod
    def _amped_sine(grid):
        base = sine_profile(grid)
        return State.from_velocity(0.25 * base.u)

    def test_reference_level_has_zero_error(self):
        cfg = SchemeConfig(SchemeKind.SCHEME2, 1.0)
        pts = convergence_study(self._amped_sine, cfg, [16, 32], 32, 0.25, alpha=1.0)
        assert pts[-1][1] == 0.0
        assert pts[0][1] > 0.0

    def test_errors_decrease_with_h(self):
        cfg = SchemeConfig(SchemeKind.SCHEME2, 1.0)
        pts = convergence_study(self._amped_sine, cfg, [8, 16, 32], 64, 0.25, alpha=1.0)
        errs = [e for _, e in pts]
        assert errs[0] > errs[1] > errs[2]

    def test_non_nested_grid_rejected(self):
        cfg = SchemeConfig(SchemeKind.SCHEME2, 1.0)
        with pytest.raises(ValueError):
            convergence_study(self._amped_sine, cfg, [24], 64, 0.25, alpha=1.0)

    def test_slope_fit(self):
        pts = [(0.5, 0.2), (0.25, 0.1), (0.125, 0.05)]
        assert fit_loglog_slope(pts) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            fit_loglog_slope([(0.5, 0.0), (0.25, 0.0)])

import numpy as np
import pytest

from icrt_lab.errors import NotExcursionError
from icrt_lab.paths import (
    CadlagPath,
    build_ei_bridge,
    continuous_path,
    sample_brownian_bridge,
    sup_distance,
    validate_theta,
    vervaat_transform,
)
from icrt_lab.reflect import (
    infimum_range_measure,
    jump_intervals,
    reflect_component,
    reflected_excursion,
    sample_excursion,
    truncated_coupling,
)
from icrt_lab.rng import RngState

from conftest import assert_same_bits, make_single_jump, make_tent, union_grid_combination


def make_nested():
    """Two jumps, the second interval nested inside the first.

    Rise to 0.2 at 0.1; jump +0.3 to 0.5; decay to 0.4 at 0.3; jump +0.2
    to 0.6; decay with slope -6/7 to 0 at 1.
    """
    return CadlagPath(np.array([0.0, 0.1, 0.3, 1.0]),
                      np.array([0.0, 0.2, 0.4, 0.0]),
                      np.array([0.0, 0.5, 0.6, 0.0]))


def make_close_at_drop():
    """One jump whose interval closes at a downward jump at a breakpoint.

    Rise to 0.2 at 0.2; jump +0.3 to 0.5; decay to 0.4 at 0.5; drop to 0.1
    there, below the pre-jump level 0.2; decay to 0 at 1.
    """
    return CadlagPath(np.array([0.0, 0.2, 0.5, 1.0]),
                      np.array([0.0, 0.2, 0.4, 0.0]),
                      np.array([0.0, 0.5, 0.1, 0.0]))


def make_close_at_end():
    """One jump from level 0 whose interval closes at the end of the domain.

    Tent up to 0.2 at 0.25 and back to 0 at 0.5; jump +0.4; decay to 0 at 1.
    """
    return CadlagPath(np.array([0.0, 0.25, 0.5, 1.0]),
                      np.array([0.0, 0.2, 0.0, 0.0]),
                      np.array([0.0, 0.2, 0.4, 0.0]))


def make_signed_zeros():
    """make_single_jump with -0.0 stored at both ends, outside the window."""
    return CadlagPath(np.array([0.0, 0.2, 1.0]),
                      np.array([-0.0, 0.2, -0.0]),
                      np.array([-0.0, 0.5, -0.0]))


MANY_ATOMS = (0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.0223)


def theta_with_atoms(atoms):
    """The parameter sequence with these atoms and theta0 = sqrt(1 - sum of squares)."""
    return validate_theta(float(np.sqrt(1.0 - sum(a ** 2 for a in atoms))), atoms)


def combine_oracle(x, ivs):
    """x minus the components of the given intervals, through the pointwise
    combination on the whole union grid: the construction the window-only
    subtraction replaced."""
    comps = [reflect_component(x, iv) for iv in ivs]
    return union_grid_combination([x] + comps, [1.0] + [-1.0] * len(comps)) if comps else x


class TestJumpIntervals:
    def test_no_jumps(self):
        assert jump_intervals(make_tent()) == []

    def test_single_jump_interval(self):
        ivs = jump_intervals(make_single_jump())
        assert len(ivs) == 1
        iv = ivs[0]
        assert iv.t_open == 0.2
        # solve 0.5 - 0.625 (s - 0.2) = 0.2
        assert iv.t_close == pytest.approx(0.68, abs=1e-12)
        assert iv.size == pytest.approx(0.3)

    def test_nested_intervals(self):
        ivs = jump_intervals(make_nested())
        assert len(ivs) == 2
        outer, inner = ivs
        # first return of the inner jump: 0.6 - (6/7)(s - 0.3) = 0.4
        assert inner.t_close == pytest.approx(0.3 + 0.2 * 7 / 6, abs=1e-12)
        # first return of the outer jump: 0.6 - (6/7)(s - 0.3) = 0.2
        assert outer.t_close == pytest.approx(0.3 + 0.4 * 7 / 6, abs=1e-12)
        assert outer.t_open < inner.t_open < inner.t_close < outer.t_close

    def test_not_excursion(self):
        dip = continuous_path([0.0, 0.5, 1.0], [0.0, -0.1, 0.0])
        with pytest.raises(NotExcursionError):
            jump_intervals(dip)

    def test_laminar_on_samples(self, reference_theta):
        for k in range(50):
            exc = sample_excursion(reference_theta, 256, RngState(13).child(k))
            ivs = jump_intervals(exc)
            for a in ivs:
                for b in ivs:
                    if a.index == b.index:
                        continue
                    disjoint = a.t_close <= b.t_open or b.t_close <= a.t_open
                    nested = ((a.t_open <= b.t_open and b.t_close <= a.t_close)
                              or (b.t_open <= a.t_open and a.t_close <= b.t_close))
                    assert disjoint or nested


class TestReflectComponent:
    def test_single_jump_formula(self):
        x = make_single_jump()
        iv = jump_intervals(x)[0]
        comp = reflect_component(x, iv)
        for u in [0.25, 0.4, 0.6]:
            assert comp.value(u) == pytest.approx(0.3 - 0.625 * (u - 0.2), abs=1e-12)
        assert comp.value(0.0) == 0.0
        assert comp.value(1.0) == 0.0
        assert comp.value(iv.t_open) == pytest.approx(iv.size)
        assert comp.value(iv.t_close) == 0.0


class TestReflectedExcursion:
    def test_no_jumps_identity(self):
        tent = make_tent()
        assert sup_distance(reflected_excursion(tent), tent) == 0.0

    def test_single_jump_profile(self):
        x = make_single_jump()
        y = reflected_excursion(x)
        assert y.value(0.1) == pytest.approx(0.1, abs=1e-12)   # rising part kept
        for u in [0.2, 0.35, 0.5, 0.68]:
            assert y.value(u) == pytest.approx(0.2, abs=1e-12)  # flat across the interval
        assert y.value(0.9) == pytest.approx(x.value(0.9), abs=1e-12)

    def test_continuity_and_positivity(self, reference_theta):
        for k in range(50):
            exc = sample_excursion(reference_theta, 512, RngState(14).child(k))
            y = reflected_excursion(exc)
            assert np.abs(y.right - y.left).max() <= 1e-12
            assert y.min_value() >= -1e-12
            assert y.value(0.0) == 0.0 and y.value(1.0) == 0.0

    def test_flat_only_inside_jump_intervals(self, reference_theta):
        # within an interval free of nested jumps, the reflected path minus
        # its value at the opening equals the excursion above its running low
        for k in range(10):
            exc = sample_excursion(reference_theta, 512, RngState(15).child(k))
            y = reflected_excursion(exc)
            ivs = jump_intervals(exc)
            for iv in ivs:
                inner = [b for b in ivs if b.index != iv.index
                         and iv.t_open < b.t_open < iv.t_close]
                if inner:
                    continue
                for u in np.linspace(iv.t_open, iv.t_close, 7):
                    gap = y.value(u) - y.value(iv.t_open)
                    assert gap >= -1e-9


class TestRangeMeasureOracle:
    def test_monotone_case(self):
        x = continuous_path([0.0, 1.0], [0.0, 0.8])
        assert infimum_range_measure(x, 0.5) == pytest.approx(0.4, abs=1e-15)

    def test_single_jump_value(self):
        assert infimum_range_measure(make_single_jump(), 0.5) == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_interval(self):
        assert infimum_range_measure(make_tent(), 0.0) == 0.0

    def test_oracle_matches_reflection(self, reference_theta, brownian_theta):
        for k in range(20):
            theta = reference_theta if k % 2 else brownian_theta
            exc = sample_excursion(theta, 1024, RngState(16).child(k))
            y = reflected_excursion(exc)
            for s in np.linspace(0.005, 0.995, 25):
                assert abs(y.value(s) - infimum_range_measure(exc, float(s))) <= 1e-9


class TestTruncatedCoupling:
    def _shared(self, seed, reference_theta):
        rng = RngState(18).child(seed)
        bridge = sample_brownian_bridge(512, rng)
        us = [float(rng.gen.uniform()) for _ in reference_theta.atoms]
        return bridge, us

    def test_full_truncation_identical(self, reference_theta):
        bridge, us = self._shared(0, reference_theta)
        y_t, y_f = truncated_coupling(reference_theta, 3, bridge, us)
        assert sup_distance(y_t, y_f) == 0.0

    def test_tail_bound(self, reference_theta):
        bridge, us = self._shared(1, reference_theta)
        y_t, y_f = truncated_coupling(reference_theta, 2, bridge, us)
        assert sup_distance(y_t, y_f) <= 0.216 + 1e-9

    def test_monotone_in_keep(self, reference_theta):
        for seed in range(10):
            bridge, us = self._shared(seed, reference_theta)
            dists = []
            for keep in (1, 2, 3):
                y_t, y_f = truncated_coupling(reference_theta, keep, bridge, us)
                dists.append(sup_distance(y_t, y_f))
            assert dists[0] >= dists[1] >= dists[2]

    def test_ties_keep_the_largest_jumps(self):
        # the two 0.2 jumps tie exactly on some realizations; the 0.3 jump
        # must be kept whichever of the three comes first
        atoms = (0.3, 0.2, 0.2)
        theta = theta_with_atoms(atoms)
        for k in range(200):
            rng = RngState(31).child(k)
            bridge = sample_brownian_bridge(64, rng)
            us = [float(rng.gen.uniform()) for _ in atoms]
            for keep in (1, 2):
                y_t, y_f = truncated_coupling(theta, keep, bridge, us)
                # a subtracted component cancels its jump, so the truncated
                # path jumps only at the dropped atoms
                _, sizes = y_t.jumps()
                assert sizes.max(initial=0.0) < 0.25, (k, keep)
                assert sup_distance(y_t, y_f) <= sum(atoms[keep:]) + 1e-9, (k, keep)


class TestWindowOnlySubtraction:
    """reflected_excursion and truncated_coupling against the combine-based
    oracle, bit for bit."""

    @pytest.mark.parametrize("make", [make_single_jump, make_nested, make_tent,
                                      make_close_at_drop, make_close_at_end,
                                      make_signed_zeros])
    def test_hand_paths(self, make):
        x = make()
        assert_same_bits(reflected_excursion(x), combine_oracle(x, jump_intervals(x)))

    def test_hand_windows_reach_their_bounds(self):
        (iv,) = jump_intervals(make_close_at_drop())
        assert iv.t_close == 0.5
        (iv,) = jump_intervals(make_close_at_end())
        assert iv.t_close == 1.0

    @pytest.mark.parametrize("grid", [2, 3, 8, 64, 2 ** 10, 2 ** 14])
    @pytest.mark.parametrize("atoms", ["reference", "many"])
    def test_sampled_excursions(self, grid, atoms, reference_theta):
        theta = reference_theta if atoms == "reference" else theta_with_atoms(MANY_ATOMS)
        for k in range(4 if grid == 2 ** 14 else 20):
            x = sample_excursion(theta, grid, RngState(19).child(k))
            assert_same_bits(reflected_excursion(x), combine_oracle(x, jump_intervals(x)))

    @pytest.mark.parametrize("grid", [8, 2 ** 10])
    @pytest.mark.parametrize("atoms", ["reference", "many"])
    def test_truncated_coupling_every_keep(self, grid, atoms, reference_theta):
        theta = reference_theta if atoms == "reference" else theta_with_atoms(MANY_ATOMS)
        for k in range(5):
            rng = RngState(20).child(k)
            bridge = sample_brownian_bridge(grid, rng)
            us = [float(rng.gen.uniform()) for _ in theta.atoms]
            x = vervaat_transform(build_ei_bridge(theta, bridge, jump_times=us))
            ivs = jump_intervals(x)
            by_size = np.argsort([-iv.size for iv in ivs], kind="stable")
            for keep in range(theta.length + 1):
                kept = [ivs[i] for i in sorted(by_size[:keep])]
                y_t, y_f = truncated_coupling(theta, keep, bridge, us)
                assert_same_bits(y_f, combine_oracle(x, ivs))
                assert_same_bits(y_t, combine_oracle(x, kept))

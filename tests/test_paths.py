import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icrt_lab.errors import JumpCollisionError, NormError, SignError, ZeroTheta0Error
from icrt_lab.paths import (
    CadlagPath,
    _ei_jump_values,
    build_ei_bridge,
    continuous_path,
    cyclic_shift,
    first_passage_below,
    running_infimum_forward,
    sample_brownian_bridge,
    sup_distance,
    validate_theta,
    vervaat_transform,
)
from icrt_lab.rng import RngState
from icrt_lab.verify import BROWNIAN_THETA, REFERENCE_THETA

from conftest import make_tent


def reference_ei_bridge(theta, bridge, jump_times=None, rng=None):
    """Set-based construction of the exchangeable-increment bridge: a
    Python set of the grid for the collision test, and the bridge
    re-evaluated at every breakpoint.  Test-only oracle for
    paths.build_ei_bridge."""
    n_atoms = len(theta.atoms)
    grid = bridge.times
    if jump_times is None:
        if n_atoms > 0 and rng is None:
            raise ValueError("rng required to sample jump times")
        jump_times = []
        taken = set(grid.tolist())
        while len(jump_times) < n_atoms:
            u = float(rng.gen.uniform(0.0, 1.0))
            if u in taken or not 0.0 < u < 1.0:
                continue
            taken.add(u)
            jump_times.append(u)
    else:
        jump_times = [float(u) for u in jump_times]
        if len(jump_times) != n_atoms:
            raise ValueError("need one jump time per atom")
        if any(not 0.0 < u < 1.0 for u in jump_times):
            raise ValueError("jump times must lie in (0, 1)")
        if len(set(jump_times)) != n_atoms:
            raise JumpCollisionError("duplicate jump times")
        if set(jump_times) & set(grid.tolist()):
            raise JumpCollisionError("jump time collides with a grid point")
    if n_atoms:
        u_arr = np.asarray(jump_times, dtype=float)
        t = np.unique(np.concatenate([grid, u_arr]))
        jl, jr = _ei_jump_values(theta.atoms, u_arr, t)
    else:
        t = grid.copy()
        jl = jr = np.zeros_like(t)
    cont = theta.theta0 * bridge.value(t)
    left = cont + jl
    right = cont + jr
    left[0] = right[0] = 0.0
    left[-1] = right[-1] = 0.0
    return CadlagPath(t, left, right)


def assert_same_path(got, want):
    for a, b in [(got.times, want.times), (got.left, want.left), (got.right, want.right)]:
        assert a.tobytes() == b.tobytes()


class ScriptedRng:
    """Stand-in for RngState whose uniform draws are scripted values."""

    def __init__(self, values):
        self.gen = self
        self.values = list(values)
        self.draws = 0

    def uniform(self, low, high):
        self.draws += 1
        return self.values.pop(0)


class TestValidateTheta:
    def test_brownian_case(self):
        th = validate_theta(1.0, [])
        assert th.theta0 == 1.0 and th.length == 0

    def test_published_three_decimals_accepted(self):
        th = validate_theta(0.862, [0.345, 0.302, 0.216])
        assert th.length == 3
        assert th.atoms == (0.345, 0.302, 0.216)

    def test_norm_violation(self):
        with pytest.raises(NormError):
            validate_theta(0.5, [0.5])

    def test_negative_entry(self):
        with pytest.raises(SignError):
            validate_theta(0.8, [-0.6])

    def test_zero_theta0_with_atoms(self):
        with pytest.raises(ZeroTheta0Error):
            validate_theta(0.0, [1.0])

    def test_resort_flag(self):
        th = validate_theta(0.862, [0.216, 0.345, 0.302])
        assert th.atoms == (0.345, 0.302, 0.216)


class TestBrownianBridge:
    def test_endpoints_zero(self):
        for seed in range(5):
            b = sample_brownian_bridge(64, RngState(seed))
            assert b.value(0.0) == 0.0 and b.value(1.0) == 0.0

    def test_variance_at_half(self):
        # grid marginals are exact, so the sample variance at t = 0.5 must
        # sit within 3 standard errors of 0.25
        reps = 10_000
        vals = np.array([sample_brownian_bridge(4096, RngState(123).child(k)).value(0.5)
                         for k in range(reps)])
        se = 0.25 * np.sqrt(2.0 / (reps - 1))
        assert abs(vals.var(ddof=1) - 0.25) < 3 * se

    def test_covariance_quarter_three_quarter(self):
        reps = 10_000
        a = np.empty(reps)
        b = np.empty(reps)
        for k in range(reps):
            path = sample_brownian_bridge(4096, RngState(321).child(k))
            a[k] = path.value(0.25)
            b[k] = path.value(0.75)
        cov = np.cov(a, b, ddof=1)[0, 1]
        # var of the sample covariance of a bivariate normal
        se = np.sqrt((0.1875 * 0.1875 + 0.0625 ** 2) / reps)
        assert abs(cov - 0.0625) < 3 * se


class TestEiBridge:
    def test_no_atoms_passthrough(self):
        b = sample_brownian_bridge(128, RngState(5))
        x = build_ei_bridge(validate_theta(1.0, []), b)
        assert sup_distance(b, x) == 0.0

    def test_zero_bridge_single_atom(self):
        th = validate_theta(0.6, [0.8])
        x = build_ei_bridge(th, continuous_path([0.0, 1.0], [0.0, 0.0]), jump_times=[0.5])
        assert x.value(0.25) == pytest.approx(-0.2, abs=1e-15)
        assert x.value(0.75) == pytest.approx(0.2, abs=1e-15)
        times, sizes = x.jumps()
        assert list(times) == [0.5] and list(sizes) == [0.8]

    def test_endpoints_zero(self, reference_theta):
        b = sample_brownian_bridge(256, RngState(9))
        x = build_ei_bridge(reference_theta, b, rng=RngState(10))
        assert x.value(0.0) == 0.0 and x.value(1.0) == 0.0

    def test_jump_sizes_exact(self, reference_theta):
        b = sample_brownian_bridge(512, RngState(11))
        x = build_ei_bridge(reference_theta, b, rng=RngState(12))
        _, sizes = x.jumps()
        assert sorted(sizes, reverse=True) == list(reference_theta.atoms)

    def test_collision_raises(self):
        th = validate_theta(0.6, [0.8])
        b = sample_brownian_bridge(4, RngState(1))
        with pytest.raises(JumpCollisionError):
            build_ei_bridge(th, b, jump_times=[0.25])  # grid point of m=4
        th2 = validate_theta(0.6, [0.5657, 0.5657])
        with pytest.raises(JumpCollisionError):
            build_ei_bridge(th2, b, jump_times=[0.3, 0.3])


class TestEiBridgeOracle:
    @pytest.mark.parametrize("m, seeds", [(2, 50), (3, 50), (64, 50), (2 ** 12, 50),
                                          (2 ** 14, 5)])
    def test_sampled_jump_times_match(self, m, seeds):
        for theta in (BROWNIAN_THETA, REFERENCE_THETA):
            for k in range(seeds):
                b = sample_brownian_bridge(m, RngState(41).child(k))
                rng, ref_rng = RngState(42).child(k), RngState(42).child(k)
                assert_same_path(build_ei_bridge(theta, b, rng=rng),
                                 reference_ei_bridge(theta, b, rng=ref_rng))
                assert rng.gen.random() == ref_rng.gen.random()

    @pytest.mark.parametrize("m", [2, 3, 64, 2 ** 12])
    def test_explicit_jump_times_match(self, m):
        for k in range(50):
            b = sample_brownian_bridge(m, RngState(43).child(k))
            u = RngState(44).child(k).gen.random(3)  # unsorted
            assert_same_path(build_ei_bridge(REFERENCE_THETA, b, jump_times=u),
                             reference_ei_bridge(REFERENCE_THETA, b, jump_times=u))
            assert_same_path(build_ei_bridge(BROWNIAN_THETA, b, jump_times=[]),
                             reference_ei_bridge(BROWNIAN_THETA, b, jump_times=[]))
            on_grid = [u[0], b.times[1 + k % (m - 1)], u[2]]
            for build in (build_ei_bridge, reference_ei_bridge):
                with pytest.raises(JumpCollisionError):
                    build(REFERENCE_THETA, b, jump_times=on_grid)

    def test_bridge_with_jumps_matches(self):
        # a bridge with jumps, where left and right values differ
        for k in range(20):
            b = build_ei_bridge(REFERENCE_THETA, sample_brownian_bridge(64, RngState(45).child(k)),
                                rng=RngState(46).child(k))
            for theta in (BROWNIAN_THETA, REFERENCE_THETA):
                rng, ref_rng = RngState(47).child(k), RngState(47).child(k)
                assert_same_path(build_ei_bridge(theta, b, rng=rng),
                                 reference_ei_bridge(theta, b, rng=ref_rng))

    def test_resampling_rule(self):
        # 0.25 is a grid point of m = 4, 0.0 lies outside (0, 1) and the
        # second 0.3 repeats an accepted jump time: each is redrawn
        th = validate_theta(0.6, [0.5657, 0.5657])
        rng = ScriptedRng([0.25, 0.0, 0.3, 0.3, 0.7])
        x = build_ei_bridge(th, sample_brownian_bridge(4, RngState(1)), rng=rng)
        times, _ = x.jumps()
        assert list(times) == [0.3, 0.7]
        assert rng.draws == 5 and rng.values == []


class TestVervaat:
    def test_nonnegative_identity_case(self):
        tent = make_tent()
        # the infimum sits at time 0, so nothing is relocated
        assert sup_distance(vervaat_transform(tent), tent) == 0.0

    def test_triangle_to_tent(self):
        tri = continuous_path([0.0, 0.5, 1.0], [0.0, -0.5, 0.0])
        out = vervaat_transform(tri)
        # the infimum at 1/2 becomes the origin: the relocated path is the tent
        assert sup_distance(out, make_tent()) <= 1e-15
        assert out.value(0.25) == pytest.approx(0.25, abs=1e-15)
        assert out.value(0.75) == pytest.approx(0.25, abs=1e-15)
        assert out.value(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_random_inputs_nonnegative_zero_endpoints(self, reference_theta):
        # re-basing property on 1000 random bridges
        for k in range(1000):
            rng = RngState(77).child(k)
            b = sample_brownian_bridge(32, rng)
            x = build_ei_bridge(reference_theta, b, rng=rng)
            out = vervaat_transform(x)
            assert out.min_value() >= 0.0
            assert out.value(0.0) >= 0.0 and out.value(1.0) == 0.0
            _, sizes = out.jumps()
            assert sorted(sizes, reverse=True) == pytest.approx(list(reference_theta.atoms))


class TestRunningInfimum:
    def test_forward_on_tent(self):
        m = running_infimum_forward(make_tent(), 0.25, 1.0)
        assert m.value(0.5) == pytest.approx(0.25)  # still at entry value
        assert m.value(0.8) == pytest.approx(0.2)   # following the decay
        assert m.value(1.0) == pytest.approx(0.0)


class TestFirstPassage:
    def test_tent_from_peak(self):
        assert first_passage_below(make_tent(), 0.5, 0.2) == pytest.approx(0.8, abs=1e-15)

    def test_no_crossing(self):
        x = continuous_path([0.0, 1.0], [1.0, 2.0])
        assert first_passage_below(x, 0.2, 0.5) is None

    def test_immediate_passage(self):
        tent = make_tent()
        assert first_passage_below(tent, 0.6, tent.value(0.6)) == 0.6

    def test_downward_jump_hit(self):
        x = CadlagPath(np.array([0.0, 0.5, 1.0]),
                       np.array([1.0, 1.0, 0.2]),
                       np.array([1.0, 0.2, 0.2]))
        assert first_passage_below(x, 0.0, 0.5) == 0.5


class TestCadlagPath:
    def test_value_and_left_limit_at_jump(self):
        x = CadlagPath(np.array([0.0, 0.5, 1.0]),
                       np.array([0.0, 0.2, 0.6]),
                       np.array([0.0, 0.5, 0.6]))
        assert x.value(0.5) == 0.5
        assert x.left_limit(0.5) == 0.2
        assert x.value(0.25) == pytest.approx(0.1)

    def test_interval_inf_counts_left_limits(self):
        x = CadlagPath(np.array([0.0, 0.5, 1.0]),
                       np.array([1.0, 0.2, 1.0]),
                       np.array([1.0, 0.9, 1.0]))
        # the value 0.2 is only approached from the left of 0.5
        assert x.interval_inf(0.0, 0.5) == pytest.approx(0.2)
        assert x.interval_inf(0.5, 1.0) == pytest.approx(0.9)

    def test_csv_roundtrip(self, tmp_path):
        x = CadlagPath(np.array([0.0, 0.3, 1.0]),
                       np.array([0.0, 0.1, 0.4]),
                       np.array([0.0, 0.25, 0.4]))
        f = tmp_path / "p.csv"
        x.to_csv(f)
        data = np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2)
        y = CadlagPath(data[:, 0], data[:, 1], data[:, 2])
        assert sup_distance(x, y) == 0.0

    def test_csv_text_is_pinned(self):
        # the format `icrt-lab sample` writes: 17 significant digits, the
        # sign of zero kept, one row per breakpoint with both values
        x = CadlagPath(np.array([0.0, 0.1, 1.0]),
                       np.array([-0.0, 0.1, 0.0]),
                       np.array([-0.0, 0.35, 0.0]))
        buf = io.StringIO()
        x.to_csv(buf)
        assert buf.getvalue() == ("t,left_value,right_value\n"
                                  "0,-0,-0\n"
                                  "0.10000000000000001,0.10000000000000001,0.34999999999999998\n"
                                  "1,0,0\n")

    def test_cyclic_shift_preserves_jumps(self):
        x = CadlagPath(np.array([0.0, 0.3, 0.7, 1.0]),
                       np.array([0.0, -0.1, 0.2, 0.0]),
                       np.array([0.0, 0.3, 0.4, 0.0]))
        y = cyclic_shift(x, 0.7, x.left_limit(0.7))
        _, s_x = x.jumps()
        _, s_y = y.jumps()
        assert sorted(s_x) == sorted(s_y)


def union_grid_sup_distance(a, b):
    """Both paths read at every breakpoint of either, on the union grid.
    Test-only oracle for paths.sup_distance."""
    t = np.unique(np.concatenate([a.times, b.times]))
    dl = np.abs(a.left_limit(t) - b.left_limit(t)).max()
    dr = np.abs(a.value(t) - b.value(t)).max()
    return float(max(dl, dr))


def random_path(gen, pool):
    """Path on a random sub-domain of [0, 1) whose breakpoints come partly
    from a pool shared with other paths, with a jump at about half of them."""
    k = int(gen.integers(2, 25))
    own = gen.random(k)
    shared = gen.choice(pool, size=int(gen.integers(0, k + 1)))
    times = np.unique(np.concatenate([own, shared]))
    left = gen.normal(size=times.size)
    right = np.where(gen.random(times.size) < 0.5, left, gen.normal(size=times.size))
    return CadlagPath(times, left, right)


class TestSupDistance:
    def test_matches_union_grid_bitwise(self):
        gen = np.random.default_rng(2024)
        for _ in range(1500):
            pool = gen.random(int(gen.integers(1, 8)))
            a, b = random_path(gen, pool), random_path(gen, pool)
            assert sup_distance(a, b) == union_grid_sup_distance(a, b)
            assert sup_distance(b, a) == union_grid_sup_distance(a, b)

    def test_hand_pairs(self):
        x = CadlagPath(np.array([0.0, 0.5, 1.0]),
                       np.array([0.0, 0.2, 0.6]),
                       np.array([0.0, 0.5, 0.6]))
        # the same breakpoints, one jump moved to the other side
        y = CadlagPath(x.times, np.array([0.0, 0.5, 0.6]), np.array([0.0, 0.2, 0.6]))
        # a shorter domain inside x's, and one reaching past it
        inner = CadlagPath(np.array([0.25, 0.5, 0.75]), np.array([0.1, 0.2, 0.3]),
                           np.array([0.1, 0.5, 0.3]))
        outer = CadlagPath(np.array([0.5, 2.0]), np.array([0.4, 0.0]), np.array([0.5, 0.0]))
        for a, b in ((x, x), (x, y), (x, inner), (x, outer), (inner, outer)):
            assert sup_distance(a, b) == union_grid_sup_distance(a, b)
        assert sup_distance(x, x) == 0.0
        assert sup_distance(x, y) == pytest.approx(0.3)

    @pytest.mark.parametrize("n", [1000, 10_000, 100_000])
    def test_exploration_gap_paths(self, n, monkeypatch):
        # the height and corrected-excursion paths exploration_gap compares
        from icrt_lab import ptree

        pairs = []
        monkeypatch.setattr(ptree, "sup_distance", lambda a, b: pairs.append((a, b)) or 0.0)
        for p in (ptree.uniform_pseq(n), ptree.approximating_pseq(REFERENCE_THETA, n)):
            for k in range(2):
                ptree.exploration_gap(p, RngState(7).child(k))
        assert len(pairs) == 4
        for a, b in pairs:
            assert sup_distance(a, b) == union_grid_sup_distance(a, b)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_vervaat_min_is_zero_property(seed):
    rng = RngState(31337).child(seed)
    b = sample_brownian_bridge(16, rng)
    out = vervaat_transform(b)
    assert out.min_value() >= 0.0
    assert abs(out.min_value()) < 1e-12

"""Random streams and the replicate helper behind the verification suites.

Every suite draws from streams named (attempt, side, replicate, rejection)
off `RngState(seed)`, and runs its builds through `verify._run_checks`:
a build returns the reports of one attempt, and a failing report is
replaced by the same report of attempt 1, built at most once.
"""

import zlib

import numpy as np
import pytest

from icrt_lab import verify
from icrt_lab.ptree import PSeq, approximating_pseq
from icrt_lab.rng import RngState
from icrt_lab import stats

# Tiny runs of every suite: enough to name every side each suite draws from.
SMALL_RUNS = {
    "identities": lambda: verify.suite_identities(n=20, reps=2, seed=5),
    "btree-law": lambda: verify.suite_tree_law(samples=5000, seed=5),
    "theorem1": lambda: verify.suite_theorem1(replicates=2, grid=16, seed=5),
    "theorem2": lambda: verify.suite_theorem2(n=200, replicates=2, seed=5, marginal_reps=2),
    "jeulin": lambda: verify.suite_jeulin(grid=16, replicates=2, seed=5),
    "pkey": lambda: verify.suite_pkey(ns=(20, 40), reps=2, seed=5),
    "unifconv": lambda: verify.suite_unifconv(reps=2, grid=16, seed=5),
    "repeat-time": lambda: verify.suite_repeat_time(n=5, replicates=3, seed=5),
    "y-oracle": lambda: verify.suite_y_oracle(reps=2, grid=16, seed=5),
}

ATTEMPT0 = RngState(5).child(0)


@pytest.fixture(scope="module")
def sides():
    """Side names each suite draws from, in order of first use."""
    out = {}
    real = verify._stream
    with pytest.MonkeyPatch.context() as mp:
        for suite, run in SMALL_RUNS.items():
            seen = {}

            def recording(rng, side, k=0, rejection=0, seen=seen):
                seen.setdefault(side, None)
                return real(rng, side, k, rejection)

            mp.setattr(verify, "_stream", recording)
            run()
            out[suite] = list(seen)
    return out


def draws(side, k=0, rejection=0):
    return verify._stream(ATTEMPT0, side, k, rejection).gen.random(4)


def assert_apart(a, b):
    assert not np.array_equal(a, b)


class TestRngState:
    def test_root_stream_is_unchanged(self):
        assert np.array_equal(RngState(5).gen.random(8),
                              np.random.default_rng((5, 0)).random(8))

    def test_children_are_apart_from_the_root_and_each_other(self):
        root = RngState(5)
        streams = [root, root.child(0), root.child(1), root.child(1, 2), root.child(1, 2, 0),
                   root.child(2, 1), RngState(6)]
        values = [s.gen.random(4) for s in streams]
        for i in range(len(values)):
            for j in range(i):
                assert_apart(values[i], values[j])

    def test_child_is_deterministic(self):
        a = RngState(9).child(3, 4)
        b = RngState(9).child(3).child(4)
        assert a.spawn_key == b.spawn_key == (3, 4)
        assert np.array_equal(a.gen.random(4), b.gen.random(4))

    @pytest.mark.parametrize("key", [(-1,), (2 ** 32,)])
    def test_key_entries_outside_32_bits_raise(self, key):
        with pytest.raises(ValueError, match="spawn key"):
            RngState(5).child(*key)


class TestStreamsNeverCollide:
    def test_side_names_are_apart(self, sides):
        names = [s for suite in sides.values() for s in suite]
        assert all(sides.values())
        assert len(set(names)) == len(names)
        assert len({zlib.crc32(s.encode()) for s in names}) == len(names)

    def test_jeulin_sample_and_mean_check_streams(self, sides):
        sample, mean = sides["jeulin"][:2], sides["jeulin"][2:]
        assert len(sample) == len(mean) == 2
        for a in sample:
            for b in mean:
                assert_apart(draws(a, 150_000), draws(b, 1))

    def test_theorem2_spanning_rejections(self, sides):
        spanning = sides["theorem2"][0]
        for k in (0, 1, 57):
            assert_apart(draws(spanning, k, 64), draws(spanning, k + 1, 0))
            assert_apart(draws(spanning, k, 1), draws(spanning, k + 1, 0))

    def test_theorem1_function_and_line_breaking_streams(self, sides):
        function, *line_breaking = sides["theorem1"][:4]
        assert len(line_breaking) == 3
        for lb in line_breaking:
            assert_apart(draws(function, 500_000), draws(lb, 0))

    def test_y_oracle_and_unifconv_bridges(self, sides):
        (y_side,), (u_side,) = sides["y-oracle"], sides["unifconv"]
        for r in range(4):
            assert_apart(draws(y_side, r), draws(u_side, r))

    def test_attempts_are_apart(self, sides):
        side = sides["repeat-time"][0]
        retry = verify._stream(RngState(5).child(1), side).gen.random(4)
        assert_apart(draws(side), retry)


def scripted(passed_p):
    passed, p = passed_p
    return stats.TestReport(suite="scripted", statistic=0.0, p_value=p, passed=passed, n_samples=1)


def recording_build(verdicts_of_attempt):
    """A build that returns the scripted reports of each attempt and records
    the spawn key of every attempt it makes."""
    made = []

    def build(rng):
        made.append(rng.spawn_key)
        return [scripted(v) for v in verdicts_of_attempt[rng.spawn_key[-1]]]
    return build, made


class TestRunChecks:
    def test_pass_gives_one_report(self):
        build, made = recording_build({0: [(True, 0.4)]})
        reports, ok = verify._run_checks(7, [build])
        assert ok and len(reports) == 1
        assert "retried" not in reports[0].extra and reports[0].seed == 7
        assert made == [(0,)]

    def test_fail_then_pass_gives_two_reports(self):
        build, made = recording_build({0: [(False, 0.003)], 1: [(True, 0.6)]})
        reports, ok = verify._run_checks(7, [build])
        assert ok
        assert [r.passed for r in reports] == [False, True]
        assert "retried" not in reports[0].extra
        assert reports[1].extra == {"retried": True, "first_p": 0.003}
        assert [r.seed for r in reports] == [7, 7]
        assert made == [(0,), (1,)]

    def test_fail_twice_fails_the_suite(self):
        build, _ = recording_build({0: [(False, 0.003)], 1: [(False, 0.001)]})
        reports, ok = verify._run_checks(7, [build])
        assert not ok
        assert [r.passed for r in reports] == [False, False]
        assert reports[1].extra["retried"] is True

    def test_retry_build_is_made_once(self):
        # reports of one build share its data: a failure in one rebuilds
        # attempt 1 for that build only
        build, made = recording_build({0: [(False, 0.003), (True, 0.2)],
                                       1: [(True, 0.6), (False, 0.001)]})
        other, other_made = recording_build({0: [(True, 0.5)]})
        reports, ok = verify._run_checks(7, [build, other])
        assert ok
        assert [r.extra.get("retried", False) for r in reports] == [False, True, False, False]
        assert [r.p_value for r in reports] == [0.003, 0.6, 0.2, 0.5]
        assert made == [(0,), (1,)]
        assert other_made == [(0,)]

    def test_second_failure_reuses_the_retry_build(self):
        build, made = recording_build({0: [(False, 0.003), (True, 0.2), (False, 0.004)],
                                       1: [(True, 0.6), (True, 0.7), (False, 0.002)]})
        reports, ok = verify._run_checks(7, [build])
        assert not ok
        assert [r.p_value for r in reports] == [0.003, 0.6, 0.2, 0.004, 0.002]
        assert [r.extra.get("first_p") for r in reports] == [None, 0.003, None, None, 0.004]
        assert made == [(0,), (1,)]

    def test_exact_checks_are_not_retried(self):
        build, made = recording_build({0: [(False, 0.0)]})
        reports, ok = verify._run_checks(7, [build], retry=False)
        assert not ok and len(reports) == 1
        assert made == [(0,)]

    def test_suite_reports_are_deterministic_in_seed(self):
        runs = [[r.to_json() for r in SMALL_RUNS["theorem1"]()[0]] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_theorem1_checks_are_distinct(self):
        reports, _ = SMALL_RUNS["theorem1"]()
        names = [r.suite for r in reports if not r.extra.get("retried", False)]
        assert len(names) == len(set(names)) == 10
        for theta in ("brownian", "reference"):
            assert [n for n in names if n.startswith(f"theorem1/{theta}-J1-")] == [
                f"theorem1/{theta}-J1-total-length"]

    @pytest.mark.parametrize("leaves, stats", [(1, ["total-length"]),
                                               (2, ["total-length", "leaf-depth"])])
    def test_theorem2_checks_are_distinct(self, leaves, stats):
        # a one-leaf tree is one edge: leaf depth would repeat total length
        reports, _ = verify.suite_theorem2(n=200, replicates=2, leaves=leaves, seed=5,
                                           marginal_reps=2)
        names = [r.suite for r in reports if not r.extra.get("retried", False)]
        assert names == [f"theorem2/spanning-{s}" for s in stats] + ["theorem2/width-marginal"]

    def test_theorem2_rejects_more_leaves_than_non_root_vertices(self, monkeypatch):
        # the vector at n = 50 has 53 entries, so 52 non-root vertices; 53
        # leaves could never be drawn distinct, and the redraws would not end
        def no_sampling(*args):
            raise AssertionError("sampled before rejecting the leaf count")

        monkeypatch.setattr(verify, "_spanning_summaries", no_sampling)
        with pytest.raises(ValueError, match="53 leaves"):
            verify.suite_theorem2(n=50, replicates=3, leaves=53, marginal_reps=2)
        # 34 and 35 of the 53 entries come up distinct with chance at most
        # 8e-7 and 3e-7: a replicate would redraw a million times or more
        for leaves in (34, 35, 52):
            with pytest.raises(ValueError, match=f"{leaves} draws from 53 entries"):
                verify.suite_theorem2(n=50, replicates=3, leaves=leaves, marginal_reps=2)

    def test_theorem2_leaf_bound(self):
        # J = 30 at n = 50 still runs: about 6e4 redraws per replicate
        p = approximating_pseq(verify.REFERENCE_THETA, 50)
        for leaves in (1, 2, 30, 33):
            verify.check_spanning_leaves(p, leaves)
        for leaves in (34, 52, 53, 60):
            with pytest.raises(ValueError):
                verify.check_spanning_leaves(p, leaves)

    def test_theorem2_exact_leaf_bound(self):
        # at n = 200 (203 entries) J = 67 draws are distinct with chance
        # 1.3e-6 and J = 68 with 8.5e-7, which the uniform vector's 3.0e-6
        # would let through
        p = approximating_pseq(verify.REFERENCE_THETA, 200)
        verify.check_spanning_leaves(p, 67)
        for leaves in (68, 70):
            with pytest.raises(ValueError, match=f"{leaves} draws from 203 entries"):
                verify.check_spanning_leaves(p, leaves)

    def test_exact_leaf_chance_matches_enumeration(self, monkeypatch):
        # J! e_J(p) against the sum over ordered distinct J-tuples, read from
        # the refusal with the threshold between it and the uniform bound
        # (0.75 at J = 2 and 0.375 at J = 3)
        from itertools import permutations

        p = PSeq(np.array([0.4, 0.3, 0.2, 0.1]))
        for leaves, threshold in ((2, 0.72), (3, 0.35)):
            want = sum(np.prod(p.probs[list(t)]) for t in permutations(range(4), leaves))
            monkeypatch.setattr(verify, "MIN_DISTINCT_CHANCE", threshold)
            with pytest.raises(ValueError, match=f"chance at most {want:.2g},"):
                verify.check_spanning_leaves(p, leaves)
            monkeypatch.setattr(verify, "MIN_DISTINCT_CHANCE", want - 1e-12)
            verify.check_spanning_leaves(p, leaves)

    @pytest.mark.parametrize("leaves", [0, -1])
    def test_theorem2_rejects_no_leaves_before_sampling(self, leaves, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before rejecting the leaf count")

        monkeypatch.setattr(verify, "_spanning_summaries", no_sampling)
        with pytest.raises(ValueError, match=f"{leaves} leaves"):
            verify.suite_theorem2(n=200, replicates=5, leaves=leaves, marginal_reps=5)

    def test_pkey_rejects_a_one_rung_ladder_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before rejecting the ladder")

        monkeypatch.setattr(verify, "exploration_gap", no_sampling)
        for ns in ((1000,), ()):
            with pytest.raises(ValueError, match="at least two rungs"):
                verify.suite_pkey(ns=ns, reps=3)

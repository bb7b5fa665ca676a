from dataclasses import replace

import numpy as np
import pytest

from icrt_lab import ptree, verify
from icrt_lab.errors import DegenerateError, DuplicatePositionError, SignError, TieError
from icrt_lab.paths import CadlagPath, sup_distance
from icrt_lab.ptree import (
    PSeq,
    approximating_pseq,
    breadth_tree,
    claim_margin,
    corrected_excursion,
    corrected_pending_error,
    depth_tree,
    enumerate_parent_arrays,
    exploration_gap,
    exploration_height,
    generation_error,
    particle_excursion,
    pending_mass_error,
    ptree_probability,
    relocate,
    repeat_time_sample,
    sample_positions,
    uniform_pseq,
    width_at_quantile,
    width_error,
    width_profile,
)
from icrt_lab.rng import RngState
from icrt_lab.stats import chi_square_gof, ks_two_sample
from icrt_lab.verify import IDENTITY_TOL, REFERENCE_THETA, suite_identities

from conftest import assert_same_bits, union_grid_combination


ROW_OUTPUTS = ("positions", "pos_order", "xs_sorted", "w_sorted", "redraw", "tie", "repeat",
               "collide")


class FixedUniforms:
    """Stand-in for RngState whose generator returns the given draws of
    uniforms, one draw per call, or one per row of a (rows, n) size."""

    def __init__(self, *draws):
        self.gen = self
        self.draws = [np.asarray(u, dtype=float) for u in draws]

    def random(self, size=None):
        if isinstance(size, tuple):
            return np.array([self.random(size[1]) for _ in range(size[0])])
        u = self.draws.pop(0)
        return u[:size] if size is not None else float(u[0])


def parent_key(tree):
    return tuple(int(v) for v in tree.parent)


def reference_breadth_tree(p, rel):
    """Breadth-first tree from one searchsorted over the cumulative weights
    in position order, the children grouped by a stable sort of their
    parents' visit ranks.  Test-only oracle for ptree.breadth_tree."""
    v1, xs = rel.root, rel.positions
    n = p.n
    order = np.argsort(xs)
    y = np.concatenate([[0.0], np.cumsum(p.probs[order])])
    y[-1] = 1.0
    rank = np.searchsorted(y, xs[order[1:]], side="left") - 1
    parent = np.full(n, -1, dtype=np.int64)
    parent[order[1:]] = order[rank]
    grouping = np.argsort(rank, kind="stable")
    grouped = order[1:][grouping]
    bounds = np.searchsorted(rank[grouping], np.arange(n + 1))
    children = [None] * n
    for j in range(n):
        children[int(order[j])] = grouped[bounds[j]:bounds[j + 1]]
    return v1, parent, order, None, y, children


def reference_depth_tree(p, rel):
    """Per-vertex construction of the depth-first tree: two searchsorted
    calls per examined vertex over the separately sorted relocated
    positions.  Test-only oracle for ptree.depth_tree."""
    v1, xs = rel.root, rel.positions
    n = p.n
    pos_order = np.argsort(xs)
    xs_sorted = xs[pos_order]
    parent = np.full(n, -1, dtype=np.int64)
    children = [None] * n
    e_times = np.zeros(n)
    order = []
    cursor = 0.0

    def examine(v):
        nonlocal cursor
        order.append(v)
        hi = 1.0 if len(order) == n else cursor + p.probs[v]
        i0 = np.searchsorted(xs_sorted, cursor, side="right")
        i1 = np.searchsorted(xs_sorted, hi, side="right")
        kids = pos_order[i0:i1]
        children[v] = kids
        parent[kids] = v
        cursor = hi
        e_times[v] = min(hi, 1.0)
        return kids

    stack = [(examine(v1), 0)]
    while stack:
        kids, i = stack.pop()
        if i < kids.size:
            stack.append((kids, i + 1))
            stack.append((examine(int(kids[i])), 0))
    order = np.array(order, dtype=np.int64)
    return v1, parent, order, e_times, np.concatenate([[0.0], e_times[order]]), children


class TestPSeq:
    def test_uniform(self):
        p = uniform_pseq(4)
        assert p.sigma == pytest.approx(0.5)
        assert p.probs[-1] == 0.25

    def test_must_be_ranked(self):
        with pytest.raises(ValueError):
            PSeq(np.array([0.3, 0.7]))

    def test_positive(self):
        with pytest.raises(SignError):
            PSeq(np.array([1.0, 0.0]))

    def test_approximating_collapses_to_uniform(self, brownian_theta):
        p = approximating_pseq(brownian_theta, 100)
        assert p.n == 100
        assert np.allclose(p.probs, 0.01)

    def test_approximating_sums_to_one(self, reference_theta):
        p = approximating_pseq(reference_theta, 10_000)
        assert abs(p.probs.sum() - 1.0) <= 1e-12
        assert p.n == 10_003 and p.n_heavy == 3

    def test_approximating_rescaled_atoms(self, reference_theta):
        p = approximating_pseq(reference_theta, 1_000_000)
        assert abs(p.probs[0] / p.sigma - 0.345) < 0.01

    def test_draw_stays_below_n(self, reference_theta):
        # the weights may sum to 1 - 1e-12; a uniform above their sum is
        # still a draw of the last index, never of index n
        p = PSeq(np.array([0.5, 0.5 - 5e-13]))
        u = [0.25, 0.5, 1.0 - 1e-13]
        assert list(p.draw(FixedUniforms(u), size=3)) == [0, 1, 1]
        assert p.draw(FixedUniforms(u[-1:])) == 1
        q = approximating_pseq(reference_theta, 10 ** 5)
        assert q.probs.cumsum()[-1] < 1.0
        assert q.draw(FixedUniforms([1.0 - 1e-15])) == q.n - 1


class TestProbability:
    def test_single_vertex(self):
        assert ptree_probability(np.array([-1]), uniform_pseq(1)) == 1.0

    def test_two_vertices(self):
        p = PSeq(np.array([0.7, 0.3]))
        assert ptree_probability(np.array([-1, 0]), p) == pytest.approx(0.7)

    def test_enumeration_sums_to_one(self):
        p = uniform_pseq(3)
        trees = list(enumerate_parent_arrays(3))
        assert len(trees) == 9  # 3^(3-1)
        total = sum(ptree_probability(np.array(t), p) for t in trees)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_n4(self):
        trees = list(enumerate_parent_arrays(4))
        assert len(trees) == 64  # 4^(4-1)


def particle_walk(p, x, u):
    """The walk -u + sum_i p_i 1{x_i <= u} before relocation."""
    return float((p.probs * (np.asarray(x) <= u)).sum()) - u


class TestParticleBridge:
    def test_total_mass_closes(self):
        # the walk bottoms out as a left limit at particle 1 (x = 0.25,
        # level -0.25); relocated there, it reads walk(0.25 + s) + 0.25
        # and closes at 0
        p = PSeq(np.array([0.6, 0.4]))
        rel = relocate(p, [0.5, 0.25])
        exc = particle_excursion(rel)
        assert rel.root == 1
        assert abs(exc.left_limit(1.0)) <= 1e-12
        assert exc.value(0.05) == pytest.approx(particle_walk(p, [0.5, 0.25], 0.3) + 0.25)
        assert exc.value(0.05) == pytest.approx(0.35)

    def test_duplicate_positions(self):
        with pytest.raises(DuplicatePositionError):
            relocate(PSeq(np.array([0.6, 0.4])), [0.3, 0.3])

    def test_tie_error(self):
        # left limits at both particles equal -0.1
        with pytest.raises(TieError):
            relocate(PSeq(np.array([0.6, 0.4])), [0.5, 0.1])


class TestParticleExcursion:
    def test_nonnegative_and_closed(self):
        p = PSeq(np.array([0.5, 0.3, 0.2]))
        rel = relocate(p, [0.05, 0.5, 0.7])
        exc = particle_excursion(rel)
        assert exc.min_value() >= 0.0
        assert exc.value(1.0) == 0.0
        assert rel.root == 0 and rel.positions[0] == 0.0

    def test_single_particle_shape(self):
        exc = particle_excursion(relocate(uniform_pseq(1), [0.37]))
        assert exc.value(0.0) == 1.0
        for u in [0.2, 0.5, 0.9]:
            assert exc.value(u) == pytest.approx(1.0 - u)
        assert exc.value(1.0) == 0.0

    def test_jump_multiset(self):
        p = PSeq(np.array([0.5, 0.3, 0.2]))
        exc = particle_excursion(relocate(p, [0.55, 0.3, 0.9]))
        _, sizes = exc.jumps()
        assert sorted(sizes, reverse=True) == [0.5, 0.3, 0.2]


def assert_same_relocation(got, want):
    assert got.root == want.root
    for name in ("positions", "pos_order", "xs_sorted", "w_sorted"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def count_relocations(monkeypatch) -> list:
    """Wrap ptree.relocate in a counter; returns the one-element count."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return relocate(*args)

    monkeypatch.setattr(ptree, "relocate", counted)
    return calls


class TestRelocation:
    # one relocation per realisation: the excursion and both readings read it
    def test_positions_are_the_circle_mod_bitwise(self):
        p3 = PSeq(np.array([0.5, 0.3, 0.2]))
        # the minimizer sits just below 1, so every other position wraps
        hand = [[1 - 2 ** -53, 0.1, 0.3], [1 - 2 ** -53, 2 ** -60, 0.3],
                [1 - 1e-12, 0.2, 0.35]]
        cases = [(p3, np.array(x)) for x in hand]
        vectors = [uniform_pseq(n) for n in (3, 50, 1000, 100_000)]
        vectors += [approximating_pseq(REFERENCE_THETA, n) for n in (50, 1000, 100_000)]
        for i, p in enumerate(vectors):
            cases += [(p, RngState(34).child(3 * i + k).gen.random(p.n)) for k in range(3)]
        for p, x in cases:
            rel = relocate(p, x)
            want = np.mod(x - x[rel.root], 1.0)
            want[rel.root] = 0.0
            assert rel.positions.tobytes() == want.tobytes()
            assert rel.n == p.n
        assert [relocate(p3, x).root for _, x in cases[:3]] == [0, 0, 0]

    def test_collision_after_relocation_raises(self):
        # distinct positions whose differences from the minimizer's round
        # to one value: -0.625 + 2^-55 rounds to -0.625
        with pytest.raises(DuplicatePositionError, match="after relocation"):
            relocate(PSeq(np.array([0.5, 0.3, 0.2])), [0.75, 0.125, 0.125 + 2 ** -55])

    @pytest.mark.parametrize("first", [[0.0, 0.5, 0.7], [0.3, 0.7, 0.3],
                                       [0.75, 0.125, 0.125 + 2 ** -55]],
                             ids=["zero", "repeat", "collide"])
    def test_sample_positions_redraws(self, first):
        p = PSeq(np.array([0.5, 0.3, 0.2]))
        second = [0.05, 0.5, 0.7]
        rel = sample_positions(p, FixedUniforms(first, second))
        assert_same_relocation(rel, relocate(p, second))

    def test_gap_relocates_once(self, monkeypatch):
        calls = count_relocations(monkeypatch)
        exploration_gap(approximating_pseq(REFERENCE_THETA, 50), RngState(35))
        assert calls == [1]

    def test_identities_relocate_once_per_replicate(self, monkeypatch):
        calls = count_relocations(monkeypatch)
        _, passed = suite_identities(n=50, reps=4, seed=1)
        assert passed and calls == [4]

    def test_position_zero_is_relocated(self):
        # sample_positions redraws a zero; relocate itself accepts it
        p = PSeq(np.array([0.5, 0.3, 0.2]))
        rel = relocate(p, [0.0, 0.4, 0.7])
        assert rel.root == 0 and rel.positions.tolist() == [0.0, 0.4, 0.7]
        assert_same_relocation(sample_positions(p, FixedUniforms([0.0, 0.4, 0.7], GOOD3[1])),
                               relocate(p, GOOD3[1]))

    @pytest.mark.parametrize("p, x, error, message", [
        # a repeat (particles 0 and 1) and a tie (left limits -0.1 at 0.1 and 0.3)
        (PSeq(np.array([0.5, 0.3, 0.2])), [0.3, 0.3, 0.1], DuplicatePositionError,
         "must be distinct"),
        # a tie (left limits -0.1875 at 0.6875 and 0.9375) and a collision:
        # 0.125 and 0.125 + 2^-55, less 0.6875, both round to -0.5625
        (uniform_pseq(4), [0.125, 0.125 + 2 ** -55, 0.6875, 0.9375], TieError, "tie"),
        # a zero is no excuse for a tie: the left limits at 0 and 0.5 are 0
        (PSeq(np.array([0.5, 0.3, 0.2])), [0.0, 0.5, 0.7], TieError, "tie"),
    ], ids=["repeat-before-tie", "tie-before-collision", "tie-with-zero"])
    def test_first_failed_check_raises(self, p, x, error, message):
        with pytest.raises(error, match=message):
            relocate(p, x)


# Rows that relocate to the minimizer at the first and at the last sorted
# position (rotation by 0 and by n - 1), and rows that sample_positions
# redraws or raises on, for p = (0.5, 0.3, 0.2) and the uniform p on 4.
ROTATED3 = ([0.05, 0.5, 0.7], [1 - 2 ** -53, 0.1, 0.3])
TIED3 = [0.1, 0.6, 0.9]  # all three left limits -0.1
TIED_COLLIDING4 = [0.125, 0.125 + 2 ** -55, 0.6875, 0.9375]


class TestRelocatedRows:
    # one routine relocates one row and many: each row of a matrix has the
    # bits of that row relocated alone, outcome flags included
    def assert_rows_match_one_at_a_time(self, p, x):
        rows = ptree._relocated_rows(p, x)
        assert len(rows) == 8
        for i in range(x.shape[0]):
            one = ptree._relocated_rows(p, x[i:i + 1])
            for name, many, single in zip(ROW_OUTPUTS, rows, one):
                assert many.dtype == single.dtype, name
                assert many[i].tobytes() == single[0].tobytes(), (name, i)
        return rows

    def test_hand_rows(self):
        x = np.array([*ROTATED3, *REDRAWN3.values(), TIED3])
        rows = self.assert_rows_match_one_at_a_time(P3, x)
        assert rows[1][:2, 0].tolist() == [0, 0]  # the minimizer leads pos_order
        assert [row.tolist() for row in rows[4:]] == [
            [False, False, True, True, True, False],    # redraw: zero, repeat, collide
            [False, False, True, False, False, True],   # tie, also on the zero row
            [False, False, False, True, False, False],  # repeat
            [False, False, False, True, True, False]]   # collide
        x4 = np.array([TIED_COLLIDING4, [0.3, 0.4, 0.62, 0.97]])
        flags = self.assert_rows_match_one_at_a_time(uniform_pseq(4), x4)[4:]
        # a tie on a colliding row raises, as relocate does, instead of a redraw
        assert [row.tolist() for row in flags] == [[False, False], [True, False],
                                                  [False, False], [True, False]]

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_random_rows(self, n):
        vectors = [uniform_pseq(n), ranked_pseq(n)]
        if n >= 50:
            vectors.append(approximating_pseq(REFERENCE_THETA, n))
        for k, p in enumerate(vectors):
            x = RngState(38).child(n, k).gen.random((40, p.n))
            rows = self.assert_rows_match_one_at_a_time(p, x)
            for i in range(x.shape[0]):
                rel = relocate(p, x[i])
                for name in ("positions", "pos_order", "xs_sorted", "w_sorted"):
                    assert getattr(rel, name).tobytes() == rows[ROW_OUTPUTS.index(name)][i].tobytes()


# Hand-worked realization: p = (0.5, 0.3, 0.2), x = (0.05, 0.5, 0.7).
# The minimizer is particle 0; relocated positions (0, 0.45, 0.65);
# interval ends 0.5, 0.8, 1.0 give the chain 0 -> 1 -> 2 in both orders.
class TestHandThree:
    p = PSeq(np.array([0.5, 0.3, 0.2]))
    x = [0.05, 0.5, 0.7]
    rel = relocate(p, x)

    def test_breadth(self):
        t = breadth_tree(self.rel)
        assert t.root == 0
        assert list(t.parent) == [-1, 0, 1]
        assert list(t.order) == [0, 1, 2]
        t.validate()

    def test_depth(self):
        t = depth_tree(self.rel)
        assert list(t.parent) == [-1, 0, 1]
        assert list(t.order) == [0, 1, 2]
        assert list(t.e_times) == pytest.approx([0.5, 0.8, 1.0])

    def test_pending_identity(self):
        t = depth_tree(self.rel)
        exc = particle_excursion(self.rel)
        assert pending_mass_error(t, exc, self.p) <= 1e-12

    def test_generation_pairs(self):
        # (time, walk value) at the end of each generation: (0.5, 0.3),
        # (0.8, 0.2), (1.0, 0.0)
        t = breadth_tree(self.rel)
        exc = particle_excursion(self.rel)
        assert generation_error(t, exc, self.p) <= 1e-12
        w, wbar = width_profile(t, self.p)
        assert list(wbar[1:]) == pytest.approx([0.5, 0.8, 1.0])
        assert list(w[1:]) == pytest.approx([0.3, 0.2, 0.0])


# Hand-worked realization with one heavy vertex: p = (0.4, 0.3, 0.2, 0.1),
# x = (0.05, 0.55, 0.2, 0.35).  Depth order (0, 2, 1, 3); examination ends
# (0.4, 0.9, 0.6, 1.0) indexed by vertex; root children {2, 3}, vertex 2
# has child 1.  The corrected excursion at the examination ends is
# (0, 0, 0.3, 0) and the combinatorial route gives the same values.
class TestHandFourHeavy:
    p = PSeq(np.array([0.4, 0.3, 0.2, 0.1]), n_heavy=1)
    x = [0.05, 0.55, 0.2, 0.35]
    rel = relocate(p, x)

    def test_depth_structure(self):
        t = depth_tree(self.rel)
        assert list(t.order) == [0, 2, 1, 3]
        assert list(t.parent) == [-1, 2, 0, 0]
        assert list(t.e_times) == pytest.approx([0.4, 0.9, 0.6, 1.0])
        assert list(t.heights) == [0, 2, 1, 1]

    def test_corrected_values(self):
        t = depth_tree(self.rel)
        exc = particle_excursion(self.rel)
        g = corrected_excursion(t, exc, self.p)
        vals = [g.value(e) for e in t.e_times]
        assert vals == pytest.approx([0.0, 0.0, 0.3, 0.0], abs=1e-12)

    def test_two_route_agreement(self):
        t = depth_tree(self.rel)
        exc = particle_excursion(self.rel)
        assert corrected_pending_error(t, exc, self.p) <= 1e-12

    def test_no_heavy_gives_excursion(self):
        p0 = PSeq(np.array([0.4, 0.3, 0.2, 0.1]), n_heavy=0)
        rel0 = relocate(p0, self.x)
        t = depth_tree(rel0)
        exc = particle_excursion(rel0)
        assert sup_distance(corrected_excursion(t, exc, p0), exc) == 0.0

    def test_exploration_height_left_limits(self):
        t = depth_tree(self.rel)
        h = exploration_height(t)
        for v in range(4):
            assert h.left_limit(t.e_times[v]) == t.heights[v]

    def test_breadth_same_tree_here(self):
        t = breadth_tree(self.rel)
        assert list(t.parent) == [-1, 2, 0, 0]
        exc = particle_excursion(self.rel)
        assert generation_error(t, exc, self.p) <= 1e-12
        w, wbar = width_profile(t, self.p)
        assert list(wbar[1:3]) == pytest.approx([0.4, 0.7])
        assert list(w[1:3]) == pytest.approx([0.3, 0.3])

    def test_width_profile(self):
        t = breadth_tree(self.rel)
        exc = particle_excursion(self.rel)
        assert width_error(t, exc, self.p) <= 1e-12
        w, wbar = width_profile(t, self.p)
        assert list(w) == pytest.approx([0.4, 0.3, 0.3, 0.0])
        assert list(wbar) == pytest.approx([0.0, 0.4, 0.7, 1.0])
        assert width_at_quantile(w, wbar, 0.5) == pytest.approx(0.3)


# Pending-heavy sign check: p = (0.5, 0.3, 0.2) with vertex 0 heavy,
# x = (0.25, 0.05, 0.15).  Root is vertex 1 with children (2, 0) in circle
# order, so at v = 2 the heavy vertex 0 is pending with no children:
# the corrected excursion at e(2) = 0.5 equals
# -0.5 + (0.3 + 0.2 + 0.5) = 0.5 = p_0 - p(B_0), with p(N*) = 0.
class TestPendingHeavySign:
    p = PSeq(np.array([0.5, 0.3, 0.2]), n_heavy=1)
    x = [0.25, 0.05, 0.15]
    rel = relocate(p, x)

    def test_structure(self):
        t = depth_tree(self.rel)
        assert t.root == 1
        assert list(t.order) == [1, 2, 0]
        assert list(t.parent) == [1, -1, 1]

    def test_corrected_value_at_pending_heavy(self):
        t = depth_tree(self.rel)
        exc = particle_excursion(self.rel)
        g = corrected_excursion(t, exc, self.p)
        assert g.value(t.e_times[2]) == pytest.approx(0.5, abs=1e-12)
        assert corrected_pending_error(t, exc, self.p) <= 1e-12


# Dyadic realization with a relocated position exactly on an interval end:
# p uniform on 4, x = (0.625, 0.25, 0.75, 0.375).  The minimizer is vertex 1;
# relocated positions (0.375, 0, 0.5, 0.125).  Vertex 3 is the root's only
# child and its interval ends at 0.5, where vertex 2 sits: an interval
# claims the position at its end, so vertex 3 has children (0, 2) and the
# visit order is (1, 3, 0, 2) in both readings.
class TestHandOnIntervalEnd:
    p = uniform_pseq(4)
    x = [0.625, 0.25, 0.75, 0.375]
    rel = relocate(p, x)

    @pytest.mark.parametrize("build", [breadth_tree, depth_tree])
    def test_end_claims_its_position(self, build):
        t = build(self.rel)
        assert t.positions[2] == 0.5 and t.visit_cum[2] == 0.5
        assert list(t.parent) == [3, -1, 3, 1]
        assert list(t.children(3)) == [0, 2]
        assert list(t.order) == [1, 3, 0, 2]

    def test_pending_identity(self):
        t = depth_tree(self.rel)
        exc = particle_excursion(self.rel)
        assert list(t.e_times) == [0.75, 0.25, 1.0, 0.5]
        assert pending_mass_error(t, exc, self.p) <= 1e-12


class TestValidateRefuses:
    """Hand-made bad trees, each a change to TestHandOnIntervalEnd's tree
    (root 1, parent (3, -1, 3, 1), order (1, 3, 0, 2))."""

    tree = depth_tree(TestHandOnIntervalEnd.rel)

    def test_good_tree_passes(self):
        self.tree.validate()

    def test_two_roots(self):
        bad = replace(self.tree, parent=np.array([3, -1, -1, 1]))
        with pytest.raises(ValueError, match="exactly one root"):
            bad.validate()

    def test_child_visited_before_its_parent(self):
        bad = replace(self.tree, order=np.array([1, 0, 3, 2]))
        with pytest.raises(ValueError, match="visit order inconsistent"):
            bad.validate()

    def test_vertex_visited_twice_and_one_never(self):
        bad = replace(self.tree, order=np.array([1, 3, 0, 0]))
        with pytest.raises(ValueError, match="visit order inconsistent"):
            bad.validate()


REFERENCE_TREES = {"breadth": (breadth_tree, reference_breadth_tree),
                   "depth": (depth_tree, reference_depth_tree)}


def assert_same_tree(t, want):
    """Bitwise, with dtype: `t` against an oracle's (root, parent, order,
    e_times, visit_cum, children)."""
    root, parent, order, e_times, visit_cum, children = want
    assert t.root == root
    assert (t.e_times is None) == (e_times is None)
    pairs = [(t.parent, parent), (t.order, order), (t.visit_cum, visit_cum)]
    if e_times is not None:
        pairs.append((t.e_times, e_times))
    for got, ref in pairs:
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert len(children) == t.n
    for v, ref in enumerate(children):
        got = t.children(v)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


class TestDepthTreeOracle:
    # both readings, each against its own test-only reference construction
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 50, 1000, 10_000])
    def test_matches_per_vertex_construction(self, n):
        vectors = [uniform_pseq(n)]
        if n >= 50:  # at n < 20 the heavy entries would fall below the light ones
            vectors.append(approximating_pseq(REFERENCE_THETA, n))
        seeds = 3 if n == 10_000 else 10
        for p in vectors:
            for k in range(seeds):
                rel = sample_positions(p, RngState(31).child(k))
                for kind, (build, reference) in REFERENCE_TREES.items():
                    t = build(rel)
                    assert t.kind == kind
                    assert_same_tree(t, reference(p, rel))
                exc = particle_excursion(rel)
                assert pending_mass_error(depth_tree(rel), exc, p) <= IDENTITY_TOL

    def test_hand_realizations_match(self):
        for cls in (TestHandThree, TestHandFourHeavy, TestPendingHeavySign,
                    TestHandOnIntervalEnd):
            for build, reference in REFERENCE_TREES.values():
                assert_same_tree(build(cls.rel), reference(cls.p, cls.rel))


def reference_corrected_excursion(tree, exc, p):
    """Per-child event loop, a sequential accumulation of the ramp, and the
    pointwise combination on the whole union grid.  Test-only oracle for
    ptree.corrected_excursion."""
    probs = p.probs
    jump_t, jump_v, kink_t, kink_s = [], [], [], []
    for i in range(p.n_heavy):
        kids = tree.children(i)
        if kids.size == 0:
            continue
        jump_t.append(float(tree.positions[i]))
        jump_v.append(float(probs[kids].sum()))
        for v in kids.tolist():
            e_v = min(float(tree.e_times[v]), 1.0)
            kink_t.extend([e_v - probs[v], e_v])
            kink_s.extend([-1.0, 1.0])
    if not jump_t:
        return exc
    ev_t = np.concatenate([jump_t, kink_t])
    ev_jump = np.concatenate([jump_v, np.zeros(len(kink_t))])
    ev_slope = np.concatenate([np.zeros(len(jump_t)), kink_s])
    keep = ev_t < 1.0
    ev_t, ev_jump, ev_slope = ev_t[keep], ev_jump[keep], ev_slope[keep]
    order = np.argsort(ev_t, kind="stable")
    ev_t, ev_jump, ev_slope = ev_t[order], ev_jump[order], ev_slope[order]
    t_u, start = np.unique(ev_t, return_index=True)
    jumps = np.add.reduceat(ev_jump, start)
    slope_steps = np.add.reduceat(ev_slope, start)
    if t_u[0] > 0.0:
        times = np.concatenate([[0.0], t_u, [1.0]])
        jumps = np.concatenate([[0.0], jumps, [0.0]])
        slope_steps = np.concatenate([[0.0], slope_steps, [0.0]])
    else:
        times = np.concatenate([t_u, [1.0]])
        jumps = np.concatenate([jumps, [0.0]])
        slope_steps = np.concatenate([slope_steps, [0.0]])
    slopes = np.cumsum(slope_steps)
    left = np.zeros(times.size)
    right = np.zeros(times.size)
    acc = 0.0
    for k in range(times.size):
        left[k] = acc
        acc += jumps[k]
        right[k] = acc
        if k + 1 < times.size:
            acc += slopes[k] * (times[k + 1] - times[k])
    return union_grid_combination([exc, CadlagPath(times, left, right)], [1.0, -1.0])


# Dyadic realization whose last examined vertex is a heavy vertex's child:
# p = (0.5, 0.25, 0.125, 0.125) with vertex 0 heavy, x = (0.375, 0.25,
# 0.625, 0.75).  The root is vertex 1 with child 0; vertex 0 has children
# (2, 3) with examination ends 0.875 and 1.0, so the restore of 2 and the
# slope of 3 share the time 0.875 and the restore of 3 falls at the end.
class TestHandLastChildOfHeavy:
    p = PSeq(np.array([0.5, 0.25, 0.125, 0.125]), n_heavy=1)
    x = [0.375, 0.25, 0.625, 0.75]
    rel = relocate(p, x)

    def test_structure(self):
        t = depth_tree(self.rel)
        assert t.root == 1 and list(t.order) == [1, 0, 2, 3]
        assert list(t.children(0)) == [2, 3]
        assert list(t.e_times) == [0.75, 0.25, 0.875, 1.0]

    def test_two_route_agreement(self):
        t = depth_tree(self.rel)
        exc = particle_excursion(self.rel)
        assert corrected_pending_error(t, exc, self.p) <= 1e-12


# Dyadic realization in which a heavy vertex is a heavy vertex's child:
# p = (0.375, 0.25, 0.125, 0.125, 0.125) with vertices 0 and 1 heavy,
# x = (1, 2, 3, 4, 8)/16.  The root is vertex 0 with children (1, 2, 3);
# vertex 1 has child 4.  Depth order (0, 1, 4, 2, 3), examination ends
# (0.375, 0.625, 0.875, 1.0, 0.75) indexed by vertex.  The corrected
# weights are 0 at every heavy vertex's child, less each heavy vertex's
# children's mass: (0.375 - 0.5, 0 - 0.125, 0, 0, 0), so the corrected
# pending masses are (-0.125, 0, 0, 0, 0).  By the walk, at e(0) = 0.375 the
# excursion is 0.875 - 0.375 = 0.5 and the ramps of 1, 2, 3 and 4 still
# carry 0.25 + 0.125 + 0.125 + 0.125, which gives -0.125; at every later
# end the excursion equals the ramps still pending.
class TestHandHeavyChildOfHeavy:
    p = PSeq(np.array([0.375, 0.25, 0.125, 0.125, 0.125]), n_heavy=2)
    x = np.array([1, 2, 3, 4, 8]) / 16
    rel = relocate(p, x)
    corrected = [-0.125, 0.0, 0.0, 0.0, 0.0]

    def test_structure(self):
        t = depth_tree(self.rel)
        assert t.root == 0
        assert t.parent.tolist() == [-1, 0, 0, 0, 1]
        assert t.order.tolist() == [0, 1, 4, 2, 3]
        assert t.e_times.tolist() == [0.375, 0.625, 0.875, 1.0, 0.75]

    def test_corrected_pending_masses_by_hand(self):
        t = depth_tree(self.rel)
        weights = np.array([-0.125, -0.125, 0.0, 0.0, 0.0])
        assert ptree._pending_mass(t, weights).tolist() == self.corrected
        g = corrected_excursion(t, particle_excursion(self.rel), self.p)
        assert [g.value(e) for e in t.e_times] == pytest.approx(self.corrected, abs=1e-12)

    def test_two_route_agreement(self):
        t = depth_tree(self.rel)
        exc = particle_excursion(self.rel)
        assert corrected_pending_error(t, exc, self.p) <= IDENTITY_TOL
        assert corrected_pending_error(t, exc.shift_values(1e-6), self.p) > IDENTITY_TOL


class TestCorrectedExcursionOracle:
    """corrected_excursion against the per-child event loop combined on the
    whole union grid, bit for bit."""

    @pytest.mark.parametrize("cls", [TestHandFourHeavy, TestPendingHeavySign,
                                     TestHandLastChildOfHeavy, TestHandHeavyChildOfHeavy])
    def test_hand_realizations(self, cls):
        t = depth_tree(cls.rel)
        exc = particle_excursion(cls.rel)
        assert_same_bits(corrected_excursion(t, exc, cls.p),
                         reference_corrected_excursion(t, exc, cls.p))

    @pytest.mark.parametrize("n", [20, 50, 1000, 10_000])
    def test_sampled_trees(self, n):
        p = approximating_pseq(REFERENCE_THETA, n)
        for k in range(5 if n == 10_000 else 40):
            rel = sample_positions(p, RngState(32).child(k))
            exc = particle_excursion(rel)
            t = depth_tree(rel)
            assert_same_bits(corrected_excursion(t, exc, p),
                             reference_corrected_excursion(t, exc, p))


def bisect_examination_ranks(xs_sorted, w_sorted):
    """The examination pass with one binary search per step for the first
    position past the cursor.  Test-only oracle for ptree._examination_ranks."""
    from bisect import bisect_right

    xl = xs_sorted.tolist()
    wl = w_sorted.tolist()
    ranks = []
    stack = []
    a, j, cursor = 0, 1, 0.0
    while True:
        ranks.append(a)
        cursor += wl[a]
        k = bisect_right(xl, cursor, j)
        if k > j:
            a = j
            if k > j + 1:
                stack.append((j + 1, k))
            j = k
        elif stack:
            a, k = stack.pop()
            if a + 1 < k:
                stack.append((a + 1, k))
        else:
            break
    return np.array(ranks)


class TestExaminationScan:
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 1000, 100_000])
    def test_matches_binary_search(self, n):
        vectors = [uniform_pseq(n)]
        if n >= 50:
            vectors.append(approximating_pseq(REFERENCE_THETA, n))
        for p in vectors:
            for k in range(2 if n == 100_000 else 10):
                rel = sample_positions(p, RngState(37).child(k))
                got = ptree._examination_ranks(rel.xs_sorted, rel.w_sorted)
                want = bisect_examination_ranks(rel.xs_sorted, rel.w_sorted)
                assert got.tobytes() == want.tobytes()
                assert got.size == p.n

    def test_position_at_the_cursor_is_claimed(self):
        # dyadic: each interval ends exactly at the next position, which it
        # claims, so the tree is the path 0-1-2-3
        xs = np.array([0.0, 0.25, 0.5, 0.75])
        for ranks in (ptree._examination_ranks, bisect_examination_ranks):
            assert ranks(xs, np.full(4, 0.25)).tolist() == [0, 1, 2, 3]

    def test_missed_particle_stops_both(self):
        # the root's interval (0, 0.2] claims nothing, so the pass stops
        # after the root, with 1 of 3 ranks
        rel = ptree.Relocation(0, np.array([0.0, 0.5, 0.9]), np.arange(3),
                               np.array([0.0, 0.5, 0.9]), np.array([0.2, 0.3, 0.5]))
        for ranks in (ptree._examination_ranks, bisect_examination_ranks):
            assert ranks(rel.xs_sorted, rel.w_sorted).tolist() == [0]
        with pytest.raises(DegenerateError, match="missed a particle"):
            depth_tree(rel)


def path_accumulate(tree, per_vertex):
    """acc[v] = sum of per_vertex over the path from the root's child to v,
    in the dtype of per_vertex, one vertex at a time in visit order, parent
    before child.  Integer weights add as Python ints; a float sum starts
    from int 0, which adds exactly.  Test-only oracle for ptree._path_sum."""
    acc = [0] * tree.n
    par = tree.parent.tolist()
    pv = per_vertex.tolist()
    for v in tree.order[1:].tolist():
        acc[v] = acc[par[v]] + pv[v]
    return np.asarray(acc, dtype=per_vertex.dtype)


def pending_mass_oracle(tree, w):
    """ptree._pending_mass with its path sums accumulated root-down by
    path_accumulate.  Test-only oracle."""
    c = np.concatenate([[0.0], np.cumsum(w[tree.pos_order])])
    own = c[tree.kid_end] - c[tree.kid_start]
    after = np.zeros(tree.n)
    nonroot = tree.pos_order[1:]
    after[nonroot] = c[tree.kid_end[tree.parent[nonroot]]] - c[2:]
    return path_accumulate(tree, after) + own


def assert_path_sums_match_loop(t, p):
    """The one path-sum routine against the root-down loop: integer heights
    bit for bit, float pending masses within 1e-15."""
    loop = path_accumulate(t, np.ones(t.n, dtype=np.int64))
    doubled = ptree._path_sum(t.parent, t.root, np.ones(t.n, dtype=np.int64))
    assert doubled.dtype == loop.dtype
    assert doubled.tobytes() == loop.tobytes()
    assert t.heights.tobytes() == loop.tobytes()
    pending = ptree._pending_mass(t, p.probs)
    assert pending.dtype == np.float64
    assert np.abs(pending - pending_mass_oracle(t, p.probs)).max() <= 1e-15


class TestHeights:
    @pytest.mark.parametrize("n", [2, 50, 299, 300, 1000, 100_000])
    def test_doubling_matches_loop(self, n):
        vectors = [uniform_pseq(n)]
        if n >= 50:
            vectors.append(approximating_pseq(REFERENCE_THETA, n))
        for p in vectors:
            for k in range(2):
                rel = sample_positions(p, RngState(43).child(k))
                for build in (breadth_tree, depth_tree):
                    assert_path_sums_match_loop(build(rel), p)

    @pytest.mark.parametrize("build", [breadth_tree, depth_tree])
    def test_chain(self, build):
        # each interval of length 1/n claims only the next particle, which
        # sits a quarter of 1/n below its end: in both readings the tree is
        # a path of height n - 1, so doubling runs 11 rounds
        n = 2000
        xs = np.concatenate([[0.0], (np.arange(1, n) - 0.25) / n])
        labels = np.random.default_rng(5).permutation(n)
        positions = np.empty(n)
        positions[labels] = xs
        rel = ptree.Relocation(int(labels[0]), positions, labels, xs, np.full(n, 1.0 / n))
        t = build(rel)
        assert t.parent[labels[1:]].tolist() == labels[:-1].tolist()
        want = np.empty(n, dtype=np.int64)
        want[labels] = np.arange(n)
        assert t.heights.tobytes() == want.tobytes()
        assert_path_sums_match_loop(t, uniform_pseq(n))


def parent_chain(tree, v):
    """Root-first ancestor chain of v, read from the parent array."""
    chain = [int(v)]
    while tree.parent[chain[-1]] != -1:
        chain.append(int(tree.parent[chain[-1]]))
    return chain[::-1]


# p = (0.5, 0.25, 0.25) relocated at vertex 0 to the dyadic positions 0,
# 0.25 and 0.5: vertex 2 sits exactly at the root's claim end 0.5, so the
# root claims both others.
P_DYADIC = PSeq(np.array([0.5, 0.25, 0.25]))
X_DYADIC = [0.125, 0.375, 0.625]

# A hand relocation whose rank 1 (at 0.5) lies past its predecessors'
# claim ends 0.1 and 0.2: no relocated draw does this, and its chain would
# never reach the root.
STUCK = ptree.Relocation(0, np.array([0.0, 0.5, 0.6]), np.arange(3),
                         np.array([0.0, 0.5, 0.6]), np.array([0.1, 0.1, 0.8]))


class TestBreadthChains:
    # ptree.breadth_chains against the parent chains of breadth_tree
    @pytest.mark.parametrize("n", [1, 2, 50, 1000, 100_000])
    def test_chains_match_breadth_tree(self, n):
        vectors = [uniform_pseq(n)]
        if n >= 50:
            vectors.append(approximating_pseq(REFERENCE_THETA, n))
        for p in vectors:
            for k in range(3):
                rng = RngState(44).child(n, k)
                rel = sample_positions(p, rng)
                tree = breadth_tree(rel)
                if n <= 1000:
                    vertices = list(range(n))
                else:
                    vertices = [rel.root] + p.draw(rng, size=30).tolist()
                assert ptree.breadth_chains(rel, vertices) == [
                    parent_chain(tree, v) for v in vertices]

    def test_position_at_a_claim_end(self):
        # a claim end is reached, not passed: the search is side="left"
        rel = relocate(P_DYADIC, X_DYADIC)
        assert rel.root == 0 and rel.xs_sorted.tolist() == [0.0, 0.25, 0.5]
        assert breadth_tree(rel).parent.tolist() == [-1, 0, 0]
        assert ptree.breadth_chains(rel, [2, 1, 0]) == [[0, 2], [0, 1], [0]]
        assert ptree.breadth_chains(rel, []) == []

    def test_chain_that_misses_the_root_raises(self):
        with pytest.raises(DegenerateError, match="does not reach the root"):
            ptree.breadth_chains(STUCK, [1])
        assert ptree.breadth_chains(STUCK, [0]) == [[0]]


class TestSingleVertex:
    def test_trees(self):
        rel = relocate(uniform_pseq(1), [0.4])
        bt = breadth_tree(rel)
        dt = depth_tree(rel)
        assert bt.n == 1 and list(bt.parent) == [-1]
        assert dt.n == 1 and list(dt.e_times) == [1.0]

    def test_identities(self):
        p = uniform_pseq(1)
        rel = relocate(p, [0.4])
        exc = particle_excursion(rel)
        dt = depth_tree(rel)
        assert pending_mass_error(dt, exc, p) <= 1e-12
        bt = breadth_tree(rel)
        assert generation_error(bt, exc, p) <= 1e-12
        w, wbar = width_profile(bt, p)
        assert list(wbar[1:]) == [1.0] and list(w[1:]) == [0.0]
        h = exploration_height(dt)
        assert h.value(0.5) == 0.0
        assert exploration_gap(p, RngState(0)) == 0.0


class TestRandomRealizationIdentities:
    def test_visit_orders_and_identities(self, reference_theta):
        for k in range(30):
            n = 40
            p = approximating_pseq(reference_theta, n) if k % 2 else uniform_pseq(n)
            rel = sample_positions(p, RngState(19).child(k))
            bt = breadth_tree(rel)
            dt = depth_tree(rel)
            bt.validate()
            dt.validate()
            exc = particle_excursion(rel)
            assert pending_mass_error(dt, exc, p) <= IDENTITY_TOL
            assert claim_margin(bt) < 0.0 and claim_margin(dt) < 0.0
            assert generation_error(bt, exc, p) <= IDENTITY_TOL
            assert width_error(bt, exc, p) <= IDENTITY_TOL
            assert corrected_pending_error(dt, exc, p) <= IDENTITY_TOL

    def test_exploration_steps(self, reference_theta):
        # height increments in examination order: +1 on descent, any
        # negative drop on backtrack
        p = approximating_pseq(reference_theta, 50)
        rel = sample_positions(p, RngState(23))
        dt = depth_tree(rel)
        h = dt.heights[dt.order]
        steps = np.diff(h)
        assert ((steps == 1) | (steps <= 0)).all()
        assert (dt.heights >= 0).all()

    def test_branchpoint_height_property(self, reference_theta):
        # min of the exploration path between two sample times equals the
        # branchpoint height, possibly plus one
        p = approximating_pseq(reference_theta, 200)
        for k in range(30):
            rel = sample_positions(p, RngState(24).child(k))
            dt = depth_tree(rel)
            h = exploration_height(dt)
            g = RngState(25).child(k).gen
            u1, u2 = np.sort(g.random(2))
            idx1 = int(np.searchsorted(dt.visit_cum, u1, side="left")) - 1
            idx2 = int(np.searchsorted(dt.visit_cum, u2, side="left")) - 1
            w1, w2 = int(dt.order[idx1]), int(dt.order[idx2])
            anc = set()
            v = w1
            while v != -1:
                anc.add(v)
                v = int(dt.parent[v])
            b = w2
            while b not in anc:
                b = int(dt.parent[b])
            lo = h.interval_inf(u1, u2)
            assert lo in (dt.heights[b], dt.heights[b] + 1)

    def test_bridge_marginal_converges_to_brownian(self):
        # scaled particle-walk marginals approach the bridge marginal as
        # the vector refines: the KS statistic shrinks with n
        t_star = 0.37
        stats = []
        for n in (40, 2000):
            p = uniform_pseq(n)
            vals = np.empty(300)
            for k in range(300):
                x = RngState(26).child(k).gen.random(n)
                vals[k] = particle_walk(p, x, t_star) / p.sigma
            ref = RngState(27).gen.normal(0.0, np.sqrt(t_star * (1 - t_star)), 300)
            stats.append(ks_two_sample(vals, ref).statistic)
        assert stats[1] < stats[0]

    def test_gap_trend_uniform(self):
        meds = []
        for n in (200, 2000):
            p = uniform_pseq(n)
            meds.append(np.median([exploration_gap(p, RngState(28).child(k)) for k in range(15)]))
        assert meds[1] < meds[0]


class TestExactChecksCanFail:
    @pytest.mark.parametrize("error, build", [(pending_mass_error, depth_tree),
                                              (generation_error, breadth_tree),
                                              (width_error, breadth_tree),
                                              (corrected_pending_error, depth_tree)],
                             ids=["pending", "generation", "width", "corrected"])
    @pytest.mark.parametrize("vector", ["uniform", "reference"])
    def test_holds_on_the_walk_and_fails_on_a_shifted_one(self, error, build, vector):
        n = 40
        p = uniform_pseq(n) if vector == "uniform" else approximating_pseq(REFERENCE_THETA, n)
        for k in range(10):
            rel = sample_positions(p, RngState(32).child(k))
            exc = particle_excursion(rel)
            tree = build(rel)
            assert error(tree, exc, p) <= IDENTITY_TOL
            assert error(tree, exc.shift_values(1e-6), p) > IDENTITY_TOL

    def test_corrected_holds_on_every_tree_heavy_child_or_not(self):
        p = approximating_pseq(REFERENCE_THETA, 20)
        outcomes = set()
        for k in range(200):
            rel = sample_positions(p, RngState(33).child(k))
            exc = particle_excursion(rel)
            tree = depth_tree(rel)
            par = tree.parent[: p.n_heavy]
            outcomes.add(bool(((par >= 0) & (par < p.n_heavy)).any()))
            assert corrected_pending_error(tree, exc, p) <= IDENTITY_TOL
        assert outcomes == {True, False}


READINGS = {"breadth": breadth_tree, "depth": depth_tree}


def ranked_pseq(n):
    w = np.arange(n, 0, -1, dtype=float)
    return PSeq(w / w.sum())


def tree_law_counts_oracle(p, kind, samples, rng):
    """Tree counts in enumeration order from one tree per sample, as
    verify._tree_law_reports counted them before it read batched rows.
    Test-only oracle."""
    index = {t: i for i, t in enumerate(enumerate_parent_arrays(p.n))}
    counts = np.zeros(len(index))
    stream = verify._stream(rng, f"tree-law/{kind}-n{p.n}")
    for _ in range(samples):
        counts[index[parent_key(READINGS[kind](sample_positions(p, stream)))]] += 1
    return counts


def rows_or_error(build, rng):
    """build(rng), or the type and message of the sampling error it raised,
    followed by the next uniform of rng."""
    try:
        out = build(rng)
    except (DegenerateError, DuplicatePositionError, TieError) as e:
        return (type(e), str(e)), None
    return out, rng.gen.random()


def assert_rows_match_single_path(p, kind, samples, make_rng):
    # the batched rows equal one tree per call on the same stream, or both
    # raise the same error; both leave the stream at the same state
    build = READINGS[kind]
    got, got_next = rows_or_error(lambda rng: ptree._parent_rows(p, kind, samples, rng),
                                  make_rng())
    want, want_next = rows_or_error(
        lambda rng: np.array([build(sample_positions(p, rng)).parent
                              for _ in range(samples)], dtype=np.int64).reshape(samples, p.n),
        make_rng())
    assert got_next == want_next
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    return got


# Draws of three uniforms for p = (0.5, 0.3, 0.2): two that relocate and
# three that sample_positions redraws.
P3 = PSeq(np.array([0.5, 0.3, 0.2]))
GOOD3 = ([0.05, 0.5, 0.7], [0.2, 0.95, 0.4])
REDRAWN3 = {"zero": [0.0, 0.5, 0.7], "repeat": [0.3, 0.7, 0.3],
            "collide": [0.75, 0.125, 0.125 + 2 ** -55]}
TIE2 = (PSeq(np.array([0.6, 0.4])), [0.5, 0.1])  # both left limits -0.1
LAST = [0.9, 0.9, 0.9]  # read only by the check of the final stream state


class TestParentRows:
    # ptree._parent_rows against one tree per sample_positions call
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 50])
    def test_rows_match_single_path(self, n):
        vectors = [uniform_pseq(n), ranked_pseq(n)]
        if n >= 50:  # at n < 20 the heavy entries would fall below the light ones
            vectors.append(approximating_pseq(REFERENCE_THETA, n))
        samples = 40 if n >= 50 else 200
        for p in vectors:
            for kind in READINGS:
                for seed in range(3):
                    assert_rows_match_single_path(
                        p, kind, samples, lambda: RngState(36).child(n, seed))

    def test_no_samples(self):
        for kind in READINGS:
            rows = assert_rows_match_single_path(P3, kind, 0, lambda: FixedUniforms(LAST))
            assert rows.shape == (0, 3)

    @pytest.mark.parametrize("kind", list(READINGS))
    @pytest.mark.parametrize("bad", list(REDRAWN3))
    def test_redrawn_rows_are_skipped(self, bad, kind):
        draws = (GOOD3[0], REDRAWN3[bad], GOOD3[1], LAST)
        rows = assert_rows_match_single_path(P3, kind, 2, lambda: FixedUniforms(*draws))
        assert rows.shape == (2, 3)

    @pytest.mark.parametrize("kind", list(READINGS))
    def test_tie_raises_where_the_single_path_does(self, kind):
        p, tie = TIE2
        good, zero = [0.3, 0.8], [0.0, 0.8]
        for draws, samples in [((tie,), 1), ((zero, tie), 1), ((good, tie), 2),
                               ((good, zero, tie), 2)]:
            got = assert_rows_match_single_path(p, kind, samples,
                                                lambda: FixedUniforms(*draws, LAST))
            assert got[0] is TieError
        # a tie after the last sample is never read
        rows = assert_rows_match_single_path(p, kind, 1,
                                             lambda: FixedUniforms(good, tie, LAST))
        assert rows.shape == (1, 2)

    @pytest.mark.parametrize("kind", list(READINGS))
    def test_hundred_redraws_raise(self, kind):
        # redrawn rows run on across the matrices drawn for the later samples
        bad = [REDRAWN3[name] for name in REDRAWN3]
        bad = [bad[i % 3] for i in range(100)]
        tie = [0.1, 0.6, 0.9]  # all three left limits -0.1
        cases = [((GOOD3[0], *bad, tie), 2, DuplicatePositionError),
                 ((*bad[:50], GOOD3[0], *bad[:99], GOOD3[1]), 2, None),
                 ((bad[0], GOOD3[0], *bad[:99], GOOD3[1]), 2, None),
                 ((*bad[:99], tie), 1, TieError)]
        for draws, samples, error in cases:
            got = assert_rows_match_single_path(P3, kind, samples,
                                                lambda: FixedUniforms(*draws, LAST))
            if error is None:
                assert got.shape == (2, 3)
            else:
                assert got[0] is error
        assert got[1] == "two left limits tie for the minimum"

    def test_degenerate_depth_row_raises(self, monkeypatch):
        # no relocated draw misses a particle: a hand row whose first
        # interval (0, 0.2] claims nothing stands in for one
        rel = ptree.Relocation(0, np.array([0.0, 0.5, 0.9]), np.arange(3),
                               np.array([0.0, 0.5, 0.9]), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(DegenerateError):
            depth_tree(rel)
        ranks, stopped = ptree._examination_rank_rows(rel.xs_sorted[None], rel.w_sorted[None])
        assert stopped.tolist() == [True] and ranks[0, 0] == 0
        no = np.zeros(1, dtype=bool)
        monkeypatch.setattr(ptree, "_relocated_rows", lambda p, x: (
            rel.positions[None], rel.pos_order[None], rel.xs_sorted[None], rel.w_sorted[None],
            no, no, no, no))
        with pytest.raises(DegenerateError, match="missed a particle"):
            ptree._parent_rows(P3, "depth", 1, RngState(0))
        assert ptree._parent_rows(P3, "breadth", 1, RngState(0)).tolist() == [
            breadth_tree(rel).parent.tolist()]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_per_sample_loop(self, seed, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "chi_square_gof",
                            lambda counts, probs, suite: seen.append(counts))
        for p in (uniform_pseq(3), PSeq(np.array([0.4, 0.3, 0.2, 0.1]))):
            for kind in READINGS:
                verify._tree_law_reports(p, kind, 2000, RngState(seed).child(0))
                want = tree_law_counts_oracle(p, kind, 2000, RngState(seed).child(0))
                assert seen.pop().tobytes() == want.tobytes()

    @pytest.mark.parametrize("row", [[1, 0, -1], [-1, -1, -1], [2, 2, 2], [-1, 0, 2]])
    def test_unknown_tree_raises(self, row, monkeypatch):
        monkeypatch.setattr(verify, "_parent_rows", lambda p, kind, samples, rng: np.array(
            [[-1, 0, 0]] * (samples - 1) + [row]))
        with pytest.raises(ValueError, match="matches no enumerated tree"):
            verify._tree_law_reports(uniform_pseq(3), "breadth", 100, RngState(0))


class TestTreeLawSmoke:
    def test_breadth_law_small(self):
        p = uniform_pseq(3)
        trees = list(enumerate_parent_arrays(3))
        index = {t: i for i, t in enumerate(trees)}
        probs = np.array([ptree_probability(np.array(t), p) for t in trees])
        counts = np.zeros(9)
        rng = RngState(101)
        for _ in range(20_000):
            tr = breadth_tree(sample_positions(p, rng))
            counts[index[parent_key(tr)]] += 1
        rep = chi_square_gof(counts, probs)
        assert rep.p_value > 0.001

    def test_depth_law_small(self):
        p = PSeq(np.array([0.4, 0.3, 0.2, 0.1]))
        trees = list(enumerate_parent_arrays(4))
        index = {t: i for i, t in enumerate(trees)}
        probs = np.array([ptree_probability(np.array(t), p) for t in trees])
        counts = np.zeros(64)
        rng = RngState(102)
        for _ in range(20_000):
            tr = depth_tree(sample_positions(p, rng))
            counts[index[parent_key(tr)]] += 1
        rep = chi_square_gof(counts, probs)
        assert rep.p_value > 0.001

    def test_constructions_close_in_law(self):
        # total-variation distance of empirical tree frequencies
        p = uniform_pseq(3)
        trees = list(enumerate_parent_arrays(3))
        index = {t: i for i, t in enumerate(trees)}
        reps = 20_000
        cb = np.zeros(9)
        cd = np.zeros(9)
        rng1, rng2 = RngState(103), RngState(104)
        for _ in range(reps):
            cb[index[parent_key(breadth_tree(sample_positions(p, rng1)))]] += 1
            cd[index[parent_key(depth_tree(sample_positions(p, rng2)))]] += 1
        tv = 0.5 * np.abs(cb / reps - cd / reps).sum()
        assert tv < 0.02


def repeat_time_mean_uniform(n: int) -> float:
    """Exact mean first-repeat index for the uniform vector on [n]:
    the sum over k of P(T > k) = prod_{i<k} (1 - i/n)."""
    total = 2.0  # P(T > 0) + P(T > 1)
    prod = 1.0
    for k in range(1, n + 1):
        prod *= 1.0 - k / n
        if prod == 0.0:
            break
        total += prod
    return total


def repeat_time_oracle(p, rng):
    """Draw from p one vertex at a time until the first repeated vertex.
    Returns (T, S): the index of the first repeat and the heavy-zeroed
    weight of the distinct draws before it.  Test-only oracle for
    ptree.repeat_time_sample, which returns T only."""
    tail = p.tail_probs
    seen = set()
    total = 0.0
    t = 0
    while True:
        t += 1
        xi = int(p.draw(rng))
        if xi in seen:
            return t, total
        seen.add(xi)
        total += tail[xi]


def drawn_heights_oracle(p, replicates, rng):
    """The repeat-time heights one breadth tree per replicate, as
    verify.suite_repeat_time read them before it walked batched chains.
    Test-only oracle for verify._drawn_heights."""
    out = np.empty(replicates, dtype=np.int64)
    for k in range(replicates):
        stream = verify._stream(rng, "repeat-time/height", k)
        tr = breadth_tree(sample_positions(p, stream))
        out[k] = tr.heights[int(p.draw(stream))]
    return out


def heights_or_error(heights, p, replicates, seed):
    try:
        return heights(p, replicates, RngState(seed).child(0)).tobytes()
    except TieError as e:
        return TieError, str(e)


REAL_STREAM = verify._stream


def force_rows(monkeypatch, rows):
    """Make replicate k of the repeat-time heights draw rows[k], then the
    positions GOOD3[1] or, at n = 2, [0.3, 0.8], and then the uniform 0.9."""
    def scripted(rng, side, k=0, rejection=0):
        if side == "repeat-time/height" and k in rows:
            second = GOOD3[1] if len(rows[k]) == 3 else [0.3, 0.8]
            return FixedUniforms(rows[k], second, [0.9])
        return REAL_STREAM(rng, side, k, rejection)

    monkeypatch.setattr(verify, "_stream", scripted)


class TestDrawnHeights:
    # verify._drawn_heights against one breadth tree per replicate
    @pytest.mark.parametrize("n", [1, 2, 5, 50, 200])
    def test_blocks_match_per_replicate_loop(self, n, monkeypatch):
        monkeypatch.setattr(verify, "HEIGHT_BLOCK", 16)
        vectors = [uniform_pseq(n)]
        if n >= 50:
            vectors.append(approximating_pseq(REFERENCE_THETA, n))
        for p in vectors:
            for replicates in (0, 1, 15, 16, 17, 40):
                for seed in range(2):
                    got = verify._drawn_heights(p, replicates, RngState(seed).child(0))
                    want = drawn_heights_oracle(p, replicates, RngState(seed).child(0))
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("replicates", [verify.HEIGHT_BLOCK - 1, verify.HEIGHT_BLOCK,
                                            verify.HEIGHT_BLOCK + 1])
    def test_default_block_edges(self, replicates):
        p = uniform_pseq(50)
        got = verify._drawn_heights(p, replicates, RngState(3).child(0))
        assert got.tobytes() == drawn_heights_oracle(p, replicates, RngState(3).child(0)).tobytes()

    @pytest.mark.parametrize("bad", list(REDRAWN3))
    def test_redrawn_rows_are_recomputed(self, bad, monkeypatch):
        assert ptree._drawn_height_rows(P3, np.array([REDRAWN3[bad]]), np.array([0.9]))[1].tolist() \
            == [True]
        monkeypatch.setattr(verify, "HEIGHT_BLOCK", 4)
        force_rows(monkeypatch, {0: REDRAWN3[bad], 3: GOOD3[0], 5: REDRAWN3[bad]})
        for replicates in (1, 4, 7):
            got = heights_or_error(verify._drawn_heights, P3, replicates, 0)
            assert got == heights_or_error(drawn_heights_oracle, P3, replicates, 0)

    def test_tie_raises_where_the_single_path_does(self, monkeypatch):
        p, tie = TIE2
        assert ptree._drawn_height_rows(p, np.array([tie]), np.array([0.9]))[1].tolist() == [True]
        monkeypatch.setattr(verify, "HEIGHT_BLOCK", 4)
        for k in (0, 2, 5):
            force_rows(monkeypatch, {k: tie, 1: [0.0, 0.8]})
            for replicates in (k, k + 1):
                got = heights_or_error(verify._drawn_heights, p, replicates, 0)
                assert got == heights_or_error(drawn_heights_oracle, p, replicates, 0)
                assert isinstance(got, tuple) == (replicates > k)

    def test_position_at_a_claim_end(self):
        # vertex 2 (u = 0.9) sits at the root's claim end, so its height is
        # 1, as is vertex 1's (u = 0.6); the root's (u = 0.1) is 0
        heights, flagged = ptree._drawn_height_rows(P_DYADIC, np.array([X_DYADIC] * 3),
                                                    np.array([0.9, 0.6, 0.1]))
        assert heights.tolist() == [1, 1, 0] and flagged.tolist() == [False] * 3

    def test_chain_that_misses_the_root_raises(self, monkeypatch):
        no = np.zeros(1, dtype=bool)
        monkeypatch.setattr(ptree, "_relocated_rows", lambda p, x: (
            STUCK.positions[None], STUCK.pos_order[None], STUCK.xs_sorted[None],
            STUCK.w_sorted[None], no, no, no, no))
        with pytest.raises(DegenerateError, match="does not reach the root"):
            ptree._drawn_height_rows(P3, np.zeros((1, 3)), np.array([0.6]))


class TestRepeatTime:
    def test_single_vertex(self):
        t, s = repeat_time_oracle(uniform_pseq(1), RngState(0))
        assert t == 2 and s == 1.0
        assert repeat_time_sample(uniform_pseq(1), RngState(0), 3).tolist() == [2, 2, 2]

    @pytest.mark.parametrize("p", [uniform_pseq(1), uniform_pseq(5), uniform_pseq(50),
                                   approximating_pseq(REFERENCE_THETA, 200)],
                             ids=["n1", "n5", "n50", "reference-n200"])
    def test_blocks_match_one_draw_at_a_time(self, p):
        # bitwise the same indices, and the stream left at the same state
        for seed in range(3):
            blocks, single = RngState(seed), RngState(seed)
            times = repeat_time_sample(p, blocks, 500)
            assert times.dtype == np.int64
            assert times.tolist() == [repeat_time_oracle(p, single)[0] for _ in range(500)]
            assert blocks.gen.random() == single.gen.random()
        assert repeat_time_sample(p, RngState(0), 0).size == 0

    def test_mean_against_exact(self):
        n = 20
        p = uniform_pseq(n)
        rng = RngState(105)
        reps = 20_000
        ts = repeat_time_sample(p, rng, reps)
        exact = repeat_time_mean_uniform(n)
        se = ts.std(ddof=1) / np.sqrt(reps)
        assert abs(ts.mean() - exact) < 3 * se

    def test_identity_smoke(self):
        n = 12
        p = uniform_pseq(n)
        rng = RngState(106)
        reps = 5000
        side_a = repeat_time_sample(p, rng, reps) - 2
        side_b = np.empty(reps)
        for k in range(reps):
            r2 = RngState(107).child(k)
            tr = breadth_tree(sample_positions(p, r2))
            v = int(p.draw(r2))
            h = 0
            while tr.parent[v] != -1:
                v = int(tr.parent[v])
                h += 1
            side_b[k] = h
        rep = ks_two_sample(side_a, side_b)
        assert rep.p_value > 0.001


def tail_ratio(p):
    """Heavy-zeroed squared weight over sigma^2: the theta0^2 that
    exploration_gap scales the height by."""
    return float((p.tail_probs ** 2).sum()) / p.sigma ** 2


class TestDiagnostics:
    def test_uniform_ratio_is_one(self):
        p = uniform_pseq(50)
        assert tail_ratio(p) == pytest.approx(1.0)
        assert p.probs[-1] == pytest.approx(0.02)

    def test_reference_ratio_near_theta0_sq(self, reference_theta):
        p = approximating_pseq(reference_theta, 10_000)
        assert abs(tail_ratio(p) - 0.862 ** 2) < 0.05
        assert p.probs[: p.n_heavy].shape == (3,)

    def test_gap_brownian_case(self):
        p = uniform_pseq(400)
        gaps = [exploration_gap(p, RngState(29).child(k)) for k in range(10)]
        assert all(g > 0 for g in gaps)
        assert np.median(gaps) < 1.0

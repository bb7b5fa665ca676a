import json
from types import SimpleNamespace

import numpy as np
import pytest

from icrt_lab.errors import DegenerateError, DuplicateSampleError
from icrt_lab.icrt import (
    EdgeTree,
    _spanning_reduction,
    line_breaking_tree,
    sample_function_tree,
    spanning_subtree,
)
from icrt_lab.paths import continuous_path, validate_theta
from icrt_lab.ptree import (
    PSeq,
    approximating_pseq,
    breadth_chains,
    breadth_tree,
    depth_tree,
    relocate,
    sample_positions,
    uniform_pseq,
)
from icrt_lab.reflect import sample_reflected
from icrt_lab.rng import RngState
from icrt_lab.stats import ks_two_sample

from conftest import make_tent


def children_lists(et: EdgeTree) -> list:
    out = [[] for _ in range(et.n_nodes)]
    for v in range(1, et.n_nodes):
        out[int(et.parent[v])].append(v)
    return out


def validate(et: EdgeTree) -> None:
    """Positive lengths; labeled leaves; unlabeled internal non-root nodes
    of degree at least 3."""
    assert np.all(et.lengths[1:] > 0.0), "edge lengths must be positive"
    kids = children_lists(et)
    labeled = set(et.leaf_nodes.values())
    for v in range(1, et.n_nodes):
        # an unlabeled non-root node is neither a leaf nor of degree 2
        assert v in labeled or len(kids[v]) >= 2, f"node {v} has {len(kids[v])} children"


def shape_code(et: EdgeTree) -> str:
    """Canonical shape string: invariant under internal relabeling, leaf
    labels kept, edge lengths ignored."""
    kids = children_lists(et)
    labels_at: dict = {}
    for lab, node in et.leaf_nodes.items():
        labels_at.setdefault(node, []).append(lab)

    def code(v: int) -> str:
        lab = ",".join(str(x) for x in sorted(labels_at.get(v, [])))
        sub = sorted(code(c) for c in kids[v])
        inner = ("L" + lab if lab else "") + ("|".join(sub) if sub else "")
        return "(" + inner + ")"

    return code(0)


def cherry(stem=1.0, arm1=2.0, arm2=3.0) -> EdgeTree:
    return EdgeTree(np.array([-1, 0, 1, 1]),
                    np.array([0.0, stem, arm1, arm2]),
                    {1: 2, 2: 3})


class TestEdgeTree:
    def test_single_edge_stats(self):
        et = EdgeTree(np.array([-1, 0]), np.array([0.0, 2.5]), {1: 1})
        assert et.total_length() == 2.5 and list(et.leaf_depths()) == [2.5]
        assert shape_code(et) == "((L1))"

    def test_cherry_stats(self):
        et = cherry()
        assert et.total_length() == 6.0
        assert list(et.leaf_depths()) == [3.0, 4.0]

    def test_shape_code_invariant_under_internal_relabeling(self):
        # same cherry with internal node created in a different order
        a = cherry()
        b = EdgeTree(np.array([-1, 0, 1, 1]),
                     np.array([0.0, 1.0, 3.0, 2.0]),
                     {2: 2, 1: 3})
        assert shape_code(a) == shape_code(b)

    def test_shape_code_distinguishes_labels(self):
        a = cherry()
        c = EdgeTree(np.array([-1, 0, 1, 2]),
                     np.array([0.0, 1.0, 2.0, 3.0]),
                     {1: 2, 2: 3})  # caterpillar, label 1 internal
        assert shape_code(a) != shape_code(c)

    def test_json_roundtrip(self):
        # (parent, child, length) per non-root node; leaf nodes by label
        obj = json.loads(cherry().to_json())
        assert obj == {"edges": [[0, 1, 1.0], [1, 2, 2.0], [1, 3, 3.0]], "leaves": [2, 3]}

    def test_scale(self):
        et = cherry().scale_lengths(2.0)
        assert et.total_length() == 12.0


class TestLineBreaking:
    def test_single_leaf_shape(self, brownian_theta):
        et = line_breaking_tree(brownian_theta, 1, RngState(3))
        assert et.n_nodes == 2 and len(et.leaf_nodes) == 1
        validate(et)

    def test_two_leaves_one_branchpoint(self, brownian_theta):
        for k in range(20):
            et = line_breaking_tree(brownian_theta, 2, RngState(4).child(k))
            assert et.n_nodes == 4  # root, branchpoint, two leaves
            validate(et)

    def test_leaf_count(self, reference_theta):
        for j in (1, 2, 5):
            et = line_breaking_tree(reference_theta, j, RngState(5))
            assert len(et.leaf_nodes) == j
            validate(et)

    def test_segment_lengths_shrink_with_stage(self, reference_theta):
        # the final segment is never subdivided, so the last leaf's edge is
        # the newest cutpoint gap; its mean shrinks as the stage grows
        def last_edge(j, k):
            et = line_breaking_tree(reference_theta, j, RngState(6).child(k))
            return et.lengths[et.leaf_nodes[j]]

        early = np.mean([last_edge(2, k) for k in range(200)])
        late = np.mean([last_edge(8, k) for k in range(200)])
        assert 0.0 < late < early

    def test_rayleigh_first_branch(self, brownian_theta):
        # survival of the first cutpoint is exp(-x^2 / 2)
        n = 4000
        ls = np.array([line_breaking_tree(brownian_theta, 1, RngState(7).child(k)).total_length()
                       for k in range(n)])
        ref = np.sqrt(2.0 * RngState(8).gen.exponential(size=n))
        rep = ks_two_sample(ls, ref)
        assert rep.p_value > 0.001

    def test_first_cut_survival_with_atoms(self, reference_theta):
        # survival exp(-theta0^2 x^2 / 2) * prod_i (1 + theta_i x) exp(-theta_i x)
        n = 4000
        ls = np.array([line_breaking_tree(reference_theta, 1, RngState(9).child(k)).total_length()
                       for k in range(n)])
        th0, atoms = reference_theta.theta0, reference_theta.atoms

        def survival(x):
            s = np.exp(-th0 ** 2 * x ** 2 / 2.0)
            for a in atoms:
                s = s * (1.0 + a * x) * np.exp(-a * x)
            return s

        # inverse-transform reference sample via bisection
        us = RngState(10).gen.random(n)
        ref = np.empty(n)
        for i, u in enumerate(us):
            lo, hi = 0.0, 50.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if survival(mid) > u:
                    lo = mid
                else:
                    hi = mid
            ref[i] = 0.5 * (lo + hi)
        rep = ks_two_sample(ls, ref)
        assert rep.p_value > 0.001

    def test_hub_reuse_creates_high_degree(self):
        # a dominant atom forces repeated attachment to one joinpoint
        theta = validate_theta(0.1, [0.99498743710662])  # norm within 1e-4
        counts = []
        for k in range(50):
            et = line_breaking_tree(theta, 6, RngState(11).child(k))
            kids = children_lists(et)
            counts.append(max(len(c) for c in kids))
        assert max(counts) >= 3


class TestSampleFunctionTree:
    def test_single_time(self):
        et = sample_function_tree(make_tent(), [0.3])
        assert et.n_nodes == 2
        assert et.leaf_depths()[0] == pytest.approx(0.3)

    def test_tent_degenerate_merge(self):
        # depths 0.25 and 0.25 with branch depth 0.25: all merge
        et = sample_function_tree(make_tent(), [0.25, 0.75])
        assert et.leaf_nodes[1] == et.leaf_nodes[2]
        assert et.leaf_depths()[0] == pytest.approx(0.25)

    def test_tent_nested(self):
        et = sample_function_tree(make_tent(), [0.2, 0.4])
        # branch depth = tent(0.2) = 0.2; leaf depths 0.2 and 0.4
        assert sorted(et.leaf_depths()) == pytest.approx([0.2, 0.4])
        assert et.total_length() == pytest.approx(0.4)

    def test_label_relabeling(self):
        # the later time in the input order is the first on the axis
        et = sample_function_tree(make_tent(), [0.4, 0.2])
        d = et.leaf_depths()
        assert d[0] == pytest.approx(0.4)  # label 1 = first input = time 0.4
        assert d[1] == pytest.approx(0.2)

    def test_scaling_property(self, reference_theta):
        y = sample_reflected(reference_theta, 256, RngState(12))
        u = RngState(13).gen.random(4)
        a = sample_function_tree(y, u)
        b = sample_function_tree(y.scale_values(3.0), u)
        assert shape_code(b) == shape_code(a)
        assert b.total_length() == pytest.approx(3.0 * a.total_length(), rel=1e-12)

    def test_branchpoint_count(self, reference_theta):
        for k in range(20):
            y = sample_reflected(reference_theta, 256, RngState(14).child(k))
            u = RngState(15).child(k).gen.random(5)
            et = sample_function_tree(y, u)
            n_internal = et.n_nodes - 1 - len(et.leaf_nodes)
            assert n_internal <= 4  # at most J - 1 branchpoints
            validate(et)

    def test_coincident_times_raise(self):
        with pytest.raises(DegenerateError):
            sample_function_tree(make_tent(), [0.3, 0.3])


def spanning_subtree_oracle(tree, vertices) -> EdgeTree:
    """The earlier spanning construction, kept as a test-only oracle: the
    union of the root paths, each kept vertex (marked, or with two children
    in the union) hung below its nearest kept ancestor by the step count."""
    if len(set(vertices)) != len(vertices):
        raise DuplicateSampleError("two sampled vertices coincide")
    if tree.root in vertices:
        raise DegenerateError("sampled the root")
    parent = tree.parent

    def root_distance(v):
        steps = 0
        while parent[v] != -1:
            v = int(parent[v])
            steps += 1
        return steps

    union = set(vertices) | {int(tree.root)}
    for v in vertices:
        w = v
        while parent[w] != -1:
            w = int(parent[w])
            union.add(w)
    child_sets: dict = {v: set() for v in union}
    for v in union:
        if parent[v] != -1:
            child_sets[int(parent[v])].add(v)
    marked = set(vertices) | {int(tree.root)}
    keep = {v for v in union if v in marked or len(child_sets[v]) >= 2}
    node_of = {int(tree.root): 0}
    parent_out = [-1]
    lengths_out = [0.0]

    def ensure(v):
        if v in node_of:
            return node_of[v]
        w = v
        steps = 0
        while True:
            w = int(parent[w])
            steps += 1
            if w in keep:
                break
        par_node = ensure(w)
        parent_out.append(par_node)
        lengths_out.append(float(steps))
        node_of[v] = len(parent_out) - 1
        return node_of[v]

    for v in sorted(keep, key=root_distance):
        ensure(v)
    leaf_nodes = {i + 1: node_of[v] for i, v in enumerate(vertices)}
    return EdgeTree(np.array(parent_out), np.array(lengths_out), leaf_nodes)


def length_code(et: EdgeTree) -> str:
    """Canonical shape string with each edge's length bits and the leaf
    labels; invariant under internal relabeling."""
    kids = children_lists(et)
    labels_at: dict = {}
    for lab, node in et.leaf_nodes.items():
        labels_at.setdefault(node, []).append(lab)

    def code(v: int) -> str:
        lab = ",".join(str(x) for x in sorted(labels_at.get(v, [])))
        sub = "|".join(sorted(code(c) for c in kids[v]))
        return f"({float(et.lengths[v]).hex()}L{lab}:{sub})"

    return code(0)


def parent_chains(tree, vertices):
    """Root-first ancestor chains of the vertices, read from the parent
    array."""
    chains = []
    for v in vertices:
        chain = [v]
        while tree.parent[chain[-1]] != -1:
            chain.append(int(tree.parent[chain[-1]]))
        chains.append(chain[::-1])
    return chains


def reduce_on_tree(tree, vertices) -> EdgeTree:
    """The spanning reduction of a tree given by its parent array."""
    return _spanning_reduction(parent_chains(tree, vertices))


def reduce_both(tree, vertices):
    """(outcome, outcome) of the spanning reduction and the oracle; an
    outcome is the tree's length code and total-length bits, or the
    exception type."""
    out = []
    for fn in (reduce_on_tree, spanning_subtree_oracle):
        try:
            et = fn(tree, vertices)
        except Exception as e:  # the exception type must match too
            out.append(type(e))
            continue
        out.append((length_code(et), et.lengths.sum().hex(), sorted(et.leaf_nodes)))
    return out


def hand_tree(parent) -> SimpleNamespace:
    # the oracle reads only the parent array and the root
    parent = np.array(parent)
    return SimpleNamespace(parent=parent, root=int(np.flatnonzero(parent == -1)[0]))


class TestSpanningOracle:
    @pytest.mark.parametrize("parent, vertices", [
        ([-1, 0, 1, 2], [3, 1, 2]),  # nested markers on one chain, drawn out of order
        ([-1, 0, 1, 1], [2, 1, 3]),  # a leaf on both other leaves' root paths
        ([-1, 0, 0, 2], [3, 1]),  # branching at the root
        ([-1, 0, 0, 2], [1, 3]),
        ([-1, 0, 1, 1, 1], [2, 3, 4]),  # three leaves below one unmarked vertex
        ([2, 2, -1, 0, 3, 1], [4, 5, 0]),  # root is not vertex 0
        ([-1, 0, 1, 2, 3, 2, 0], [4, 5, 6, 3]),  # deep pop and split back to depth 2
    ])
    def test_hand_cases(self, parent, vertices):
        tree = hand_tree(parent)
        new, old = reduce_both(tree, vertices)
        assert new == old

    def test_nested_chain_labels_inner_nodes(self):
        et = reduce_on_tree(hand_tree([-1, 0, 1, 2]), [3, 1, 2])
        assert list(et.leaf_depths()) == [3.0, 1.0, 2.0]
        assert et.n_nodes == 4 and et.total_length() == 3.0

    def test_branching_at_the_root(self):
        et = reduce_on_tree(hand_tree([-1, 0, 0, 2]), [3, 1])
        assert list(et.parent) == [-1, 0, 0] and sorted(et.lengths) == [0.0, 1.0, 2.0]

    def test_exceptions_match(self):
        tree = hand_tree([-1, 0, 1])
        for verts in ([1, 1], [0, 2]):
            new, old = reduce_both(tree, verts)
            assert new == old and isinstance(new, type)

    def test_random_reductions(self, reference_theta):
        # breadth and depth trees, uniform and reference p, 1200 reductions
        # with J = 2..6; the larger J at small n also exercise duplicates
        count = 0
        for n in (60, 600, 6000):
            for p in (uniform_pseq(n), approximating_pseq(reference_theta, n)):
                rel = sample_positions(p, RngState(20).child(n))
                for build in (breadth_tree, depth_tree):
                    tree = build(rel)
                    for k in range(100):
                        vertices = [int(v) for v in p.draw(RngState(21).child(k), size=2 + k % 5)]
                        new, old = reduce_both(tree, vertices)
                        assert new == old, (n, build.__name__, k)
                        if build is breadth_tree:
                            assert breadth_chains(rel, vertices) == parent_chains(tree, vertices)
                        count += 1
        assert count == 1200

    def test_spanning_subtree_reads_the_breadth_tree(self, reference_theta):
        # the reduction from the relocation's chains has the bits of the
        # reduction of the built breadth tree, or raises the same error, and
        # both leave the stream at the same state
        for n in (60, 6000):
            for p in (uniform_pseq(n), approximating_pseq(reference_theta, n)):
                rel = sample_positions(p, RngState(22).child(n))
                tree = breadth_tree(rel)
                for k in range(50):
                    outcomes = []
                    for read in (lambda rng: spanning_subtree(rel, p, 2 + k % 4, rng),
                                 lambda rng: reduce_on_tree(
                                     tree, [int(v) for v in p.draw(rng, size=2 + k % 4)])):
                        rng = RngState(23).child(k)
                        try:
                            et = read(rng)
                            out = (length_code(et), et.lengths.sum().hex())
                        except (DuplicateSampleError, DegenerateError) as e:
                            out = type(e)
                        outcomes.append((out, rng.gen.random()))
                    assert outcomes[0] == outcomes[1], (n, k)


class TestSpanningSubtree:
    def setup_method(self):
        self.p = PSeq(np.array([0.5, 0.3, 0.2]))
        self.rel = relocate(self.p, [0.05, 0.5, 0.7])  # chain 0 -> 1 -> 2

    def reduce(self, vertices):
        return _spanning_reduction(breadth_chains(self.rel, vertices))

    def test_single_vertex_path(self):
        et = self.reduce([2])
        assert et.n_nodes == 2
        assert et.leaf_depths()[0] == 2.0  # height of vertex 2

    def test_nested_markers(self):
        et = self.reduce([1, 2])
        # vertex 1 is on the path to vertex 2: kept as a labeled inner node
        d = et.leaf_depths()
        assert list(d) == [1.0, 2.0]
        assert et.total_length() == 2.0

    def test_duplicate_raises(self):
        with pytest.raises(DuplicateSampleError):
            self.reduce([2, 2])

    def test_root_draw_raises(self):
        with pytest.raises(DegenerateError):
            self.reduce([0])

    def test_duplicate_rate_shrinks(self):
        rates = []
        for n in (1000, 10_000):
            p = uniform_pseq(n)
            rel = sample_positions(p, RngState(16))
            dup = 0
            draws = 2000
            for k in range(draws):
                try:
                    spanning_subtree(rel, p, 5, RngState(17).child(k))
                except (DuplicateSampleError, DegenerateError):
                    dup += 1
            rates.append(dup / draws)
        assert rates[1] < 0.01
        assert rates[1] <= rates[0]

    def test_random_contraction_consistency(self):
        # total length equals the number of spanning-tree edges
        n = 200
        p = uniform_pseq(n)
        rel = sample_positions(p, RngState(18))
        tree = breadth_tree(rel)
        et = spanning_subtree(rel, p, 3, RngState(19))
        # recompute by brute force: union of root paths
        # (vertices drawn again with the same stream)
        verts = [int(v) for v in p.draw(RngState(19), size=3)]
        union = set()
        for v in verts:
            w = v
            while w != tree.root:
                union.add(w)
                w = int(tree.parent[w])
        assert et.total_length() == float(len(union))

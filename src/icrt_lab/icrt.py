"""Trees with edge lengths: line-breaking sampler, function-sampled reduced
trees, and spanning reductions of discrete trees.

The line-breaking sampler cuts the half line at the superposition of a
quadratic-intensity planar process (projected) and one linear-rate process
per atom, gluing each new segment at its joinpoint; the stage-J tree spans
the root and J leaves.  A reduced tree listed depth-first is fixed by its
leaf depths and the branch depth between consecutive leaves; one builder
reads it so, fed by the function sampler (path values and interval infima
at given times) and by the spanning reduction of a discrete tree (ancestor
chain lengths and common-prefix lengths).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError, DuplicateSampleError
from .paths import CadlagPath, Theta
from .ptree import PSeq, RootedTree
from .rng import RngState

MERGE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Edge trees
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EdgeTree:
    """Rooted tree with positive edge lengths and labeled leaves.

    Node 0 is the root; parent[0] = -1 and lengths[0] = 0.  leaf_nodes maps
    label (1..J) to node id.  A labeled node is normally a leaf but may sit
    internally in degenerate reductions.
    """

    parent: np.ndarray
    lengths: np.ndarray
    leaf_nodes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.lengths = np.asarray(self.lengths, dtype=float)
        if self.parent[0] != -1:
            raise ValueError("node 0 must be the root")

    @property
    def n_nodes(self) -> int:
        return int(self.parent.size)

    def depths(self) -> np.ndarray:
        d = np.zeros(self.n_nodes)
        done = np.zeros(self.n_nodes, dtype=bool)
        done[0] = True
        for v in range(1, self.n_nodes):
            chain = []
            w = v
            while not done[w]:
                chain.append(w)
                w = int(self.parent[w])
            base = d[w]
            for u in reversed(chain):
                base = base + self.lengths[u]
                d[u] = base
                done[u] = True
        return d

    def total_length(self) -> float:
        return float(self.lengths.sum())

    def leaf_depths(self) -> np.ndarray:
        d = self.depths()
        return np.array([d[self.leaf_nodes[lab]] for lab in sorted(self.leaf_nodes)])

    def scale_lengths(self, c: float) -> "EdgeTree":
        return EdgeTree(self.parent.copy(), c * self.lengths, dict(self.leaf_nodes))

    def to_json(self) -> str:
        edges = [[int(self.parent[v]), int(v), float(self.lengths[v])]
                 for v in range(1, self.n_nodes)]
        leaves = [int(self.leaf_nodes[lab]) for lab in sorted(self.leaf_nodes)]
        return json.dumps({"edges": edges, "leaves": leaves})


# ---------------------------------------------------------------------------
# Line-breaking sampler
# ---------------------------------------------------------------------------

class _CutpointStream:
    """Merged increasing stream of cutpoints paired with joinpoints.

    Source 0 is the planar process: x-coordinates arrive with quadratic
    cumulative intensity theta0^2 x^2 / 2, each paired with a uniform
    joinpoint below it.  Source i >= 1 is the rate-theta_i process on the
    line: its first point is held back as the shared joinpoint (the hub)
    and only later points are cutpoints.
    """

    def __init__(self, theta: Theta, rng: RngState):
        self.theta = theta
        self.gen = rng.gen
        self.heap: list = []
        self._s0 = 0.0
        if theta.theta0 > 0.0:
            self._push_planar()
        self.hubs = {}
        for i, rate in enumerate(theta.atoms, start=1):
            first = self.gen.exponential(1.0 / rate)
            self.hubs[i] = first
            heapq.heappush(self.heap, (first + self.gen.exponential(1.0 / rate), i))

    def _push_planar(self):
        self._s0 += self.gen.exponential(1.0)
        x = float(np.sqrt(2.0 * self._s0) / self.theta.theta0)
        heapq.heappush(self.heap, (x, 0))

    def next_cut(self) -> tuple[float, float]:
        x, src = heapq.heappop(self.heap)
        if src == 0:
            join = float(self.gen.uniform(0.0, x))
            self._push_planar()
        else:
            join = self.hubs[src]
            rate = self.theta.atoms[src - 1]
            heapq.heappush(self.heap, (x + self.gen.exponential(1.0 / rate), src))
        return float(x), join


def line_breaking_tree(theta: Theta, leaves: int, rng: RngState) -> EdgeTree:
    """Stage-J tree of the recursive line-breaking construction.

    Segment k covers (eta_{k-1}, eta_k] of the half line; segment k >= 2
    attaches at the joinpoint of cutpoint eta_{k-1}; the free end of
    segment k is leaf k.
    """
    if leaves < 1:
        raise ValueError("need at least one leaf")
    stream = _CutpointStream(theta, rng)
    cuts, joins = [], []
    for _ in range(leaves):
        c, j = stream.next_cut()
        cuts.append(c)
        joins.append(j)
    cut_edges = np.concatenate([[0.0], cuts])
    seg_attachments: list = [[] for _ in range(leaves)]
    for k in range(1, leaves):
        a = joins[k - 1]
        host = int(np.searchsorted(cut_edges, a, side="left")) - 1
        seg_attachments[host].append((a - cut_edges[host], k))
    parent = [-1]
    lengths = [0.0]
    leaf_nodes = {}
    seg_root = [0] * leaves
    node_of: dict = {}

    def new_node(par: int, ln: float) -> int:
        parent.append(par)
        lengths.append(ln)
        return len(parent) - 1

    # attachment targets lie on earlier segments, so processing segments in
    # creation order guarantees the host chain exists when referenced
    for k in range(leaves):
        offsets = sorted(set(o for o, _ in seg_attachments[k]))
        cur_node, cur_off = seg_root[k], 0.0
        for o in offsets:
            node = new_node(cur_node, o - cur_off)
            node_of[(k, o)] = node
            cur_node, cur_off = node, o
        seg_len = float(cut_edges[k + 1] - cut_edges[k])
        leaf_nodes[k + 1] = new_node(cur_node, seg_len - cur_off)
        for o, child_seg in seg_attachments[k]:
            seg_root[child_seg] = node_of[(k, o)]
    return EdgeTree(np.array(parent), np.array(lengths), leaf_nodes)


# ---------------------------------------------------------------------------
# Reduced trees
# ---------------------------------------------------------------------------

def _reduced_tree(order, depths, branch) -> EdgeTree:
    """Reduced tree on the root and leaves listed depth-first.

    Leaf i carries label order[i] + 1 and sits at depths[i]; leaves i and
    i + 1 branch at depth branch[i].  Depth coincidences within MERGE_TOL
    merge into one node.
    """
    parent = [-1]
    lengths = [0.0]
    leaf_nodes = {}

    def new_node(par: int, ln: float) -> int:
        parent.append(par)
        lengths.append(ln)
        return len(parent) - 1

    spine = [(0, 0.0)]  # nodes along the path to the latest leaf
    for i in range(len(order)):
        label = int(order[i]) + 1
        d = float(depths[i])
        if i > 0:
            b = float(branch[i - 1])
            popped = None
            while len(spine) > 1 and spine[-1][1] > b + MERGE_TOL:
                popped = spine.pop()
            top, td = spine[-1]
            if b - td > MERGE_TOL:
                # split the spine edge toward the popped node at depth b
                mid = new_node(top, b - td)
                pop_node, pop_depth = popped
                parent[pop_node] = mid
                lengths[pop_node] = pop_depth - b
                spine.append((mid, b))
        base, bd = spine[-1]
        if d - bd <= MERGE_TOL:
            leaf_nodes[label] = base  # depth coincidence: label the base node
            continue
        leaf = new_node(base, d - bd)
        leaf_nodes[label] = leaf
        spine.append((leaf, d))
    return EdgeTree(np.array(parent), np.array(lengths), leaf_nodes)


# ---------------------------------------------------------------------------
# Sampling a function
# ---------------------------------------------------------------------------

def sample_function_tree(h: CadlagPath, sample_times,
                         leaf_shift: float = 0.0) -> EdgeTree:
    """Reduced tree read off an excursion at the given times.

    Root-to-leaf distances are the path values at the sorted times;
    consecutive leaves branch at the interval infimum.  The i-th smallest
    time carries the label of its original position in `sample_times`
    (1-based).  Depth coincidences within 1e-12 merge into one node.

    leaf_shift is added to the point evaluations only: for paths sampled on
    a grid and re-based at a grid minimum, point values sit low by the
    discrete-monitoring constant while interval infima self-correct (the
    grid misses interval dips by the same constant), so only the leaf
    depths need the correction.
    """
    u = np.asarray(sample_times, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("need at least one sample time")
    order = np.argsort(u)
    u_sorted = u[order]
    if np.any(np.diff(u_sorted) == 0.0):
        raise DegenerateError("coincident sample times")
    depths = np.array([h.value(t) for t in u_sorted]) + leaf_shift
    branch = np.array([h.interval_inf(u_sorted[i], u_sorted[i + 1])
                       for i in range(u.size - 1)])
    return _reduced_tree(order, depths, branch)


# ---------------------------------------------------------------------------
# Spanning reduction of a discrete tree
# ---------------------------------------------------------------------------

def spanning_subtree(tree: RootedTree, p: PSeq, leaves: int, rng: RngState) -> EdgeTree:
    """Reduced spanning tree on the root and `leaves` vertices drawn from p.

    Unit-length edges are contracted through unmarked degree-2 vertices,
    leaving integer edge lengths.  Raises DuplicateSampleError on a
    repeated draw and DegenerateError when the root itself is drawn.
    """
    return _spanning_reduction(tree, [int(v) for v in p.draw(rng, size=leaves)])


def _spanning_reduction(tree: RootedTree, vertices) -> EdgeTree:
    """Reduced spanning tree on the root and the given vertices.

    Root-first ancestor chains in lexicographic order list the vertices
    depth-first, ancestors first; a vertex's depth is its chain length - 1
    and two vertices branch at their common prefix length - 1.
    """
    if len(set(vertices)) != len(vertices):
        raise DuplicateSampleError("two sampled vertices coincide")
    if tree.root in vertices:
        raise DegenerateError("sampled the root")
    parent = tree.parent
    chains = []
    for v in vertices:
        chain = [v]
        while parent[chain[-1]] != -1:
            chain.append(int(parent[chain[-1]]))
        chains.append(chain[::-1])
    order = sorted(range(len(chains)), key=chains.__getitem__)
    walk = [chains[i] for i in order]
    branch = []
    for a, b in zip(walk, walk[1:]):
        k = 0  # b sorts after a, so b is never a prefix of a
        while k < len(a) and a[k] == b[k]:
            k += 1
        branch.append(k - 1.0)
    return _reduced_tree(order, [len(c) - 1.0 for c in walk], branch)

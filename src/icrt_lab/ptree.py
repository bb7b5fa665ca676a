"""Weight-proportional random rooted trees built from particles on a circle.

A ranked probability vector places n particles at uniform positions on the
unit circle; the walk with drift -1 and a jump of p_i at particle i encodes
a random rooted tree on [n] with probability prod_v p_v^(children of v).
Each realisation is relocated once, at the minimizing particle, into a
`Relocation`; the walk's excursion and both the breadth-first and the
depth-first readings are views of it.  One routine, `_relocated_rows`,
relocates one row or many.  Many small trees at once, as the law check
needs, come from `_parent_rows`: the same parent arrays, bit for bit, from
one draw matrix read row by row.  Where only a few drawn
vertices matter, their ancestor chains in the breadth reading are read
from the relocation without the tree (`breadth_chains`, and
`_drawn_height_rows` for many rows at once).  The exact structural
identities tying the tree to the walk are implemented too: pending-mass,
generation-weight, width, and exploration-height relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateError,
    DuplicatePositionError,
    SignError,
    TieError,
)
from .paths import CadlagPath, Theta, subtract_on_windows, sup_distance
from .rng import RngState

TIE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Ranked probability vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PSeq:
    """Ranked probability vector with a designated count of large entries."""

    probs: np.ndarray
    n_heavy: int = 0

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if np.any(p <= 0.0):
            raise SignError("all probabilities must be positive")
        if np.any(np.diff(p) > 0.0):
            raise ValueError("probs must be ranked nonincreasing")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probs sum to {p.sum():.15f}, expected 1")
        if not 0 <= self.n_heavy <= p.size:
            raise ValueError("n_heavy out of range")
        object.__setattr__(self, "probs", p)
        # interior boundaries only: the sum may fall short of 1 by 1e-12,
        # and a draw above it must still land on the last index
        object.__setattr__(self, "_bounds", np.cumsum(p)[:-1])

    @property
    def n(self) -> int:
        return int(self.probs.size)

    @property
    def sigma(self) -> float:
        return float(np.sqrt((self.probs ** 2).sum()))

    @property
    def tail_probs(self) -> np.ndarray:
        """Probabilities with the heavy entries zeroed."""
        out = self.probs.copy()
        out[: self.n_heavy] = 0.0
        return out

    def draw(self, rng: RngState, size=None):
        """Sample vertex indices from the vector."""
        u = rng.gen.random(size)
        return np.searchsorted(self._bounds, u, side="right")


def uniform_pseq(n: int) -> PSeq:
    return PSeq(np.full(n, 1.0 / n), n_heavy=0)


def approximating_pseq(theta: Theta, n: int) -> PSeq:
    """Ranked vector with n small entries converging to the given parameters.

    Heavy entries are z*theta_i/s and the n light ones 1/s, with
    z = sqrt(n)/theta0 and s = n + z*sum(theta_i).  Requires n large enough
    that the heavy entries stay above the light ones.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta.theta0 <= 0.0:
        raise ValueError("theta0 must be positive")
    z = np.sqrt(n) / theta.theta0
    s = n + z * theta.atom_sum
    heavy = np.array([z * a / s for a in theta.atoms])
    if heavy.size and heavy[-1] < 1.0 / s:
        raise ValueError("n too small: heavy entries would fall below 1/s")
    probs = np.concatenate([heavy, np.full(n, 1.0 / s)])
    return PSeq(probs, n_heavy=theta.length)


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RootedTree:
    """Rooted tree on [n] with the construction's visit bookkeeping.

    parent[root] = -1; `order` is the visit order (breadth: position order,
    depth: examination order); `positions` and `pos_order` are those of
    the Relocation read, so the root comes first in position order.
    Both readings give each vertex a run of the position order as its
    children: children(v) = pos_order[kid_start[v]:kid_end[v]], in circle
    order.  `e_times` are the per-vertex examination end times (depth only);
    `visit_cum` is the cumulative weight in visit order, from 0.
    """

    n: int
    root: int
    parent: np.ndarray
    order: np.ndarray
    positions: np.ndarray
    visit_cum: np.ndarray
    kind: str
    pos_order: np.ndarray
    kid_start: np.ndarray
    kid_end: np.ndarray
    e_times: np.ndarray | None = None
    _heights: np.ndarray | None = None

    def children(self, v: int) -> np.ndarray:
        return self.pos_order[self.kid_start[v]:self.kid_end[v]]

    @property
    def heights(self) -> np.ndarray:
        if self._heights is None:
            self._heights = _path_sum(self.parent, self.root,
                                      np.ones(self.n, dtype=np.int64))
        return self._heights

    def validate(self) -> None:
        """Single-root and visit-order checks: the order is a permutation of
        [n] and every non-root vertex comes after its parent, so the root
        comes first and every parent chain reaches it."""
        parent, order = self.parent, self.order
        if int((parent < 0).sum()) != 1 or parent[self.root] != -1:
            raise ValueError("tree must have exactly one root")
        rank = np.full(self.n, self.n)
        rank[order] = np.arange(order.size)
        nonroot = parent >= 0
        if (order.size != self.n or (rank[order] != np.arange(self.n)).any()
                or (rank[parent[nonroot]] >= rank[nonroot]).any()):
            raise ValueError("visit order inconsistent with parent array")


@dataclass(frozen=True, eq=False)
class Relocation:
    """One realisation of the particles, relocated to start at the
    minimizing particle: the excursion and both tree readings read it.

    `root` is the minimizer, `positions` the relocated positions (the
    root's is 0) and `pos_order` their sort order, so the root comes first;
    `xs_sorted` and `w_sorted` are the positions and weights in that order.
    It holds no walk values.
    """

    root: int
    positions: np.ndarray
    pos_order: np.ndarray
    xs_sorted: np.ndarray
    w_sorted: np.ndarray

    @property
    def n(self) -> int:
        return int(self.positions.size)


def _relocated_rows(p: PSeq, x: np.ndarray):
    """Each row of x relocated at its minimizing particle, and the outcome
    of each check per row; `relocate` is the one-row case.

    Returns positions, pos_order, xs_sorted and w_sorted as in `Relocation`,
    one row per row of x, then the rows to redraw and those with a tie, a
    repeated position and a collision after relocation.  `sample_positions`
    redraws a zero, a repeat, or a collision without a tie; a tie on any
    other row raises.
    """
    m, n = x.shape
    row = np.arange(m)
    flat = n * row[:, None]  # where each row starts in x.ravel()
    order = np.argsort(x, axis=1)
    x_sorted = x.take(order + flat)
    repeat = (x_sorted[:, 1:] == x_sorted[:, :-1]).any(axis=1)
    w = p.probs[order]
    pre_min = np.zeros((m, n))  # left limits at each particle
    np.cumsum(w[:, :-1], axis=1, out=pre_min[:, 1:])
    pre_min -= x_sorted
    k = np.argmin(pre_min, axis=1)
    lowest = pre_min[row, k]
    pre_min[row, k] = np.inf
    tie = pre_min[row, np.argmin(pre_min, axis=1)] - lowest <= TIE_TOL
    v1 = order[row, k]
    base = x[row, v1][:, None]
    # 1.0 added where negative, the same bits as np.mod(x - base, 1.0) for
    # x in (0, 1); adding 0.0 elsewhere keeps every bit, as no -0.0 arises
    positions = x - base
    positions += positions < 0.0
    positions[row, v1] = 0.0
    # Relocation is a rotation of the circle, so rotating the sort at the
    # minimizer, by slicing one row and by one gather for many, gives the
    # positions and weights in position order, each position with the
    # operations above.  They stay sorted up to ties: the subtraction and the
    # wrap-around add round monotonically, and a wrapped value is at least
    # 1 - base, which no unwrapped value exceeds.
    if m == 1:
        k = k[0]
        turned = (np.concatenate([a[:, k:], a[:, :k]], axis=1) for a in (order, x_sorted, w))
    else:
        turn = (np.arange(n) + k[:, None]) % n + flat
        turned = (a.take(turn) for a in (order, x_sorted, w))
    pos_order, xs_sorted, w_sorted = turned
    xs_sorted -= base
    xs_sorted += xs_sorted < 0.0
    collide = (xs_sorted[:, 1:] == xs_sorted[:, :-1]).any(axis=1)
    redraw = ~(x_sorted[:, 0] > 0.0) | repeat | (collide & ~tie)
    return positions, pos_order, xs_sorted, w_sorted, redraw, tie, repeat, collide


def relocate(p: PSeq, x) -> Relocation:
    """Relocation of the positions x at the minimizing particle, the one-row
    case of `_relocated_rows`.  The walk attains its infimum as a left limit
    at a unique particle: a repeated position raises DuplicatePositionError,
    then a tie within 1e-12 TieError, then positions that coincide after
    relocation DuplicatePositionError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != p.n:
        raise ValueError("positions must match the probability vector length")
    positions, pos_order, xs_sorted, w_sorted, _, tie, repeat, collide = (
        a[0] for a in _relocated_rows(p, x[None]))
    if repeat:
        raise DuplicatePositionError("particle positions must be distinct")
    if tie:
        raise TieError("two left limits tie for the minimum")
    if collide:
        raise DuplicatePositionError("positions collide after relocation")
    return Relocation(int(pos_order[0]), positions, pos_order, xs_sorted, w_sorted)


def sample_positions(p: PSeq, rng: RngState) -> Relocation:
    """Relocation of p.n uniform positions in (0, 1); a draw with a zero
    or with coinciding positions, before or after relocation, is redrawn."""
    for _ in range(100):
        x = rng.gen.random(p.n)
        if x.min() > 0.0:
            try:
                return relocate(p, x)
            except DuplicatePositionError:
                pass
    raise DuplicatePositionError("could not sample distinct positions")


def particle_excursion(rel: Relocation) -> CadlagPath:
    """Excursion read of the walk, relocated at the minimizing particle.

    The path is nonnegative, jumps by p_i at each relocated position (the
    minimizer's jump sits at time 0), and ends at exactly 0.
    """
    ps = rel.w_sorted
    inner_left = np.concatenate([[0.0], np.cumsum(ps)[:-1]]) - rel.xs_sorted
    inner_right = inner_left + ps
    t = np.concatenate([rel.xs_sorted, [1.0]])
    left = np.concatenate([inner_left, [0.0]])
    right = np.concatenate([inner_right, [0.0]])
    return CadlagPath(t, left, right)


def ptree_probability(parent, p: PSeq) -> float:
    """prod_v p_v^(children count of v) for the parent array of a rooted
    tree on [n]."""
    parent = np.asarray(parent)
    counts = np.bincount(parent[parent >= 0], minlength=p.n)
    return float(np.prod(p.probs ** counts))


def enumerate_parent_arrays(n: int):
    """All rooted trees on [n] as parent tuples (root marked -1)."""
    from itertools import product

    for root in range(n):
        others = [v for v in range(n) if v != root]
        for assign in product(range(n), repeat=n - 1):
            parent = [-1] * n
            for v, q in zip(others, assign):
                parent[v] = q
            ok = True
            for v in others:
                seen = {v}
                w = v
                while parent[w] != -1:
                    w = parent[w]
                    if w in seen:
                        ok = False
                        break
                    seen.add(w)
                if not ok:
                    break
            if ok:
                yield tuple(parent)


def _claim_ends(w_visit: np.ndarray) -> np.ndarray:
    """Claim ends: the cumulative weights in visit order, along the last
    axis, with the last set to 1."""
    ends = np.cumsum(w_visit, axis=-1)
    ends[..., -1] = 1.0
    return ends


def _claim_tree(rel: Relocation, kind: str) -> RootedTree:
    """Tree in which the i-th visited vertex claims, as its children, the
    particles not yet claimed whose relocated positions are at most the
    cumulative weight of the first i + 1 visited vertices.

    Both readings claim the next run of the position order, so one
    searchsorted over the sorted positions gives every vertex's child
    bounds and the parent array; they differ only in the visit order.
    """
    n = rel.n
    pos_order, xs_sorted, w_sorted = rel.pos_order, rel.xs_sorted, rel.w_sorted
    if kind == "breadth":
        order, w_visit = pos_order, w_sorted
    else:
        ranks = _examination_ranks(xs_sorted, w_sorted)
        order, w_visit = pos_order[ranks], w_sorted[ranks]
    # Only the depth pass can stop short; in the breadth reading every
    # particle falls in an earlier interval because the walk, relocated at
    # its minimum, stays above 0 until time 1.
    if order.size != n:
        raise DegenerateError("claim intervals missed a particle")
    # cumsum adds in visit order, exactly as the depth pass moved the cursor.
    ends = _claim_ends(w_visit)
    # Visited vertex i claims ranks starts[i] up to, not including, claimed[i].
    claimed = np.searchsorted(xs_sorted, ends, side="right")
    starts = np.concatenate([[1], claimed[:-1]])
    parent = np.full(n, -1, dtype=np.int64)
    parent[pos_order[1:]] = np.repeat(order, claimed - starts)
    kid_start = np.empty(n, dtype=np.int64)
    kid_end = np.empty(n, dtype=np.int64)
    kid_start[order] = starts
    kid_end[order] = claimed
    e_times = None
    if kind == "depth":
        ends = np.minimum(ends, 1.0)
        e_times = np.empty(n)
        e_times[order] = ends
    return RootedTree(n=n, root=rel.root, parent=parent, order=order,
                      positions=rel.positions, visit_cum=np.concatenate([[0.0], ends]),
                      kind=kind, pos_order=pos_order, kid_start=kid_start,
                      kid_end=kid_end, e_times=e_times)


def breadth_tree(rel: Relocation) -> RootedTree:
    """Tree read in position order: particle j's children are the particles
    whose relocated positions fall in its cumulative-weight interval, the
    next run of the position order, as in the depth reading."""
    return _claim_tree(rel, "breadth")


def breadth_chains(rel: Relocation, vertices) -> list[list[int]]:
    """Root-first ancestor chains of `vertices` in `breadth_tree(rel)`,
    read without building the tree.

    The breadth reading visits in position order, so the parent of
    position rank r >= 1 is the first rank whose claim end reaches
    xs_sorted[r]: each step of a chain is one binary search.  A chain that
    has not reached the root after n steps, which only a rounding error
    within TIE_TOL of a tie could cause, raises DegenerateError.
    """
    ends = _claim_ends(rel.w_sorted)
    xs_sorted = rel.xs_sorted
    chains = []
    for rank in np.searchsorted(xs_sorted, rel.positions[vertices]).tolist():
        ranks = [rank]
        for _ in range(rel.n):
            if not rank:
                break
            rank = int(ends.searchsorted(xs_sorted[rank], side="left"))
            ranks.append(rank)
        else:
            raise DegenerateError("an ancestor chain does not reach the root")
        chains.append(rel.pos_order[ranks[::-1]].tolist())
    return chains


def _examination_ranks(xs_sorted: np.ndarray, w_sorted: np.ndarray) -> np.ndarray:
    """Position ranks in depth-first examination order, from the sorted
    relocated positions and their weights; rank 0 is the root.

    Stops early, returning fewer than n ranks, when the examination
    intervals miss a particle.  Every particle is claimed before it is
    examined, so the last vertex examined claims nothing and the cursor
    needs no clamp to 1 here.

    The cursor only moves right, so each step scans forward from the first
    unclaimed rank j to the first position past the cursor; an inf sentinel
    ends the scan at n.  Most steps claim zero, one or two particles, so
    the scan is the binary search's result in fewer operations.
    """
    xl = xs_sorted.tolist()
    xl.append(float("inf"))
    wl = w_sorted.tolist()
    ranks = []
    stack = []  # (next rank, end) runs of claimed, unexamined children
    a, j, cursor = 0, 1, 0.0
    while True:
        ranks.append(a)
        cursor += wl[a]
        k = j
        while xl[k] <= cursor:
            k += 1
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


def depth_tree(rel: Relocation) -> RootedTree:
    """Tree read in examination order: each examined vertex's interval of
    length p_v recruits its children; examination proceeds to the first
    unexamined child, backtracking when none remain.

    Reads only the relocation's weights and positions, never the walk, so
    the identities checked against the walk are two-sided.  The examination
    cursor only moves right, so the children of each examined vertex are
    the next run of particles in position order: after the sort, one
    forward pass over the positions gives the examination order, and the
    tree follows as for the breadth reading.
    """
    return _claim_tree(rel, "depth")


# ---------------------------------------------------------------------------
# Many small trees at once
# ---------------------------------------------------------------------------

def _examination_rank_rows(xs_sorted: np.ndarray, w_sorted: np.ndarray):
    """`_examination_ranks` of each row in n vectorised steps.

    Each step examines, among the claimed and unexamined ranks, the lowest
    rank in the run of the largest such rank, a run being the ranks one
    step claimed: the single pass's stack holds exactly these runs, the
    latest on top.  Returns the (m, n) ranks and a per-row flag for the
    rows whose intervals missed a particle, which have no rank to examine
    at some step before the n-th.  It stays beside the single scan because
    each wins on its own inputs (2-vCPU x86-64, numpy 2.4, minimum of 9):
    on 5000 rows at n = 3 and 4 the steps take 1.6 and 2.4 ms against 7.8
    and 8.9 ms by the scan per row; on one row at n = 10^4, 507 ms
    against 2.1 ms.
    """
    m, n = xs_sorted.shape
    rows = np.arange(m)
    rank = np.arange(n)
    ranks = np.zeros((m, n), dtype=np.int64)
    examined = np.zeros((m, n), dtype=bool)
    run = np.full((m, n), -1)  # the step that claimed each rank
    claimed = np.ones(m, dtype=np.int64)  # ranks below it are claimed
    cursor = np.zeros(m)
    stopped = np.zeros(m, dtype=bool)
    a = np.zeros(m, dtype=np.int64)
    for step in range(n):
        if step:
            open_ = (rank < claimed[:, None]) & ~examined
            stopped |= ~open_.any(axis=1)
            top = n - 1 - np.argmax(open_[:, ::-1], axis=1)
            a = np.argmax(open_ & (run == run[rows, top][:, None]), axis=1)
        ranks[:, step] = a
        examined[rows, a] = True
        cursor += w_sorted[rows, a]
        k = np.maximum(claimed, (xs_sorted <= cursor[:, None]).sum(axis=1))
        run[(rank >= claimed[:, None]) & (rank < k[:, None])] = step
        claimed = k
    return ranks, stopped


def _parent_rows(p: PSeq, kind: str, samples: int, rng: RngState) -> np.ndarray:
    """(samples, n) parent arrays of `samples` successive
    `breadth_tree` or `depth_tree` (by `kind`) of `sample_positions(p, rng)`,
    bit for bit, leaving rng where those calls would.

    The rows still needed are drawn as one matrix: `gen.random((m, n))`
    gives the bits of m successive `gen.random(n)` calls, so a redrawn row
    is skipped and its redraw is the next row.  Rows are judged in order
    with the single path's outcomes: a tie raises TieError, a depth row
    whose intervals miss a particle DegenerateError, and 100 consecutive
    redrawn rows DuplicatePositionError.  The claims compare each row's
    sorted positions with all of its cumulative ends at once, so the cost
    grows as n^2 per row: this serves the small trees of the law check.
    On 5000 rows at n = 4 the broadcast claims take 0.49 ms against 8.2 ms
    by `_claim_tree`'s searchsorted per row (2-vCPU x86-64, numpy 2.4).
    """
    n = p.n
    out = [np.empty((0, n), dtype=np.int64)]
    redraws = 0  # consecutive redrawn rows, carried across matrices
    need = samples
    while need:
        _, pos_order, xs_sorted, w_sorted, redraw, tie, _, _ = _relocated_rows(
            p, rng.gen.random((need, n)))
        if kind == "breadth":
            visit = np.broadcast_to(np.arange(n), (need, n))
            stopped = np.zeros(need, dtype=bool)
        else:
            visit, stopped = _examination_rank_rows(xs_sorted, w_sorted)
        last = -1
        for i in np.flatnonzero(redraw | tie | stopped).tolist():
            if not redraw[i]:
                if tie[i]:
                    raise TieError("two left limits tie for the minimum")
                raise DegenerateError("claim intervals missed a particle")
            redraws = redraws + 1 if i == last + 1 else 1
            last = i
            if redraws == 100:
                raise DuplicatePositionError("could not sample distinct positions")
        if last != need - 1:
            redraws = 0
        keep = ~redraw
        pos_order, xs_sorted, visit = pos_order[keep], xs_sorted[keep], visit[keep]
        # cumsum adds along each row, left to right, as the single path's does
        ends = _claim_ends(np.take_along_axis(w_sorted[keep], visit, axis=1))
        # rank r >= 1 is claimed by the first visit whose end reaches it
        claimer = (ends[:, None, :] < xs_sorted[:, 1:, None]).sum(axis=2)
        order = np.take_along_axis(pos_order, visit, axis=1)
        parent = np.full(pos_order.shape, -1, dtype=np.int64)
        np.put_along_axis(parent, pos_order[:, 1:], np.take_along_axis(order, claimer, axis=1),
                          axis=1)
        out.append(parent)
        need -= parent.shape[0]
    return np.concatenate(out)


def _drawn_height_rows(p: PSeq, x: np.ndarray, u: np.ndarray):
    """Per row i, the height in `breadth_tree` of the relocation of x[i] of
    the vertex that `p.draw` picks with the uniform u[i], as in
    `breadth_chains`; all rows walk their chains at once.

    Returns (heights, flagged): `flagged` marks the rows on which the single
    path redraws or raises (`_relocated_rows`' redraw and tie), whose height
    is left at 0.  A row's parent rank is the count of its claim ends below
    the position, `breadth_chains`' binary search read as a count.  On 512
    rows at n = 50 the walk takes 0.85 ms against 6.6 ms by `breadth_chains`
    per row; at n = 10^5 two chains by binary search take 0.65 ms against
    20 ms by the count (2-vCPU x86-64, numpy 2.4, minimum of 9).
    """
    _, pos_order, xs_sorted, w_sorted, redraw, tie, _, _ = _relocated_rows(p, x)
    flagged = redraw | tie
    ends = _claim_ends(w_sorted)
    drawn = np.searchsorted(p._bounds, u, side="right")
    rank = np.argmax(pos_order == drawn[:, None], axis=1)
    rank[flagged] = 0
    heights = np.zeros(x.shape[0], dtype=np.int64)
    for _ in range(p.n):
        live = np.flatnonzero(rank)
        if not live.size:
            return heights, flagged
        heights[live] += 1
        rank[live] = (ends[live] < xs_sorted[live, rank[live], None]).sum(axis=1)
    raise DegenerateError("an ancestor chain does not reach the root")


# ---------------------------------------------------------------------------
# Exact identities between tree and walk
# ---------------------------------------------------------------------------

def _require(tree: RootedTree, kind: str) -> None:
    if tree.kind != kind:
        raise ValueError(f"operation requires a {kind}-order tree")


def _path_sum(parent: np.ndarray, root: int, weight: np.ndarray) -> np.ndarray:
    """Per vertex v, the sum of `weight` over the path from the root's child
    to v (0 at the root), in weight's dtype, by pointer doubling: d[v] sums
    the weights from v up to, not including, anc[v], and each round adds
    d[anc] to d and replaces anc by anc[anc], until every anc is the root.
    Integer sums are exact whatever the order of addition; float sums may
    differ from a root-down accumulation in the last bits."""
    d = weight.copy()
    d[root] = 0
    anc = parent.copy()
    anc[root] = root
    while True:
        d += d[anc]
        nxt = anc[anc]
        if (nxt == anc).all():
            return d
        anc = nxt


def _pending_mass(tree: RootedTree, w: np.ndarray) -> np.ndarray:
    """Per vertex v, the weight w of v's children plus that of the later
    siblings of v and of each of its non-root ancestors."""
    pos_order = tree.pos_order
    c = np.concatenate([[0.0], np.cumsum(w[pos_order])])
    own = c[tree.kid_end] - c[tree.kid_start]
    after = np.zeros(tree.n)
    nonroot = pos_order[1:]
    after[nonroot] = c[tree.kid_end[tree.parent[nonroot]]] - c[2:]
    return _path_sum(tree.parent, tree.root, after) + own


def pending_mass_error(tree: RootedTree, exc: CadlagPath, p: PSeq) -> float:
    """Max |exc(e(v)) - pending mass at v| over all vertices.

    The pending set of v holds the later children of v's ancestors plus all
    children of v; it is computed from the tree alone, so this is a genuine
    two-sided check of the examination-time identity.
    """
    _require(tree, "depth")
    pending = _pending_mass(tree, p.probs)
    vals = exc.value(tree.e_times)
    return float(np.abs(vals - pending).max())


def claim_margin(tree: RootedTree) -> float:
    """Max of position minus interval start over non-root visit ranks.

    A negative margin certifies the ordering property: every particle is
    seen strictly before its own examination interval opens.
    """
    pos = tree.positions[tree.order[1:]]
    starts = tree.visit_cum[1:-1]
    return float((pos - starts).max()) if pos.size else float("-inf")


def generation_error(tree: RootedTree, exc: CadlagPath, p: PSeq) -> float:
    """Max deviation of the generation identity: at the cumulative visit
    time of generations 0..h-1 the walk equals generation h's weight, and
    that time equals the weight of generations 0..h-1, for heights
    1..max+1."""
    _require(tree, "breadth")
    ht = tree.heights
    max_h = int(ht.max())
    masses = np.bincount(ht, weights=p.probs, minlength=max_h + 2)
    ends = np.cumsum(np.bincount(ht, minlength=max_h + 2))[: max_h + 1]
    u = tree.visit_cum[ends]
    vals = exc.value(u)
    return max(float(np.abs(u - np.cumsum(masses[: max_h + 1])).max()),
               float(np.abs(vals - masses[1:]).max()))


def width_error(tree: RootedTree, exc: CadlagPath, p: PSeq) -> float:
    """Max deviation of the width identity: at the start of each height
    band the walk equals the band's weight (width_profile)."""
    _require(tree, "breadth")
    width, cumulative = width_profile(tree, p)
    return float(np.abs(exc.value(cumulative) - width).max())


def exploration_height(tree: RootedTree) -> CadlagPath:
    """Step path whose value on the i-th examination interval is the height
    of the i-th examined vertex; heights at examination end times are the
    stored left limits."""
    _require(tree, "depth")
    t = tree.visit_cum.copy()
    t[-1] = 1.0
    ht = tree.heights[tree.order].astype(float)
    left = np.concatenate([[ht[0]], ht])
    right = np.concatenate([ht, [ht[-1]]])
    return CadlagPath(t, left, right)


def corrected_excursion(tree: RootedTree, exc: CadlagPath, p: PSeq) -> CadlagPath:
    """Excursion minus the ramp processes of the heavy vertices' children.

    Each child v of a heavy vertex contributes p_v from the heavy parent's
    jump time until its own examination interval, through which it ramps
    back to zero.  With no heavy vertices this is the excursion itself.
    The summed ramp is +0.0 before its first event, so it is subtracted
    only from there on.
    """
    _require(tree, "depth")
    probs = p.probs
    heavy = [i for i in range(p.n_heavy) if tree.kid_end[i] > tree.kid_start[i]]
    if not heavy:
        return exc
    kids = [tree.children(i) for i in heavy]
    kid_all = np.concatenate(kids)
    e = tree.e_times[kid_all]
    # events: each heavy parent's jump, then per child a slope of -1 from
    # the start of its examination interval and its restore at the end
    ev_t = np.concatenate([tree.positions[heavy],
                           np.column_stack([e - probs[kid_all], e]).ravel()])
    ev_jump = np.concatenate([[probs[k].sum() for k in kids], np.zeros(2 * kid_all.size)])
    ev_slope = np.concatenate([np.zeros(len(heavy)), np.tile([-1.0, 1.0], kid_all.size)])
    keep = np.flatnonzero(ev_t < 1.0)  # a slope restore at the domain end has no effect
    order = keep[np.argsort(ev_t[keep], kind="stable")]
    ev_t, ev_jump, ev_slope = ev_t[order], ev_jump[order], ev_slope[order]
    # ev_t is sorted: each distinct time starts where it differs from the last
    start = np.flatnonzero(np.concatenate([[True], ev_t[1:] != ev_t[:-1]]))
    t_u = ev_t[start]
    # pad with 0 and 1; a heavy root's jump already sits at 0
    cut = int(t_u[0] == 0.0)
    times = np.concatenate([[0.0], t_u, [1.0]])[cut:]
    jumps = np.concatenate([[0.0], np.add.reduceat(ev_jump, start), [0.0]])[cut:]
    slope_steps = np.concatenate([[0.0], np.add.reduceat(ev_slope, start), [0.0]])[cut:]
    # the ramp alternates a jump at each time with a slope over the next
    # cell; cumsum adds the steps in that order
    steps = np.empty(2 * times.size - 1)
    steps[0::2] = jumps
    steps[1::2] = np.cumsum(slope_steps)[:-1] * np.diff(times)
    acc = np.cumsum(steps)
    ramp = CadlagPath(times, np.concatenate([[0.0], acc[1::2]]), acc[0::2])
    return subtract_on_windows(exc, [ramp], [(float(t_u[0]), 1.0)])


def corrected_pending_error(tree: RootedTree, exc: CadlagPath, p: PSeq) -> float:
    """Two-route check of the corrected excursion at examination end times.

    The tree-side expression is the pending mass under weights that are 0
    at every child of a heavy vertex, less, at each heavy vertex, its
    children's mass: the ramp of a pending heavy vertex has not started
    delivering, so its children's mass is removed while its own weight
    still counts, unless it is itself a heavy vertex's child, whose ramp
    carries it.  Every other vertex keeps p_v.
    """
    _require(tree, "depth")
    probs = p.probs
    w = probs.copy()
    kid_mass = np.zeros(p.n_heavy)
    for i in range(p.n_heavy):
        kids = tree.children(i)
        w[kids] = 0.0
        kid_mass[i] = probs[kids].sum()
    w[: p.n_heavy] -= kid_mass
    rhs = _pending_mass(tree, w)
    g = corrected_excursion(tree, exc, p)
    lhs = g.value(tree.e_times)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# Width profile
# ---------------------------------------------------------------------------

def width_profile(tree: RootedTree, p: PSeq) -> tuple[np.ndarray, np.ndarray]:
    """Per-generation weight and its cumulative version, one entry per
    height band [g*sigma, (g+1)*sigma): band g holds generation g's weight
    and the weight of generations 0..g-1.  A final band of weight 0 and
    cumulative weight 1 closes both."""
    ht = tree.heights
    probs = p.probs
    max_h = int(ht.max())
    masses = np.bincount(ht, weights=probs, minlength=max_h + 2)  # final band 0
    cum_before = np.concatenate([[0.0], np.cumsum(masses)[:-1]])
    cum_before[max_h + 1] = 1.0
    return masses, cum_before


def width_at_quantile(width: np.ndarray, cumulative: np.ndarray, u: float) -> float:
    """Width at the first band where the cumulative profile reaches u."""
    g = int(np.searchsorted(cumulative, u, side="left"))
    g = min(g, width.size - 1)
    return float(width[g])


# ---------------------------------------------------------------------------
# Repeat times and the coupling gap
# ---------------------------------------------------------------------------

def repeat_time_sample(p: PSeq, rng: RngState, count: int) -> np.ndarray:
    """First-repeat indices of `count` successive runs of draws from p, each
    drawing until a vertex repeats.

    The draws come in blocks that never reach past the last run's repeat
    (an unfinished run needs at least one more draw, a new one two), so
    the indices and the final state of rng are those of drawing one
    vertex at a time.
    """
    out = []
    seen = set()
    t = 0
    while len(out) < count:
        for xi in p.draw(rng, 2 * (count - len(out)) - (t > 0)).tolist():
            t += 1
            if xi in seen:
                out.append(t)
                seen.clear()
                t = 0
            else:
                seen.add(xi)
    return np.array(out, dtype=np.int64)


def exploration_gap(p: PSeq, rng: RngState) -> float:
    """Uniform gap between the scaled exploration height and the scaled
    corrected excursion on one realization.

    Single-vertex inputs return 0 by convention.
    """
    if p.n == 1:
        return 0.0
    rel = sample_positions(p, rng)
    exc = particle_excursion(rel)
    tree = depth_tree(rel)
    g = corrected_excursion(tree, exc, p)
    h = exploration_height(tree)
    sigma = p.sigma
    theta0_sq = float((p.tail_probs ** 2).sum()) / sigma ** 2
    return sup_distance(h.scale_values(0.5 * theta0_sq * sigma),
                        g.scale_values(1.0 / sigma))

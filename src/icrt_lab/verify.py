"""Verification suites: exact identities, law checks, and limit diagnostics.

Each suite returns (reports, passed) from one replicate helper,
`_run_checks`.  Every stream is named off `RngState(seed)` by (attempt,
suite/side, replicate, rejection), so the samples of a comparison never
share one.  A failing statistical check is re-run once on attempt 1 at the
same seed (a multiple-testing guard); both outcomes are logged and the
retry decides.  Exact checks are not retried.
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np

from .errors import DegenerateError, DuplicateSampleError, TieError
from .icrt import line_breaking_tree, sample_function_tree, spanning_subtree
from .paths import sample_brownian_bridge, sup_distance, validate_theta
from .ptree import (
    PSeq,
    _drawn_height_rows,
    _parent_rows,
    approximating_pseq,
    breadth_chains,
    breadth_tree,
    claim_margin,
    corrected_pending_error,
    depth_tree,
    enumerate_parent_arrays,
    exploration_gap,
    generation_error,
    particle_excursion,
    pending_mass_error,
    ptree_probability,
    repeat_time_sample,
    sample_positions,
    uniform_pseq,
    width_at_quantile,
    width_error,
    width_profile,
)
from .reflect import (
    infimum_range_measure,
    reflected_excursion,
    sample_excursion,
    sample_reflected,
    truncated_coupling,
)
from .rng import RngState
from .stats import (
    MONITORING_BETA,
    TestReport,
    chi_square_gof,
    excursion_time_change,
    ks_two_sample,
    time_in_band,
)

# Demo parameter sequence used across the suites (three-decimal inputs).
REFERENCE_THETA = validate_theta(0.862, (0.345, 0.302, 0.216))
BROWNIAN_THETA = validate_theta(1.0, ())

IDENTITY_TOL = 1e-9


def _stream(rng: RngState, side: str, k: int = 0, rejection: int = 0) -> RngState:
    """Replicate k of the named side, redrawn `rejection` times, derived
    from the attempt stream `rng`.  The name enters as its CRC-32, which,
    unlike the salted `hash`, is the same in every process."""
    return rng.child(zlib.crc32(side.encode()), k, rejection)


def _run_checks(seed: int, builds, retry: bool = True):
    """Run `builds` at `seed`.

    build(rng) returns the TestReports of one attempt, made from that
    attempt's stream `RngState(seed).child(attempt)`.  With `retry`, a
    failing report i is followed by report i of attempt 1, which carries
    `retried` and the first p-value, and decides.  Attempt 1 is built at
    most once per build.
    """
    root = RngState(seed)
    reports = []
    all_ok = True
    for build in builds:
        attempts = (build(root.child(attempt)) for attempt in (0, 1))
        retried = None
        for i, rep in enumerate(next(attempts)):
            rep.seed = seed
            reports.append(rep)
            if retry and not rep.passed:
                retried = retried or next(attempts)
                first_p, rep = rep.p_value, retried[i]
                rep.seed = seed
                rep.extra.update({"retried": True, "first_p": first_p})
                reports.append(rep)
            all_ok &= rep.passed
    return reports, all_ok


def _amax(values) -> float:
    return float(np.max(values)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# 1. exact identity suite
# ---------------------------------------------------------------------------

def suite_identities(n: int = 1000, reps: int = 100, seed: int = 0):
    """Structural identities on random realizations, uniform and
    heavy-atom probability vectors alternating."""
    p_uniform = uniform_pseq(n)
    p_heavy = approximating_pseq(REFERENCE_THETA, n)
    names = ("pending", "generation", "width", "claim", "corrected")

    def build(rng):
        errs = {name: [] for name in names}
        for r in range(reps):
            p = p_uniform if r % 2 == 0 else p_heavy
            rel = sample_positions(p, _stream(rng, "identities", r))
            exc = particle_excursion(rel)
            bt = breadth_tree(rel)
            bt.validate()
            errs["generation"].append(generation_error(bt, exc, p))
            errs["width"].append(width_error(bt, exc, p))
            errs["claim"].append(max(claim_margin(bt), 0.0))
            dt = depth_tree(rel)
            dt.validate()
            errs["pending"].append(pending_mass_error(dt, exc, p))
            errs["claim"].append(max(claim_margin(dt), 0.0))
            errs["corrected"].append(corrected_pending_error(dt, exc, p))
        reports = []
        for name in names:
            worst = _amax(errs[name])
            ok = worst <= IDENTITY_TOL
            reports.append(TestReport(
                suite=f"identities/{name}", statistic=worst, p_value=1.0 if ok else 0.0,
                passed=ok, n_samples=len(errs[name]),
                extra={"tol": IDENTITY_TOL, "n": n}))
        return reports

    return _run_checks(seed, [build], retry=False)


# ---------------------------------------------------------------------------
# 2. law of the constructions
# ---------------------------------------------------------------------------

def _tree_law_reports(p: PSeq, kind: str, samples: int, rng: RngState) -> list[TestReport]:
    """Chi-square of one reading's tree counts against the enumerated
    probabilities.  A parent array read as base-(n+1) digits codes its
    tree, so one table, as large as the enumeration, maps each sampled
    row to its enumerated tree."""
    suite = f"tree-law/{kind}-n{p.n}"
    trees = np.array(list(enumerate_parent_arrays(p.n)))
    probs = np.array([ptree_probability(t, p) for t in trees])
    digits = (p.n + 1) ** np.arange(p.n)
    cell_of = np.full((p.n + 1) ** p.n, -1)
    cell_of[(trees + 1) @ digits] = np.arange(len(trees))
    cell = cell_of[(_parent_rows(p, kind, samples, _stream(rng, suite)) + 1) @ digits]
    if (cell < 0).any():
        raise ValueError("a sampled parent array matches no enumerated tree")
    counts = np.bincount(cell, minlength=len(trees)).astype(float)
    return [chi_square_gof(counts, probs, suite=suite)]


def suite_tree_law(samples: int = 100_000, seed: int = 0):
    """Chi-square of both constructions against enumerated probabilities."""
    p3, p4 = uniform_pseq(3), PSeq(np.array([0.4, 0.3, 0.2, 0.1]))
    return _run_checks(seed, [partial(_tree_law_reports, p, kind, samples)
                              for p in (p3, p4) for kind in ("breadth", "depth")])


# ---------------------------------------------------------------------------
# 3. reduced-tree law: function sampling vs line breaking
# ---------------------------------------------------------------------------

def _summary(et) -> tuple[float, float]:
    """(total length, leaf-1 depth) of a reduced tree."""
    return et.total_length(), et.leaf_depths()[0]


def _reduced_law_reports(a: np.ndarray, b: np.ndarray, leaves: int,
                         prefix: str) -> list[TestReport]:
    """KS tests of two samples of `leaves`-leaf reduced-tree summaries
    (rows of `_summary`), one per column, named `prefix`-column.  A
    one-leaf tree is one edge: its leaf depth is its total length, so only
    the total length is compared."""
    columns = ["total-length"] if leaves == 1 else ["total-length", "leaf-depth"]
    return [ks_two_sample(a[:, col], b[:, col], suite=f"{prefix}-{stat}")
            for col, stat in enumerate(columns)]


def _function_tree_summaries(theta, grid: int, replicates: int, leaves_list,
                             rng: RngState, side: str):
    """Per-replicate summaries of function-sampled trees from the scaled
    reflected excursion, for each leaf count.

    Point evaluations carry the grid-minimum continuity correction (the
    relocated origin sits MONITORING_BETA/sqrt(grid) above the true
    infimum); interval infima self-correct, so the shift enters through
    the leaf depths only.
    """
    scale = 2.0 / theta.theta0 ** 2
    shift = scale * MONITORING_BETA / np.sqrt(grid)
    out = {j: np.empty((replicates, 2)) for j in leaves_list}
    for k in range(replicates):
        stream = _stream(rng, side, k)
        path = sample_reflected(theta, grid, stream).scale_values(scale)
        for j in leaves_list:
            u = stream.gen.random(j)
            out[j][k] = _summary(sample_function_tree(path, u, leaf_shift=shift))
    return out


def _line_breaking_summaries(theta, leaves: int, replicates: int, rng: RngState,
                             side: str):
    out = np.empty((replicates, 2))
    for k in range(replicates):
        out[k] = _summary(line_breaking_tree(theta, leaves, _stream(rng, side, k)))
    return out


def suite_theorem1(replicates: int = 10_000, grid: int = 2 ** 14, seed: int = 0,
                   leaves_list=(1, 2, 3)):
    """Reduced trees sampled from the scaled reflected excursion match the
    line-breaking law, for the Brownian and the reference parameters."""
    def theta_reports(name, theta, rng):
        fn = _function_tree_summaries(theta, grid, replicates, leaves_list, rng,
                                      f"theorem1/{name}/function")
        reports = []
        for j in leaves_list:
            lb = _line_breaking_summaries(theta, j, replicates, rng,
                                          f"theorem1/{name}/line-breaking-J{j}")
            reports += _reduced_law_reports(fn[j], lb, j, f"theorem1/{name}-J{j}")
        return reports

    return _run_checks(seed, [partial(theta_reports, name, theta) for name, theta
                              in [("brownian", BROWNIAN_THETA), ("reference", REFERENCE_THETA)]])


# ---------------------------------------------------------------------------
# 4. spanning reduction vs line breaking
# ---------------------------------------------------------------------------

def _spanning_summaries(p: PSeq, leaves: int, replicates: int, rng: RngState):
    sigma = p.sigma
    out = np.empty((replicates, 2))
    rejects = 0
    for k in range(replicates):
        rejection = 0
        while True:
            stream = _stream(rng, "theorem2/spanning", k, rejection)
            try:
                # rel stays bound until the next draw replaces it: freed at
                # once, its arrays would let the allocator release the heap
                # top, and each draw at n = 10^5 would fault about 2100
                # fresh pages in, against about 600
                rel = sample_positions(p, stream)
                et = spanning_subtree(rel, p, leaves, stream)
                break
            except (DuplicateSampleError, DegenerateError, TieError):
                rejects += 1
                rejection += 1
        out[k] = _summary(et.scale_lengths(sigma))
    return out, rejects


# A replicate of the spanning side redraws until its J vertices are
# distinct; below this chance it would redraw a million times or more.
MIN_DISTINCT_CHANCE = 1e-6


def check_spanning_leaves(p: PSeq, leaves: int) -> None:
    """Raise ValueError when `leaves` vertices drawn from p could never,
    or only after a million redraws or more, come up distinct and off the
    root.  J draws are distinct with chance c_J = J! e_J(p), at most the
    uniform vector's prod_{i<J} (1 - i/N), which screens first; c_J is built
    over the prefixes of p, one cumsum per j, as
    c_j(p_1..p_i) = c_j(p_1..p_{i-1}) + j p_i c_{j-1}(p_1..p_{i-1})."""
    if leaves < 1:
        raise ValueError(f"{leaves} leaves: a reduced tree needs at least one")
    if leaves > p.n - 1:
        raise ValueError(f"{leaves} leaves need as many distinct non-root vertices; "
                         f"the vector has {p.n - 1}")
    chance = float(np.prod(1.0 - np.arange(leaves) / p.n))
    if chance >= MIN_DISTINCT_CHANCE and leaves > 1:
        c = np.zeros(p.n)  # c_1 over the prefixes of lengths 0..N-1
        np.cumsum(p.probs[:-1], out=c[1:])
        for j in range(2, leaves):
            np.cumsum(j * p.probs[:-1] * c[:-1], out=c[1:])
        chance = leaves * float(p.probs @ c)
    if chance < MIN_DISTINCT_CHANCE:
        raise ValueError(f"{leaves} draws from {p.n} entries are distinct with chance at "
                         f"most {chance:.2g}, so a replicate would redraw "
                         f"{1.0 / chance:.2g} times or more")


def suite_theorem2(n: int = 100_000, replicates: int = 4000, leaves: int = 2,
                   seed: int = 0, marginal_reps: int = 2000):
    """Scaled spanning reductions of large discrete trees match the
    line-breaking law; the width profile read at a fixed mass quantile
    matches the excursion marginal (trees at n = 10^4, excursions at grid
    2^12)."""
    p = approximating_pseq(REFERENCE_THETA, n)
    check_spanning_leaves(p, leaves)

    def spanning_reports(rng):
        sp, rejects = _spanning_summaries(p, leaves, replicates, rng)
        lb = _line_breaking_summaries(REFERENCE_THETA, leaves, replicates, rng,
                                      "theorem2/line-breaking")
        reports = _reduced_law_reports(sp, lb, leaves, "theorem2/spanning")
        for rep in reports:
            rep.extra["resample_count"] = rejects
        return reports

    def marginal_reports(rng):
        u_star = 0.5
        pm = approximating_pseq(REFERENCE_THETA, 10_000)
        marginal_grid = 2 ** 12
        widths = np.empty(marginal_reps)
        for k in range(marginal_reps):
            stream = _stream(rng, "theorem2/width-marginal/tree", k)
            tr = breadth_tree(sample_positions(pm, stream))
            widths[k] = width_at_quantile(*width_profile(tr, pm), u_star) / pm.sigma
        marginals = np.empty(marginal_reps)
        eps = MONITORING_BETA / np.sqrt(marginal_grid)  # grid-minimum re-base offset
        for k in range(marginal_reps):
            exc = sample_excursion(REFERENCE_THETA, marginal_grid,
                                   _stream(rng, "theorem2/width-marginal/excursion", k))
            marginals[k] = exc.value(u_star) + eps
        return [ks_two_sample(widths, marginals, suite="theorem2/width-marginal")]

    return _run_checks(seed, [spanning_reports, marginal_reports])


# ---------------------------------------------------------------------------
# 5. local-time identity
# ---------------------------------------------------------------------------

# The fixed time-changed point and the occupation band's width.
JEULIN_U = 0.5
JEULIN_BAND = 0.02


def jeulin_check(m: int, n_samples: int, rng: RngState) -> TestReport:
    """Distributional check at a fixed time-changed point of the excursion.

    Side A: half the occupation density of a sampled excursion at level
    u/2, u = JEULIN_U, over a band of width JEULIN_BAND.  Side B: an
    independent excursion evaluated at the inverse reciprocal time change
    of u.  Both populations follow one law; the report carries the
    two-sample comparison.  Both sides use the grid-minimum continuity
    correction (the relocated origin sits slightly above the true infimum).
    """
    u, band = JEULIN_U, JEULIN_BAND
    eps = MONITORING_BETA / np.sqrt(m)
    level = u / 2.0 - eps
    side_a = np.empty(n_samples)
    side_b = np.empty(n_samples)
    for k in range(n_samples):
        exc = sample_excursion(BROWNIAN_THETA, m, _stream(rng, "jeulin/occupation", k))
        occ = time_in_band(exc, level - band / 2.0, level + band / 2.0) / band
        side_a[k] = 0.5 * occ
        exc2 = sample_excursion(BROWNIAN_THETA, m, _stream(rng, "jeulin/time-change", k))
        side_b[k] = excursion_time_change(exc2, shift=eps).value_at(u)
    rep = ks_two_sample(side_a, side_b, suite="jeulin")
    rep.extra.update({"u": u, "grid": m, "band": band, "shift": eps})
    return rep


def suite_jeulin(grid: int = 2 ** 14, replicates: int = 5000, seed: int = 0):
    """Occupation-density identity at a fixed point plus the independent
    mean cross-check of the total reciprocal integral against twice the
    maximum."""
    if replicates < 2:
        raise ValueError("the height-mean check needs replicates >= 2 for a sample variance")
    eps = MONITORING_BETA / np.sqrt(grid)

    def mean_reports(rng):
        totals = np.empty(replicates)
        maxes = np.empty(replicates)
        for k in range(replicates):
            e1 = sample_excursion(BROWNIAN_THETA, grid,
                                  _stream(rng, "jeulin/height-mean/integral", k))
            totals[k] = excursion_time_change(e1, shift=eps).total
            e2 = sample_excursion(BROWNIAN_THETA, grid,
                                  _stream(rng, "jeulin/height-mean/max", k))
            maxes[k] = 2.0 * (e2.max_value() + eps)
        diff = abs(totals.mean() - maxes.mean())
        se = float(np.sqrt(totals.var(ddof=1) / replicates + maxes.var(ddof=1) / replicates))
        ok = diff <= 3.0 * se
        return [TestReport(suite="jeulin/height-mean", statistic=diff / se if se else 0.0,
                           p_value=1.0 if ok else 0.0, passed=ok, n_samples=replicates,
                           extra={"mean_integral": totals.mean(), "mean_2max": maxes.mean(),
                                  "combined_se": se})]

    return _run_checks(seed, [lambda rng: [jeulin_check(grid, replicates, rng)],
                              mean_reports])


# ---------------------------------------------------------------------------
# 6. exploration-gap trend
# ---------------------------------------------------------------------------

def suite_pkey(ns=(1000, 10_000, 100_000), reps: int = 200, seed: int = 0):
    """Median uniform gap between scaled height and corrected excursion
    decreases strictly along the n ladder."""
    if len(ns) < 2:
        raise ValueError(f"the n ladder needs at least two rungs for a trend, got {len(ns)}")

    def reports(rng):
        medians = []
        for n in ns:
            p = approximating_pseq(REFERENCE_THETA, n)
            gaps = [exploration_gap(p, _stream(rng, f"pkey/n{n}", k)) for k in range(reps)]
            medians.append(float(np.median(gaps)))
        ok = all(medians[i + 1] < medians[i] for i in range(len(medians) - 1))
        return [TestReport(suite="pkey/median-trend",
                           statistic=max(medians[i + 1] / medians[i]
                                         for i in range(len(medians) - 1)),
                           p_value=1.0 if ok else 0.0, passed=ok, n_samples=reps,
                           extra={"ns": list(ns), "medians": medians})]

    return _run_checks(seed, [reports], retry=False)


# ---------------------------------------------------------------------------
# 7. truncation coupling
# ---------------------------------------------------------------------------

def suite_unifconv(reps: int = 100, grid: int = 2 ** 12, seed: int = 0):
    """Per-realization atom-tail bound and monotonicity of the coupled
    truncated reflections."""
    theta = REFERENCE_THETA
    atoms = theta.atoms
    tails = {k: sum(atoms[k:]) for k in range(1, len(atoms) + 1)}

    def reports(rng):
        worst_excess = -np.inf
        mono_fail = 0
        for r in range(reps):
            stream = _stream(rng, "unifconv", r)
            bridge = sample_brownian_bridge(grid, stream)
            us = [float(stream.gen.uniform()) for _ in atoms]
            dists = []
            for keep in range(1, len(atoms) + 1):
                y_trunc, y_full = truncated_coupling(theta, keep, bridge, us)
                d = sup_distance(y_trunc, y_full)
                worst_excess = max(worst_excess, d - tails[keep])
                dists.append(d)
            if any(dists[i + 1] > dists[i] + IDENTITY_TOL for i in range(len(dists) - 1)):
                mono_fail += 1
        ok = worst_excess <= IDENTITY_TOL and mono_fail == 0
        return [TestReport(suite="unifconv/coupling", statistic=float(worst_excess),
                           p_value=1.0 if ok else 0.0, passed=ok, n_samples=reps,
                           extra={"monotonicity_failures": mono_fail, "tol": IDENTITY_TOL})]

    return _run_checks(seed, [reports], retry=False)


# ---------------------------------------------------------------------------
# 8. repeat-time identity
# ---------------------------------------------------------------------------

# Replicates per block of the repeat-time heights: one (block, n) draw
# matrix at a time, so memory does not grow with the replicate count.
HEIGHT_BLOCK = 512


def _drawn_heights(p: PSeq, replicates: int, rng: RngState) -> np.ndarray:
    """Per replicate k, the height of one p-drawn vertex in the breadth
    tree of a realisation, both drawn from the stream "repeat-time/height"
    k: the positions by `sample_positions`, then the vertex by `p.draw`.

    Replicates are drawn HEIGHT_BLOCK rows at a time, each row from its own
    stream, and every row of a block walks its vertex's ancestor chain at
    once (`_drawn_height_rows`).  A row the single path redraws or raises
    on is recomputed by it from a fresh stream of the same name.
    """
    side = "repeat-time/height"
    out = np.empty(replicates, dtype=np.int64)
    for start in range(0, replicates, HEIGHT_BLOCK):
        ks = range(start, min(start + HEIGHT_BLOCK, replicates))
        x = np.empty((len(ks), p.n))
        u = np.empty(len(ks))
        for i, k in enumerate(ks):
            gen = _stream(rng, side, k).gen
            x[i] = gen.random(p.n)
            u[i] = gen.random()
        heights, flagged = _drawn_height_rows(p, x, u)
        for i in np.flatnonzero(flagged).tolist():
            stream = _stream(rng, side, ks[i])
            rel = sample_positions(p, stream)
            heights[i] = len(breadth_chains(rel, [int(p.draw(stream))])[0]) - 1
        out[ks.start:ks.stop] = heights
    return out


def suite_repeat_time(n: int = 50, replicates: int = 100_000, seed: int = 0):
    """First-repeat index minus two matches the height of a drawn vertex."""
    p = uniform_pseq(n)

    def reports(rng):
        side_a = repeat_time_sample(p, _stream(rng, "repeat-time/first-repeat"), replicates) - 2
        side_b = _drawn_heights(p, replicates, rng)
        return [ks_two_sample(side_a, side_b, suite="repeat-time")]

    return _run_checks(seed, [reports])


# ---------------------------------------------------------------------------
# 9. reflected-excursion oracle
# ---------------------------------------------------------------------------

def suite_y_oracle(reps: int = 100, grid: int = 2 ** 12, seed: int = 0):
    """Reflected excursion agrees with the range-measure representation at
    the midpoints of 100 equal cells of [0, 1]."""
    def reports(rng):
        worst = 0.0
        ss = (np.arange(100) + 0.5) / 100
        for r in range(reps):
            theta = BROWNIAN_THETA if r % 2 == 0 else REFERENCE_THETA
            exc = sample_excursion(theta, grid, _stream(rng, "y-oracle", r))
            y = reflected_excursion(exc)
            for s in ss:
                worst = max(worst, abs(y.value(s) - infimum_range_measure(exc, float(s))))
        ok = worst <= IDENTITY_TOL
        return [TestReport(suite="y-oracle", statistic=worst, p_value=1.0 if ok else 0.0,
                           passed=ok, n_samples=reps * ss.size, extra={"tol": IDENTITY_TOL})]

    return _run_checks(seed, [reports], retry=False)


SUITES = {
    "identities": suite_identities,
    "btree-law": suite_tree_law,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "jeulin": suite_jeulin,
    "pkey": suite_pkey,
    "unifconv": suite_unifconv,
    "repeat-time": suite_repeat_time,
    "y-oracle": suite_y_oracle,
}

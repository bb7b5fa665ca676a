"""Piecewise-linear cadlag paths and exchangeable-increment bridge constructions.

A path is stored as strictly increasing breakpoint times with a left and a
right value at each breakpoint; between consecutive breakpoints the path is
the straight line from the right value to the next left value.  Jumps are
exact (the stored right minus left), so transforms preserve jump sizes to
the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    JumpCollisionError,
    NormError,
    SignError,
    ZeroTheta0Error,
)
from .rng import RngState

# Three-decimal parameter tuples leave squared sums off by ~1e-4, so a
# tighter norm tolerance would reject legitimate inputs.
THETA_NORM_TOL = 1e-4

DEFAULT_GRID = 2 ** 14


# ---------------------------------------------------------------------------
# Parameter sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theta:
    """Parameter sequence (theta0, theta1 >= ... >= thetaI >= 0), finite length.

    Invariants: atoms nonincreasing and positive, theta0 >= 0,
    theta0^2 + sum(atoms^2) = 1 within THETA_NORM_TOL, and theta0 > 0
    whenever at least one atom is present.
    """

    theta0: float
    atoms: tuple[float, ...]

    @property
    def length(self) -> int:
        return len(self.atoms)

    @property
    def atom_sum(self) -> float:
        return float(sum(self.atoms))


def validate_theta(theta0: float, atoms) -> Theta:
    """Validate a parameter sequence, re-sorting atoms if needed.

    Raises SignError on negative entries, NormError when the squared sum is
    off by more than THETA_NORM_TOL, and ZeroTheta0Error when atoms are
    present but theta0 == 0.
    """
    theta0 = float(theta0)
    atoms = [float(a) for a in atoms]
    if theta0 < 0.0 or any(a < 0.0 for a in atoms):
        raise SignError("all entries must be nonnegative")
    atoms = [a for a in atoms if a > 0.0]
    atoms = sorted(atoms, reverse=True)
    sq = theta0 ** 2 + sum(a ** 2 for a in atoms)
    if abs(sq - 1.0) > THETA_NORM_TOL:
        raise NormError(f"theta0^2 + sum(theta_i^2) = {sq:.8f}, expected 1")
    if atoms and theta0 == 0.0:
        raise ZeroTheta0Error("finite sequences with atoms require theta0 > 0")
    return Theta(theta0=theta0, atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# Cadlag paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CadlagPath:
    """Right-continuous piecewise-linear path with exact jumps."""

    times: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        l = np.asarray(self.left, dtype=float)
        r = np.asarray(self.right, dtype=float)
        if not (t.ndim == 1 and t.shape == l.shape == r.shape and t.size >= 2):
            raise ValueError("times/left/right must be 1-d arrays of equal size >= 2")
        if not np.all(np.diff(t) > 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if not (np.isfinite(l).all() and np.isfinite(r).all()):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "left", l)
        object.__setattr__(self, "right", r)

    # -- basic queries ------------------------------------------------------

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return int(self.times.size)

    def value(self, u):
        """Cadlag evaluation; at a breakpoint returns the right value."""
        u_arr = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(self.times, u_arr, side="right") - 1, 0, len(self) - 2)
        at_bp = u_arr == self.times[i]
        last = u_arr >= self.times[-1]
        t_lo = self.times[i]
        t_hi = self.times[i + 1]
        frac = (u_arr - t_lo) / (t_hi - t_lo)
        vals = self.right[i] + frac * (self.left[i + 1] - self.right[i])
        vals = np.where(at_bp, self.right[i], vals)
        vals = np.where(last, self.right[-1], vals)
        return float(vals) if np.isscalar(u) else vals

    def left_limit(self, u):
        """Limit from the left; at a breakpoint returns the stored left value."""
        u_arr = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(self.times, u_arr, side="left") - 1, 0, len(self) - 2)
        at_bp = u_arr == self.times[i + 1]
        first = u_arr <= self.times[0]
        t_lo = self.times[i]
        t_hi = self.times[i + 1]
        frac = (u_arr - t_lo) / (t_hi - t_lo)
        vals = self.right[i] + frac * (self.left[i + 1] - self.right[i])
        vals = np.where(at_bp, self.left[np.minimum(i + 1, len(self) - 1)], vals)
        vals = np.where(first, self.left[0], vals)
        return float(vals) if np.isscalar(u) else vals

    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, sizes) of all jumps, exact right minus left."""
        sizes = self.right - self.left
        mask = sizes != 0.0
        return self.times[mask], sizes[mask]

    def min_value(self) -> float:
        """Infimum over the whole domain, left limits included."""
        return float(min(self.left.min(), self.right.min()))

    def max_value(self) -> float:
        return float(max(self.left.max(), self.right.max()))

    def argmin_breakpoint(self) -> int:
        """Earliest breakpoint index attaining min over min(left, right)."""
        per = np.minimum(self.left, self.right)
        return int(np.argmin(per))

    def interval_inf(self, a: float, b: float) -> float:
        """inf over the closed interval [a, b], left limits counted."""
        if not (self.t0 <= a <= b <= self.t1):
            raise ValueError("interval out of domain")
        lo = self.value(a)
        if a == b:
            return float(lo)
        cand = min(lo, self.left_limit(b), self.value(b))
        k0 = np.searchsorted(self.times, a, side="right")
        k1 = np.searchsorted(self.times, b, side="left")
        if k1 > k0:
            inner = np.minimum(self.left[k0:k1], self.right[k0:k1]).min()
            cand = min(cand, float(inner))
        return float(cand)

    # -- transforms ---------------------------------------------------------

    def shift_values(self, c: float) -> "CadlagPath":
        return CadlagPath(self.times, self.left + c, self.right + c)

    def scale_values(self, c: float) -> "CadlagPath":
        return CadlagPath(self.times, c * self.left, c * self.right)

    def restrict(self, a: float, b: float) -> "CadlagPath":
        """Sub-path on [a, b]: enters at the cadlag value, keeps the left
        limit at b when b is a jump time."""
        if not (self.t0 <= a < b <= self.t1):
            raise ValueError("invalid restriction interval")
        k0 = np.searchsorted(self.times, a, side="right")
        k1 = np.searchsorted(self.times, b, side="left")
        va = self.value(a)
        t = np.concatenate([[a], self.times[k0:k1], [b]])
        l = np.concatenate([[va], self.left[k0:k1], [self.left_limit(b)]])
        r = np.concatenate([[va], self.right[k0:k1], [self.value(b)]])
        return CadlagPath(t, l, r)

    def to_csv(self, path) -> None:
        data = np.column_stack([self.times, self.left, self.right])
        np.savetxt(path, data, delimiter=",", header="t,left_value,right_value",
                   comments="", fmt="%.17g")


def continuous_path(times, values) -> CadlagPath:
    """Path with no jumps through the given points."""
    v = np.asarray(values, dtype=float)
    return CadlagPath(np.asarray(times, dtype=float), v, v.copy())


def subtract_on_windows(x: CadlagPath, comps, windows) -> CadlagPath:
    """x minus every path of comps, each subtracted only on its own window.

    windows holds one (t_open, t_close) pair per component, and a component
    must be +0.0 outside its window.  The result is bitwise the pointwise
    combination of x and the components with coefficients 1, -1, ..., -1
    on the union of their breakpoints: adding -0.0 changes no value, so
    only the union-grid points inside each window are touched.  x is read
    at its own breakpoints and evaluated only at the component breakpoints
    it lacks.
    """
    if not comps:
        return x
    ct = np.concatenate([c.times for c in comps])
    pos = np.minimum(np.searchsorted(x.times, ct), len(x) - 1)
    extra = np.unique(ct[x.times[pos] != ct])
    at = np.searchsorted(x.times, extra)
    t = np.insert(x.times, at, extra)
    # 0.0 + turns -0.0 into +0.0, as summing onto a zero array does
    left = 0.0 + np.insert(x.left, at, x.left_limit(extra))
    right = 0.0 + np.insert(x.right, at, x.value(extra))
    for c, (t_open, t_close) in zip(comps, windows):
        lo = np.searchsorted(t, t_open)
        hi = np.searchsorted(t, t_close, side="right")
        w = t[lo:hi]
        left[lo:hi] += -1.0 * c.left_limit(w)
        right[lo:hi] += -1.0 * c.value(w)
    return CadlagPath(t, left, right)


def sup_distance(a: CadlagPath, b: CadlagPath) -> float:
    """Uniform distance between two paths (exact: both are piecewise linear
    between the union of their breakpoints).  Each path is read at the
    other's breakpoints only: at its own breakpoints its left limits and
    values are its stored left and right values."""
    return float(max(np.abs(a.left - b.left_limit(a.times)).max(),
                     np.abs(a.right - b.value(a.times)).max(),
                     np.abs(a.left_limit(b.times) - b.left).max(),
                     np.abs(a.value(b.times) - b.right).max()))


def cyclic_shift(path: CadlagPath, pivot: float, base: float) -> CadlagPath:
    """Relocate the time origin to `pivot` (mod 1) and subtract `base`.

    Requires a path on [0, 1] and a pivot at 0 or at one of its
    breakpoints; the seam at 1 - pivot glues old time 1 to old time 0.  The
    new path starts at the pivot's right value minus base and ends at the
    pivot's left limit minus base.
    """
    if path.t0 != 0.0 or path.t1 != 1.0:
        raise ValueError("cyclic shift requires domain [0, 1]")
    if pivot == 0.0:
        return path.shift_values(-base)
    if not (0.0 < pivot < 1.0):
        raise ValueError("pivot must lie in [0, 1)")
    t, l, r = path.times, path.left, path.right
    k = int(np.searchsorted(t, pivot))
    if t[k] != pivot:
        raise ValueError("pivot must be a breakpoint of the path")
    times = np.concatenate([t[k:-1] - pivot, [1.0 - pivot], t[1:k] + (1.0 - pivot), [1.0]])
    left = np.concatenate([l[k:-1], [l[-1]], l[1:k], [l[k]]]) - base
    right = np.concatenate([r[k:-1], [r[0]], r[1:k], [l[k]]]) - base
    return CadlagPath(times, left, right)


# ---------------------------------------------------------------------------
# Samplers and transforms
# ---------------------------------------------------------------------------

def sample_brownian_bridge(m: int, rng: RngState) -> CadlagPath:
    """Standard Brownian bridge on a uniform grid of m+1 points.

    Built by pinning a scaled random walk, so grid marginals are exactly
    N(0, t(1-t)) with covariance s(1-t).
    """
    if m < 2:
        raise ValueError("grid size m must be >= 2")
    steps = rng.gen.normal(0.0, 1.0 / np.sqrt(m), size=m)
    w = np.concatenate([[0.0], np.cumsum(steps)])
    t = np.arange(m + 1) / m
    v = w - t * w[-1]
    v[0] = 0.0
    v[-1] = 0.0
    return continuous_path(t, v)


def _ei_jump_values(atoms, jump_times, t):
    """Left/right values at times t of sum_i theta_i (1{U_i <= t} - t).

    Jumps are forced exact: right = left + theta_i at each U_i.
    """
    atoms = np.asarray(atoms, dtype=float)
    u = np.asarray(jump_times, dtype=float)
    order = np.argsort(u)
    u_sorted = u[order]
    a_sorted = atoms[order]
    cum = np.concatenate([[0.0], np.cumsum(a_sorted)])
    drift = atoms.sum() * t
    jl = cum[np.searchsorted(u_sorted, t, side="left")] - drift
    jr = jl.copy()
    pos = np.searchsorted(t, u_sorted)
    jr[pos] = jl[pos] + a_sorted
    return jl, jr


def _on_grid(grid: np.ndarray, u):
    """Whether u (a scalar or an array) is a point of the strictly
    increasing array grid."""
    i = np.minimum(np.searchsorted(grid, u), grid.size - 1)
    return grid[i] == u


def build_ei_bridge(theta: Theta, bridge: CadlagPath,
                    jump_times=None, rng: RngState | None = None) -> CadlagPath:
    """Exchangeable-increment bridge: theta0 * bridge plus atom jump terms.

    Each atom contributes an exact upward jump of its size at a uniform
    time plus a compensating drift.  Sampled jump times that collide with
    the grid or each other are resampled; explicit colliding times raise
    JumpCollisionError.
    """
    n_atoms = len(theta.atoms)
    grid = bridge.times
    if jump_times is None:
        if n_atoms > 0 and rng is None:
            raise ValueError("rng required to sample jump times")
        jump_times = []
        while len(jump_times) < n_atoms:
            u = float(rng.gen.uniform(0.0, 1.0))
            if not 0.0 < u < 1.0 or u in jump_times or _on_grid(grid, u):
                continue  # collision has probability zero; resample
            jump_times.append(u)
    else:
        jump_times = [float(u) for u in jump_times]
        if len(jump_times) != n_atoms:
            raise ValueError("need one jump time per atom")
        if any(not 0.0 < u < 1.0 for u in jump_times):
            raise ValueError("jump times must lie in (0, 1)")
        if len(set(jump_times)) != n_atoms:
            raise JumpCollisionError("duplicate jump times")
        if _on_grid(grid, np.asarray(jump_times, dtype=float)).any():
            raise JumpCollisionError("jump time collides with a grid point")
    # the bridge's value at its own breakpoints is its right value, so only
    # the jump times need evaluating
    if n_atoms:
        u_arr = np.asarray(jump_times, dtype=float)
        u_sorted = np.sort(u_arr)
        at = np.searchsorted(grid, u_sorted)
        t = np.insert(grid, at, u_sorted)
        base = np.insert(bridge.right, at, bridge.value(u_sorted))
        jl, jr = _ei_jump_values(theta.atoms, u_arr, t)
    else:
        t = grid.copy()
        base = bridge.right
        jl = jr = np.zeros_like(t)
    cont = theta.theta0 * base
    left = cont + jl
    right = cont + jr
    left[0] = right[0] = 0.0
    left[-1] = right[-1] = 0.0
    return CadlagPath(t, left, right)


def vervaat_transform(x: CadlagPath) -> CadlagPath:
    """Relocate the origin to the earliest infimum and re-base to zero.

    Requires zero endpoint values.  The (measure-zero) case of an infimum
    at a jump time uses the left-limit value, so the output starts at the
    residual jump and is nonnegative with zero endpoints.
    """
    if x.value(x.t0) != 0.0 or x.value(x.t1) != 0.0:
        raise ValueError("input must have zero endpoint values")
    k = x.argmin_breakpoint()
    return cyclic_shift(x, float(x.times[k]), float(min(x.left[k], x.right[k])))


def running_infimum_forward(x: CadlagPath, t_from: float, t_to: float) -> CadlagPath:
    """The nonincreasing map u -> inf over [t_from, u] of x, on [t_from, t_to]."""
    sub = x if (t_from, t_to) == (x.t0, x.t1) else x.restrict(t_from, t_to)
    t, l, r = sub.times, sub.left, sub.right
    n = t.size
    a = np.minimum(l, r)
    a[0] = r[0]
    m = np.minimum.accumulate(a)  # m[k] = inf over [t_from, t_k]
    lv = np.empty(n)
    lv[0] = r[0]
    lv[1:] = np.minimum(m[:-1], l[1:])
    # a falling segment crosses the running minimum where the previous
    # minimum sits strictly between its endpoint values
    cross = (r[:-1] > m[:-1]) & (m[:-1] > l[1:])
    if cross.any():
        k = np.nonzero(cross)[0]
        frac = (m[k] - r[k]) / (l[k + 1] - r[k])
        u_star = t[k] + frac * (t[k + 1] - t[k])
        ok = (u_star > t[k]) & (u_star < t[k + 1])
        k, u_star = k[ok], u_star[ok]
        times = np.concatenate([t, u_star])
        left = np.concatenate([lv, m[k]])
        right = np.concatenate([m, m[k]])
        order = np.argsort(times, kind="stable")
        return CadlagPath(times[order], left[order], right[order])
    return CadlagPath(t, lv, m)


def first_passage_below(x: CadlagPath, t0: float, level: float):
    """First s > t0 with x(s) <= level, solved exactly on linear segments.

    Returns None when there is no passage by the end of the domain.
    """
    if not x.t0 <= t0 <= x.t1:
        raise ValueError("t0 out of domain")
    v0 = x.value(t0)
    if v0 <= level:
        return float(t0)
    if t0 == x.t1:
        return None
    k = int(np.searchsorted(x.times, t0, side="right"))
    hit = (x.left[k:] <= level) | (x.right[k:] <= level)
    if not hit.any():
        return None
    j = k + int(np.argmax(hit))
    prev_t = float(x.times[j - 1]) if j - 1 >= k else float(t0)
    prev_v = float(x.right[j - 1]) if j - 1 >= k else float(v0)
    lv = float(x.left[j])
    if lv <= level:
        frac = (prev_v - level) / (prev_v - lv)
        return float(prev_t + frac * (x.times[j] - prev_t))
    return float(x.times[j])  # reached by a downward jump at the breakpoint

"""Statistical tests and analytic path functionals.

Two-sample Kolmogorov-Smirnov with the asymptotic Kolmogorov tail, chi-square
goodness of fit, exact band times of piecewise-linear paths, and the
reciprocal time change linking an excursion to its width profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, kolmogorov

from .errors import (
    EmptySampleError,
    LowExpectedCountError,
    NegativePathError,
)
from .paths import CadlagPath

ALPHA = 0.01


@dataclass(eq=False)
class TestReport:
    """Outcome of one statistical check at significance ALPHA."""

    suite: str
    statistic: float
    p_value: float
    passed: bool
    n_samples: int
    seed: int | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        # A check that saw no samples has shown nothing, so it cannot pass.
        self.passed = bool(self.passed and self.n_samples > 0)

    def to_json(self) -> str:
        obj = {
            "suite": self.suite,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "pass": self.passed,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }
        obj.update(self.extra)
        return json.dumps(obj, default=_json_scalar)


def _json_scalar(obj):
    """JSON hook for numpy scalars, which json cannot encode itself."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def ks_p_value(d: float, size_a: int, size_b: int) -> float:
    """Asymptotic p-value of the two-sample Kolmogorov-Smirnov statistic d
    at the given sample sizes: the Kolmogorov tail at the small-sample
    corrected statistic."""
    ne = size_a * size_b / (size_a + size_b)
    return float(kolmogorov((np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * d))


def ks_two_sample(a, b, suite: str = "ks") -> TestReport:
    """Two-sample Kolmogorov-Smirnov test with asymptotic p-value
    (`ks_p_value`)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySampleError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.abs(cdf_a - cdf_b).max())
    p = ks_p_value(d, a.size, b.size)
    return TestReport(suite=suite, statistic=d, p_value=p, passed=p > ALPHA,
                      n_samples=int(min(a.size, b.size)))


def chi_square_gof(counts, expected_probs, suite: str = "chi2") -> TestReport:
    """Pearson chi-square against fixed cell probabilities, dof = cells - 1."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if counts.shape != probs.shape or counts.ndim != 1:
        raise ValueError("counts and probabilities must be same-length vectors")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("expected probabilities must sum to 1")
    total = counts.sum()
    expected = total * probs
    if np.any(expected < 5.0):
        raise LowExpectedCountError(f"min expected count {expected.min():.2f} < 5")
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = counts.size - 1
    p = float(chdtrc(dof, stat))
    return TestReport(suite=suite, statistic=stat, p_value=p, passed=p > ALPHA,
                      n_samples=int(total), extra={"dof": dof})


# ---------------------------------------------------------------------------
# Path functionals
# ---------------------------------------------------------------------------

# Expected gap between a Brownian path's true extremum and its best grid
# point, in units of sqrt(grid step) (discrete-monitoring constant).
MONITORING_BETA = 0.5826


@dataclass(eq=False)
class TimeChangeProfile:
    """Running reciprocal integral of an excursion and its inverse.

    Interior segments use the exact logarithmic form; the two end segments
    that touch zero use a square-root local model (excursions leave zero
    like a square root, which the linear chord cannot integrate).
    """

    times: np.ndarray
    cum: np.ndarray
    seg_v0: np.ndarray
    seg_v1: np.ndarray

    @property
    def total(self) -> float:
        return float(self.cum[-1])

    def value_at(self, y: float) -> float:
        """Excursion value at the inverse time change of y."""
        if y < 0:
            raise ValueError("y must be nonnegative")
        if y >= self.total:
            return 0.0
        j = int(np.searchsorted(self.cum, y, side="right")) - 1
        j = max(j, 0)
        rel = y - self.cum[j]
        v0, v1 = self.seg_v0[j], self.seg_v1[j]
        dt = self.times[j + 1] - self.times[j]
        if v0 == 0.0:  # square-root model from zero
            return float(rel * v1 ** 2 / (2.0 * dt))
        if v1 == 0.0:  # square-root model into zero
            remaining = self.cum[j + 1] - y
            return float(remaining * v0 ** 2 / (2.0 * dt))
        slope = (v1 - v0) / dt
        return float(v0 * np.exp(slope * rel)) if slope != 0.0 else float(v0)


def excursion_time_change(x: CadlagPath, shift: float = 0.0) -> TimeChangeProfile:
    """Per-segment running integral of ds / (x(s) + shift) for an excursion.

    A positive shift acts as a continuity correction for sampled paths whose
    origin was relocated to a grid minimum: the true infimum sits about
    MONITORING_BETA * sqrt(grid step) below the best grid point, and the
    reciprocal integral amplifies that gap logarithmically.
    """
    v0 = x.right[:-1] + shift
    v1 = x.left[1:] + shift
    dt = np.diff(x.times)
    if min(x.left.min(), x.right.min()) < -1e-12:
        raise NegativePathError("excursion must be nonnegative")
    v0 = np.where(v0 < 0.0, 0.0, v0)
    v1 = np.where(v1 < 0.0, 0.0, v1)
    contrib = np.empty_like(dt)
    # exact integral of ds / x(s) over each linear segment with both ends positive
    flat = (v0 > 0.0) & (v0 == v1)
    sloped = (v0 > 0.0) & (v1 > 0.0) & (v0 != v1)
    contrib[flat] = dt[flat] / v0[flat]
    contrib[sloped] = (dt[sloped] * (np.log(v1[sloped]) - np.log(v0[sloped]))
                       / (v1[sloped] - v0[sloped]))
    z0 = (v0 == 0.0) & (v1 > 0.0)
    z1 = (v1 == 0.0) & (v0 > 0.0)
    contrib[z0] = 2.0 * dt[z0] / v1[z0]
    contrib[z1] = 2.0 * dt[z1] / v0[z1]
    dead = (v0 == 0.0) & (v1 == 0.0)
    contrib[dead] = np.inf
    if np.isinf(contrib).any():
        # zero-valued stretch inside the domain: truncate at its start
        first = int(np.argmax(np.isinf(contrib)))
        contrib = contrib[:first]
        times = x.times[: first + 1]
        v0, v1 = v0[:first], v1[:first]
    else:
        times = x.times
    cum = np.concatenate([[0.0], np.cumsum(contrib)])
    return TimeChangeProfile(times=times, cum=cum, seg_v0=v0, seg_v1=v1)


def time_in_band(x: CadlagPath, lo: float, hi: float) -> float:
    """Exact time the path spends with values in [lo, hi]."""
    v0 = x.right[:-1]
    v1 = x.left[1:]
    dt = np.diff(x.times)
    a = np.minimum(v0, v1)
    b = np.maximum(v0, v1)
    flat = a == b
    inside = flat & (a >= lo) & (a <= hi)
    out = np.where(inside, dt, 0.0)
    nf = ~flat
    overlap = np.clip(np.minimum(b, hi) - np.maximum(a, lo), 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(nf, overlap / (b - a), 0.0)
    return float((out + np.where(nf, frac * dt, 0.0)).sum())

"""Reflected excursions: jump intervals, subtracted components, couplings.

Each upward jump of an excursion-type path opens an interval ending at the
first return to the pre-jump level.  Subtracting, over every such interval,
the running infimum measured from the jump turns the path into a continuous
nonnegative excursion.  An independent cross-check computes the same object
as the Lebesgue measure of the range of the backward running-infimum map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotExcursionError
from .paths import (
    CadlagPath,
    Theta,
    build_ei_bridge,
    first_passage_below,
    running_infimum_forward,
    sample_brownian_bridge,
    subtract_on_windows,
    vervaat_transform,
)
from .rng import RngState

EXCURSION_DIP_TOL = 1e-9


@dataclass(frozen=True)
class JumpInterval:
    """One upward jump: open time, first-return time, jump size."""

    index: int
    t_open: float
    t_close: float
    size: float


def jump_intervals(x: CadlagPath) -> list[JumpInterval]:
    """One interval per upward jump of x, closed at the first passage back
    to the pre-jump level.  The collection is laminar.

    The input must be excursion-like: raises NotExcursionError if it dips
    below -1e-9 or a jump never returns to its base level.
    """
    if x.min_value() < -EXCURSION_DIP_TOL:
        raise NotExcursionError(f"path dips to {x.min_value():.3g}")
    out = []
    times, sizes = x.jumps()
    idx = 0
    for t_j, s in zip(times, sizes):
        if s <= 0:
            continue
        level = x.left_limit(t_j)
        t_close = first_passage_below(x, t_j, level)
        if t_close is None:
            raise NotExcursionError(f"jump at {t_j} never returns to its base level")
        out.append(JumpInterval(idx, float(t_j), float(t_close), float(s)))
        idx += 1
    return out


def reflect_component(x: CadlagPath, iv: JumpInterval) -> CadlagPath:
    """Running infimum from the jump time, re-based at the pre-jump level.

    Supported on [t_open, t_close]: starts at the jump size, is nonincreasing,
    returns to 0 at t_close, and vanishes elsewhere on the domain of x.
    """
    level = x.left_limit(iv.t_open)
    inner = running_infimum_forward(x, iv.t_open, iv.t_close)
    t = inner.times
    left = inner.left - level
    right = inner.right - level
    left[0] = 0.0  # support boundary: zero before the jump
    # the running infimum meets the level at t_close up to solver rounding
    left[-1] = right[-1] = 0.0
    pre = [x.t0] if iv.t_open != x.t0 else []
    post = [x.t1] if iv.t_close != x.t1 else []
    pre_zero, post_zero = [0.0] * len(pre), [0.0] * len(post)
    return CadlagPath(
        np.concatenate([pre, t, post]),
        np.concatenate([pre_zero, left, post_zero]),
        np.concatenate([pre_zero, right, post_zero]),
    )


def _windows(ivs) -> list[tuple[float, float]]:
    return [(iv.t_open, iv.t_close) for iv in ivs]


def reflected_excursion(x: CadlagPath) -> CadlagPath:
    """Subtract every jump's reflect_component from x, each only on its own
    window [t_open, t_close], in interval order.

    For an excursion-type input the result is continuous (each jump cancels
    exactly), nonnegative, and shares x's endpoints.
    """
    ivs = jump_intervals(x)
    return subtract_on_windows(x, [reflect_component(x, iv) for iv in ivs], _windows(ivs))


def infimum_range_measure(x: CadlagPath, s: float) -> float:
    """Lebesgue measure of {inf over [u, s] of x : 0 <= u <= s}.

    Computed as the total increase of the backward running-infimum map minus
    its jump sizes; serves as an independent oracle for reflected_excursion.
    """
    if not x.t0 <= s <= x.t1:
        raise ValueError("s out of domain")
    if s == x.t0:
        return 0.0
    sub = x if s == x.t1 else x.restrict(x.t0, s)
    t, l, r = sub.times, sub.left, sub.right
    a = np.empty(t.size)
    a[:-1] = np.minimum(r[:-1], l[1:])
    a[-1] = r[-1]
    m = np.minimum.accumulate(a[::-1])[::-1]
    gaps = np.maximum(m[1:] - l[1:], 0.0).sum()
    return float(r[-1] - m[0] - gaps)


# ---------------------------------------------------------------------------
# Sampling pipelines
# ---------------------------------------------------------------------------

def sample_excursion(theta: Theta, m: int, rng: RngState) -> CadlagPath:
    """Sample the excursion: bridge, atom jumps, then origin relocation."""
    bridge = sample_brownian_bridge(m, rng)
    exc = vervaat_transform(build_ei_bridge(theta, bridge, rng=rng))
    return exc


def sample_reflected(theta: Theta, m: int, rng: RngState) -> CadlagPath:
    """Sample the continuous reflected excursion for the given parameters."""
    return reflected_excursion(sample_excursion(theta, m, rng))


def truncated_coupling(theta: Theta, keep: int, bridge: CadlagPath,
                       jump_times) -> tuple[CadlagPath, CadlagPath]:
    """Coupled pair (truncated, full) of reflected excursions.

    Both use the same bridge and jump times, and one set of jump intervals
    and components.  The full path subtracts every component, the truncated
    path only the `keep` largest jumps' (the earlier first among equal
    sizes), each on its own window, in interval order: these are the
    pointwise decreasing approximants of the reflected process, so the
    uniform gap equals the norm of the dropped components, is bounded by
    the dropped atoms' total size, and is nonincreasing in `keep` on every
    realization.
    """
    if not 0 <= keep <= theta.length:
        raise ValueError("keep must be between 0 and the number of atoms")
    jump_times = [float(u) for u in jump_times]
    x_full = vervaat_transform(build_ei_bridge(theta, bridge, jump_times=jump_times))
    ivs = jump_intervals(x_full)
    comps = [reflect_component(x_full, iv) for iv in ivs]
    y_full = subtract_on_windows(x_full, comps, _windows(ivs))
    largest = sorted(ivs, key=lambda iv: (-iv.size, iv.index))[:keep]
    kept = sorted(largest, key=lambda iv: iv.index)
    y_trunc = subtract_on_windows(x_full, [comps[iv.index] for iv in kept], _windows(kept))
    return y_trunc, y_full

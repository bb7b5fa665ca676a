"""Acceptance suite: every criterion at its stated tolerance and scale.

Runs the full desk-scale verification (several minutes).  Each test prints
one PASS/FAIL line; statistical checks run at significance 0.01 with a
single retry on independent streams of the same seed (logged) guarding
against multiple-testing noise.
"""

import time

import numpy as np
import pytest

from icrt_lab.verify import (
    suite_identities,
    suite_jeulin,
    suite_pkey,
    suite_repeat_time,
    suite_theorem1,
    suite_theorem2,
    suite_tree_law,
    suite_unifconv,
    suite_y_oracle,
)


def _report(name: str, ok: bool, t0: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name} [{time.time() - t0:.1f}s] {detail}")


def test_criterion_1_exact_identities():
    t0 = time.time()
    reports, ok = suite_identities(n=1000, reps=100, seed=0)
    worst = max(r.statistic for r in reports)
    corrected = next(r.n_samples for r in reports if r.suite == "identities/corrected")
    _report("criterion-1 exact-identities", ok, t0,
            f"max_err={worst:.3e} tol=1e-9 corrected_trees={corrected}")
    assert ok, [r.to_json() for r in reports if not r.passed]


def test_criterion_2_construction_law():
    t0 = time.time()
    reports, ok = suite_tree_law(samples=100_000, seed=0)
    detail = " ".join(f"{r.suite.split('/')[1]}:p={r.p_value:.3f}" for r in reports)
    _report("criterion-2 construction-law", ok, t0, detail)
    assert ok, [r.to_json() for r in reports if not r.passed]


def test_criterion_3_reduced_tree_law():
    t0 = time.time()
    reports, ok = suite_theorem1(replicates=10_000, grid=2 ** 14, seed=0,
                                 leaves_list=(1, 2, 3))
    worst = min(r.p_value for r in reports)
    retried = sum(r.extra.get("retried", False) for r in reports)
    _report("criterion-3 reduced-tree-law", ok, t0,
            f"min_p={worst:.4f} checks={len(reports)} retried={retried}")
    assert ok, [r.to_json() for r in reports if not r.passed]


def test_criterion_4_spanning_reduction_law():
    t0 = time.time()
    reports, ok = suite_theorem2(n=100_000, replicates=4000, leaves=2, seed=0)
    detail = " ".join(f"{r.suite.split('/')[1]}:p={r.p_value:.3f}" for r in reports)
    _report("criterion-4 spanning-reduction-law", ok, t0, detail)
    assert ok, [r.to_json() for r in reports if not r.passed]


def test_criterion_5_local_time_identity():
    t0 = time.time()
    reports, ok = suite_jeulin(grid=2 ** 14, replicates=5000, seed=0)
    ks = reports[0]
    mean = reports[-1]
    _report("criterion-5 local-time-identity", ok, t0,
            f"ks_p={ks.p_value:.4f} mean_gap_z={mean.statistic:.2f} (3se rule)")
    assert ok, [r.to_json() for r in reports if not r.passed]


def test_criterion_6_exploration_gap_trend():
    t0 = time.time()
    reports, ok = suite_pkey(ns=(1000, 10_000, 100_000), reps=200, seed=0)
    med = reports[0].extra["medians"]
    _report("criterion-6 exploration-gap-trend", ok, t0,
            "medians=" + "/".join(f"{m:.4f}" for m in med))
    assert ok, reports[0].to_json()


def test_criterion_7_truncation_coupling():
    t0 = time.time()
    reports, ok = suite_unifconv(reps=100, seed=0)
    r = reports[0]
    _report("criterion-7 truncation-coupling", ok, t0,
            f"max_excess={r.statistic:.3e} mono_failures={r.extra['monotonicity_failures']}")
    assert ok, r.to_json()


def test_criterion_8_repeat_time_identity():
    t0 = time.time()
    reports, ok = suite_repeat_time(n=50, replicates=100_000, seed=0)
    _report("criterion-8 repeat-time-identity", ok, t0,
            f"ks_p={reports[-1].p_value:.4f}")
    assert ok, [r.to_json() for r in reports if not r.passed]


def test_criterion_9_range_measure_oracle():
    t0 = time.time()
    reports, ok = suite_y_oracle(reps=100, grid=2 ** 12, seed=0)
    _report("criterion-9 range-measure-oracle", ok, t0,
            f"max_err={reports[0].statistic:.3e} tol=1e-9")
    assert ok, reports[0].to_json()

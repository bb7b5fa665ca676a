"""Tests of the benchmark's span arithmetic, patching, gate and metric lists.

Run from the root of the checkout:  python3 -m pytest bench -q
"""

import json
import sys

import pytest

import run
from spans import Recorder, Span, layer_table, package_modules, patched, self_times, union_length

icrt_lab, verify = run.load_program()


def _span(i, name, start, end, parent=-1, exc=None, size=0):
    return Span(i, name, start, end, parent, 0, exc, size)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (1.5, 1.7)]) == 3.0
    assert union_length([(5.0, 6.0), (0.0, 1.0), (0.5, 5.5)]) == 6.0


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, "verify.suite_x", 0.0, 10.0),
        _span(1, "paths.a", 1.0, 4.0, parent=0),
        _span(2, "paths.b", 3.0, 6.0, parent=0),   # overlaps paths.a
        _span(3, "ptree.c", 2.0, 3.0, parent=1),   # grandchild: not the root's
        _span(4, "stats.d", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_layer_table_sums_self_time_per_layer():
    spans = [
        _span(0, "verify.suite_x", 0.0, 10.0),
        _span(1, "ptree.depth_tree", 1.0, 5.0, parent=0, size=100),
        _span(2, "ptree.depth_tree", 2.0, 3.0, parent=1, size=100),  # recursion
        _span(3, "icrt.spanning_subtree", 6.0, 7.0, parent=0, exc="DuplicateSampleError"),
        _span(4, "icrt.spanning_subtree", 7.0, 8.0, parent=0),
    ]
    table = layer_table(spans, wall_s=20.0)
    assert table["verify.self_s"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert table["ptree.self_s"] == pytest.approx(3.0 + 1.0)
    assert table["icrt.self_s"] == pytest.approx(2.0)
    assert table["paths.self_s"] == 0.0
    assert table["ptree.depth_tree.s"] == pytest.approx(4.0)  # union, not 5
    assert table["ptree.depth_tree.calls"] == 2
    assert table["ptree.depth_tree.us_per_vertex"] == pytest.approx(4.0e6 / 200)
    assert table["icrt.spanning_subtree.accept_ratio"] == pytest.approx(0.5)
    assert table["icrt.spanning_subtree.raised"] == 1
    assert table["trace.coverage"] == pytest.approx(0.5)
    empty = layer_table([], wall_s=1.0)
    assert empty["icrt.spanning_subtree.accept_ratio"] == 0.0
    assert empty["ptree.depth_tree.us_per_vertex"] == 0.0


def _snapshot():
    return {(m.__name__, k): v for m in package_modules() for k, v in vars(m).items()}


def test_patch_and_restore_leave_every_function_identical():
    before = _snapshot()
    original = verify.depth_tree
    with patched(Recorder()):
        assert verify.depth_tree is not original
        assert verify.depth_tree is sys.modules["icrt_lab.ptree"].depth_tree
        assert icrt_lab.depth_tree is verify.depth_tree
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_restore_after_exception_and_exception_type_recorded():
    before = _snapshot()
    rec = Recorder(run=3)
    ptree = sys.modules["icrt_lab.ptree"]
    with pytest.raises(RuntimeError):
        with patched(rec):
            with pytest.raises(ZeroDivisionError):
                ptree.uniform_pseq(0)
            raise RuntimeError("leave the block")
    assert all(_snapshot()[k] is v for k, v in before.items())
    assert [(s.name, s.exc, s.run) for s in rec.spans] == [
        ("ptree.uniform_pseq", "ZeroDivisionError", 3)]


def test_nested_calls_record_parents():
    from icrt_lab.rng import RngState
    rec = Recorder()
    with patched(rec):
        sys.modules["icrt_lab.reflect"].sample_excursion(verify.BROWNIAN_THETA, 64, RngState(1))
    root = rec.spans[0]
    assert root.name == "reflect.sample_excursion" and root.parent == -1
    names = {s.name for s in rec.spans if s.parent == root.id}
    assert {"paths.sample_brownian_bridge", "paths.build_ei_bridge",
            "paths.vervaat_transform"} <= names
    assert all(s.start <= s.end for s in rec.spans)


def _report(suite, statistic=0.0, n=10, retried=False):
    from icrt_lab.stats import TestReport
    extra = {"retried": True} if retried else {}
    return TestReport(suite=suite, statistic=statistic, p_value=0.5, passed=True,
                      n_samples=n, seed=1, extra=extra)


def test_gate_counts_a_retried_check_once():
    outcome = [("identities", True, [_report("identities/pending", 1e-15)]),
               ("jeulin", True, [_report("jeulin"), _report("jeulin", retried=True)])]
    checks, retried, lines, problems = run.gate(outcome)
    assert (checks, retried, len(lines), problems) == (2, 1, 3, [])


@pytest.mark.parametrize("outcome", [
    [("pkey", False, [_report("pkey/median-trend")])],
    [("identities", True, [_report("identities/width", statistic=2e-9)])],
    [("repeat_time", True, [_report("repeat-time", n=0)])],
])
def test_gate_rejects(outcome):
    assert run.gate(outcome)[3]
    counter = run.Checks()
    with pytest.raises(run.GateError):
        counter.add(outcome)
    counter.fail(run.GateError("x"))
    assert counter.attempted == counter.failed == 1 and not counter.correct


def test_checks_require_identical_reports_across_passes():
    counter = run.Checks()
    counter.add([("jeulin", True, [_report("jeulin", statistic=0.1)])])
    counter.add([("jeulin", True, [_report("jeulin", statistic=0.1)])])
    assert counter.correct and counter.attempted == 2
    with pytest.raises(run.GateError):
        counter.add([("jeulin", True, [_report("jeulin", statistic=0.2)])])


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])

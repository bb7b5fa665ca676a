"""icrt-lab benchmark: time to verdict of the verification suites.

Run from the root of a source checkout:

    python3 bench/run.py --workload continuum --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of ``icrt_lab.verify`` suite calls at reduced
replicate counts, all at the given seed.  One pass runs the list once; the
run repeats passes back to back (closed loop, one process) for at least
``--seconds`` and at least MIN_PASSES times.  Every pass goes through the
correctness gate.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time
of a fresh ``python -m icrt_lab.cli --help``), ``verdict_s`` (median pass
time), ``peak_rss_mb`` and ``checks_passed_ratio``.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics from
the spans that bench/spans.py records around calls into the package.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment stamp, every pass
time, quartiles, per-layer tables) goes to ``.bench_out/``, and the spans
of the last traced pass to a JSON-lines file beside it.  Exit code: 0 when
every pass passed the gate, 1 when one did not, 2 for a usage error or when
the checkout holds no ``src/icrt_lab``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Recorder, layer_table, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Suite calls of each workload, at the sizes that make one module dominant.
WORKLOADS = {
    # Grid-2^14 excursions in every replicate: paths and reflect dominate,
    # ptree is never called.
    "continuum": (
        ("theorem1", {"replicates": 60, "grid": 2 ** 14, "leaves_list": (1, 2, 3)}),
        ("jeulin", {"grid": 2 ** 14, "replicates": 60}),
    ),
    # Few trees at n up to 10^5: depth_tree and breadth_tree dominate.
    # reps=8 keeps the median-trend check's false-failure rate near 1e-4.
    "discrete-large": (
        ("pkey", {"ns": (1000, 10_000, 100_000), "reps": 8}),
        ("theorem2", {"n": 100_000, "replicates": 30, "leaves": 2,
                      "marginal_reps": 100}),
    ),
    # Tens of thousands of ptree calls at n <= 1000, where fixed per-call cost
    # dominates; carries the 1e-9 exact identities.  tree_law needs 5000
    # samples for every enumerated n = 4 tree to have expected count >= 5.
    "discrete-small": (
        ("identities", {"n": 1000, "reps": 20}),
        ("tree_law", {"samples": 5000}),
        ("repeat_time", {"n": 50, "replicates": 3000}),
    ),
}

MIN_PASSES = 4          # --trace 0: passes per run, at least
MIN_TRACED = 2          # --trace 1: untraced/traced pairs per run, at least
MEASURE_CAP_S = 100.0   # no pass may be projected to end later, so a run ends in time
SETUP_REPEATS = 9
IDENTITY_TOL = 1e-9     # fixed here, not read from icrt_lab, so the program cannot loosen it
ENV_VARS = ("ICRT_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed_ratio": "ratio",
}

# Per-run series of seconds in the record, summarised by median and quartiles.
SERIES = ("setup_s", "verdict_s", "traced_verdict_s")

PER_LAYER = (
    "paths.self_s", "paths.build_ei_bridge.s", "paths.build_ei_bridge.calls",
    "paths.sample_brownian_bridge.s", "paths.vervaat_transform.s",
    "paths.combine.s", "paths.sup_distance.s",
    "reflect.self_s", "reflect.sample_excursion.s", "reflect.reflected_excursion.s",
    "reflect.reflected_excursion.calls", "reflect.jump_intervals.s",
    "reflect.reflect_component.s",
    "ptree.self_s", "ptree.depth_tree.s", "ptree.depth_tree.calls",
    "ptree.depth_tree.us_per_vertex", "ptree.breadth_tree.s",
    "ptree.breadth_tree.calls", "ptree.sample_positions.s",
    "ptree.particle_excursion.s", "ptree.corrected_excursion.s",
    "ptree.exploration_gap.s", "ptree.repeat_time_sample.s",
    "ptree.enumerate_parent_arrays.s",
    "icrt.self_s", "icrt.spanning_subtree.s", "icrt.spanning_subtree.accept_ratio",
    "icrt.line_breaking_tree.s", "icrt.sample_function_tree.s",
    "stats.self_s", "stats.excursion_time_change.s", "stats.time_in_band.s",
    "stats.jeulin_check.s", "stats.ks_two_sample.s", "stats.chi_square_gof.s",
    "verify.self_s", "verify.retry_ratio",
    "trace.overhead_ratio", "trace.coverage",
)


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("us_per_vertex"):
        return "us"
    return "ratio"


class GateError(Exception):
    """A pass whose outputs failed the correctness gate."""


def load_program():
    """Import icrt_lab from this checkout's src/, never from site-packages."""
    if not (SRC / "icrt_lab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no icrt_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import icrt_lab
    from icrt_lab import verify
    if Path(icrt_lab.__file__).resolve().parent != SRC / "icrt_lab":
        raise ImportError(f"icrt_lab imported from {icrt_lab.__file__}, not {SRC}")
    return icrt_lab, verify


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(icrt_lab, args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": _loadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "icrt_lab": icrt_lab.__version__,
        "git_commit": _git_commit(),
        "env": {k: os.environ.get(k) for k in ENV_VARS},
    }


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh ``python -m icrt_lab.cli --help`` processes, after
    one untimed run that leaves the bytecode cache written."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "icrt_lab.cli", "--help"]
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise GateError(f"icrt_lab.cli --help exited {proc.returncode}: "
                            f"{proc.stderr.decode(errors='replace').strip()}")
        if i:
            times.append(elapsed)
    return times


def run_pass(verify, workload: str, seed: int):
    """Run every suite call of `workload` once; returns (seconds, outcome)."""
    outcome = []
    t0 = time.perf_counter()
    for suite, kwargs in WORKLOADS[workload]:
        reports, ok = getattr(verify, f"suite_{suite}")(seed=seed, **kwargs)
        outcome.append((suite, ok, reports))
    return time.perf_counter() - t0, outcome


def report_json(rep) -> str:
    """One report as JSON.  ``TestReport.to_json`` cannot encode the numpy
    bools some suites store, so numpy values go through ``tolist``."""
    return json.dumps(dataclasses.asdict(rep), default=lambda o: o.tolist())


def gate(outcome) -> tuple[int, int, list[str], list[str]]:
    """Check one pass's verdicts.

    Returns (checks, retried checks, report JSON lines, problems).  A check
    retried at a fresh seed appears as two reports, the second marked
    ``retried``; it counts once.  A problem is a suite that failed, a
    report without samples, or an exact identity that misses IDENTITY_TOL."""
    checks = retried = 0
    lines, problems = [], []
    for suite, ok, reports in outcome:
        if not ok:
            problems.append(f"suite {suite} failed")
        for rep in reports:
            if rep.n_samples <= 0:
                problems.append(f"{rep.suite}: n_samples = {rep.n_samples}")
            if rep.suite.startswith("identities/") and not rep.statistic <= IDENTITY_TOL:
                problems.append(f"{rep.suite}: error {rep.statistic} > {IDENTITY_TOL}")
            if rep.extra.get("retried"):
                retried += 1
            else:
                checks += 1
            lines.append(report_json(rep))
    return checks, retried, lines, problems


class Checks:
    """Checks counted over the passes of one run.  Every pass runs at the
    same seed, so each must emit exactly the first pass's reports, traced
    or not.  Once the gate fails, every check of the run counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.retried = 0
        self.failed = 0
        self.reference = None

    def add(self, outcome) -> None:
        checks, retried, lines, problems = gate(outcome)
        self.attempted += checks
        self.retried += retried
        if self.reference is None:
            self.reference = lines
        elif lines != self.reference:
            problems.append("reports differ from the first pass at the same seed")
        if problems:
            raise GateError("; ".join(problems))

    def fail(self, exc: BaseException) -> None:
        """Fail the whole run because of `exc`."""
        self.attempted = max(1, self.attempted)
        self.failed = self.attempted
        if isinstance(exc, GateError):
            print(f"correctness gate failed: {exc}", file=sys.stderr)
        else:
            traceback.print_exception(exc, file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def summary(values) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def keep_going(start: float, done: int, minimum: int, seconds: float, last: float) -> bool:
    now = time.perf_counter() - start
    if now + last > MEASURE_CAP_S:
        return False
    return done < minimum or now < seconds


def measure_untraced(verify, args, checks: Checks, record: dict) -> dict:
    record["setup_s"] = measure_setup()
    times = []
    start = time.perf_counter()
    while keep_going(start, len(times), MIN_PASSES, args.seconds, times[-1] if times else 0.0):
        elapsed, outcome = run_pass(verify, args.workload, args.seed)
        checks.add(outcome)
        times.append(elapsed)
    record["verdict_s"] = times
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(record["setup_s"]),
        "verdict_s": statistics.median(times),
        "peak_rss_mb": rss_mb,
        "checks_passed_ratio": 1.0 - checks.failed / checks.attempted,
    }


def measure_traced(verify, args, checks: Checks, record: dict) -> dict:
    plain, traced, tables = [], [], []
    recorder = None
    start = time.perf_counter()
    while keep_going(start, len(traced), MIN_TRACED, args.seconds,
                     plain[-1] + traced[-1] if traced else 0.0):
        elapsed, outcome = run_pass(verify, args.workload, args.seed)
        checks.add(outcome)
        plain.append(elapsed)
        recorder = Recorder(run=len(traced))
        with patched(recorder):
            elapsed, outcome = run_pass(verify, args.workload, args.seed)
        checks.add(outcome)
        traced.append(elapsed)
        tables.append(layer_table(recorder.spans, elapsed))
    record.update(verdict_s=plain, traced_verdict_s=traced, layer_tables=tables)
    record["spans_file"] = str(write_spans(args, recorder.spans).relative_to(ROOT))
    retry_ratio = checks.retried / checks.attempted
    metrics = {}
    for name in PER_LAYER:
        if name == "verify.retry_ratio":
            metrics[name] = retry_ratio
        elif name == "trace.overhead_ratio":
            metrics[name] = statistics.median(traced) / statistics.median(plain) - 1.0
        else:
            metrics[name] = statistics.median(t.get(name, 0.0) for t in tables)
    return metrics


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def write_spans(args, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{stem(args)}-spans.jsonl"
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.to_dict()) + "\n")
    return path


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        icrt_lab, verify = load_program()
    except (FileNotFoundError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    record = {"env": environment(icrt_lab, args)}
    print("env " + json.dumps(record["env"]))
    checks = Checks()
    measure = measure_traced if args.trace else measure_untraced
    try:
        metrics = measure(verify, args, checks, record)
    except Exception as e:  # any failure of the program fails the run
        checks.fail(e)
        metrics = {}
    summaries = {k: summary(record[k]) for k in SERIES if k in record}
    if checks.correct:
        for name, value in metrics.items():
            unit = END_TO_END.get(name) or layer_unit(name)
            s = summaries.get(name)
            print(f"{name} = {value:.6g} {unit}" + (
                f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})" if s else ""))
    units = END_TO_END if not args.trace else {n: layer_unit(n) for n in PER_LAYER}
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    }
    record.update(result=result, summaries=summaries, checks_retried=checks.retried,
                  reports=checks.reference)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem(args)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Medians and quartiles of benchmark results over runs.

    python3 bench/summarize.py .bench_out/continuum-seed*-trace0.json
    python3 bench/summarize.py --out bench/baseline.json --label main .bench_out/*.json

Reads the records that bench/run.py writes, groups them by workload, and
for every metric of the result line gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the sample count and the
quartile spread over the median.  With ``--out`` the summary is stored
under ``--label`` in that JSON file, next to what the file already holds.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path

from run import summary


def summarize(records) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    units, seeds, envs = {}, defaultdict(set), {}
    for rec in records:
        workload = rec["env"]["workload"]
        seeds[workload].add(rec["env"]["seed"])
        envs.setdefault(workload, rec["env"])
        for name, metric in rec["result"]["metrics"].items():
            values[workload][name].append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for workload in sorted(values):
        table = {}
        for name, vals in values[workload].items():
            s = summary(vals)
            s["spread"] = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            table[name] = {**s, "unit": units[name]}
        env = {k: v for k, v in envs[workload].items() if k not in ("seed", "loadavg_start")}
        out[workload] = {"seeds": sorted(seeds[workload]), "env": env, "metrics": table}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("records", nargs="+", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="main")
    args = ap.parse_args(argv)
    records = [json.loads(p.read_text()) for p in args.records]
    records = [r for r in records if r["result"]["correct"]]
    result = summarize(records)
    for workload, entry in result.items():
        print(f"{workload}  seeds {entry['seeds']}")
        for name, s in entry["metrics"].items():
            print(f"  {name:36s} {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}  spread {s['spread']:.4f}")
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.is_file() else {}
        stored.setdefault(args.label, {}).update(result)
        args.out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare parent and change runs of the perf benchmark.

    python3 benchmarks/perf/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is a ``run.py --trace 0 --out PATH`` result; the i-th parent
and i-th change file form one pair (run them alternately, same seed
per pair).  For every workload x end-to-end metric it prints each
side's median and quartiles and a verdict:

``regression``  the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
``unresolved``  the parent's own spread (quartile distance over median)
                is wider than the bound, and not every change run beats
                every parent run;
``gain``        the change wins at least 9/10 of the pairs (ties count
                for neither) and the medians differ by more than the
                parent's quartile distance;
``ok``          none of the above: no regression within the bound.

Exits 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

import spec


def _values(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, one per file, in file order."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path) as fh:
            run = json.load(fh)
        if run["trace"]:
            raise SystemExit(f"{path}: a traced run; compare --trace 0 runs")
        for workload, result in run["workloads"].items():
            if not result["correct"]:
                raise SystemExit(f"{path}: {workload} failed its checks")
            for name, metric in result["metrics"].items():
                table.setdefault(workload, {}).setdefault(name, []) \
                    .append(metric["value"])
    return table


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], bound: float,
            lower_is_better: bool) -> Dict:
    sign = 1.0 if lower_is_better else -1.0
    p1, pmed, p3 = _quartiles(parent)
    c1, cmed, c3 = _quartiles(change)
    worse_by = sign * (cmed - pmed) / pmed
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    spread = (p3 - p1) / pmed
    every_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if worse_by > bound:
        status = "regression"
    elif wins >= 0.9 * len(pairs) and abs(cmed - pmed) > p3 - p1 \
            and worse_by < 0:
        status = "gain"
    elif spread > bound and not every_better:
        status = "unresolved"
    else:
        status = "ok"
    return {"parent": (p1, pmed, p3), "change": (c1, cmed, c3),
            "worse_by": worse_by, "spread": spread, "wins": wins,
            "pairs": len(pairs), "status": status}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("give one change file per parent file")
    parent, change = _values(args.parent), _values(args.change)
    print(f"{'workload':<18} {'metric':<12} {'parent q1/med/q3':<28} "
          f"{'change q1/med/q3':<28} {'worse':>7} {'spread':>7} "
          f"{'bound':>6} {'wins':>6}  verdict")
    regressions = 0
    for metric in spec.load_benchmark()["end_to_end"]:
        name = metric["name"]
        for workload in parent:
            row = verdict(parent[workload][name], change[workload][name],
                          metric["bound"], metric["better"] == "lower")
            regressions += row["status"] == "regression"
            print(f"{workload:<18} {name:<12} "
                  f"{'/'.join(f'{v:.4g}' for v in row['parent']):<28} "
                  f"{'/'.join(f'{v:.4g}' for v in row['change']):<28} "
                  f"{row['worse_by']:>+7.1%} {row['spread']:>7.1%} "
                  f"{metric['bound']:>6.0%} "
                  f"{row['wins']:>2}/{row['pairs']:<3}  {row['status']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

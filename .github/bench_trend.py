#!/usr/bin/env python3
"""Print one metric's trajectory across the committed BENCH_<pr>.json files.

    python3 .github/bench_trend.py METRIC [WORKLOAD]

Each BENCH_<pr>.json at the repo root holds one commit's benchmark
results: {"pr", "commit", "run", "trace", "pairs"} and, from BENCH_39
on, "parent_trace", where "run", "trace" and "parent_trace" are the result
sets the harness writes with `run --out` and `trace --out`. This prints
one line per file, sorted by PR number: the PR, the commit, and the
metric's value in WORKLOAD, or in every workload that reports it when
WORKLOAD is left out. The untraced run is read first; a
metric only the traced run reports (per-layer spans, per-cell ledgers)
comes from the trace. A file that lacks the metric prints "-".

Beside each value come two more columns: the ratio of the file's "trace"
value to its "parent_trace" value (the same traced run of the parent
commit, so each ratio compares like with like on one host), and the
running product of those ratios down the files. A file without
"parent_trace" prints "-" for its ratio and leaves the product as it was.
"""

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def kind_value(bench, kind, workload, metric):
    metrics = bench.get(kind, {}).get("workloads", {}).get(workload, {}).get("metrics", {})
    return metrics.get(metric, {}).get("value")


def metric_value(bench, workload, metric):
    for kind in ("run", "trace"):
        value = kind_value(bench, kind, workload, metric)
        if value is not None:
            return value
    return None


def parent_ratio(bench, workload, metric):
    change = kind_value(bench, "trace", workload, metric)
    parent = kind_value(bench, "parent_trace", workload, metric)
    if change is None or not parent:
        return None
    return change / parent


def workloads(bench):
    names = []
    for kind in ("run", "trace"):
        for name in bench.get(kind, {}).get("workloads", {}):
            if name not in names:
                names.append(name)
    return names


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def fmt_ratio(value):
    return "-" if value is None else f"{value:.3f}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metric = argv[1]
    only = argv[2] if len(argv) == 3 else None
    products = {}

    def columns(bench, workload):
        value = metric_value(bench, workload, metric)
        ratio = parent_ratio(bench, workload, metric)
        if ratio is not None:
            products[workload] = products.get(workload, 1.0) * ratio
        return f"{fmt(value)} {fmt_ratio(ratio)} {fmt_ratio(products.get(workload))}"

    files = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            files.append((int(match.group(1)), path))
    for pr, path in sorted(files):
        bench = json.loads(path.read_text())
        commit = str(bench.get("commit", "?"))[:10]
        if only is not None:
            values = columns(bench, only)
        else:
            found = [w for w in workloads(bench) if metric_value(bench, w, metric) is not None]
            values = " ".join(f"{w}={columns(bench, w)}" for w in found) or "-"
        print(f"{pr} {commit} {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

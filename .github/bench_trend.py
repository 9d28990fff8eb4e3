#!/usr/bin/env python3
"""Print one metric's trajectory across the committed BENCH_<pr>.json files.

    python3 .github/bench_trend.py METRIC [WORKLOAD]

Each BENCH_<pr>.json at the repo root holds one commit's benchmark
results: {"pr", "commit", "run", "trace", "pairs"}, where "run" and
"trace" are the result sets the harness writes with `run --out` and
`trace --out`. This prints one line per file, sorted by PR number: the PR,
the commit, and the metric's value in WORKLOAD, or in every workload that
reports it when WORKLOAD is left out. The untraced run is read first; a
metric only the traced run reports (per-layer spans, per-cell ledgers)
comes from the trace. A file that lacks the metric prints "-".
"""

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def metric_value(bench, workload, metric):
    for kind in ("run", "trace"):
        metrics = bench.get(kind, {}).get("workloads", {}).get(workload, {}).get("metrics", {})
        if metric in metrics:
            return metrics[metric]["value"]
    return None


def workloads(bench):
    names = []
    for kind in ("run", "trace"):
        for name in bench.get(kind, {}).get("workloads", {}):
            if name not in names:
                names.append(name)
    return names


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metric = argv[1]
    only = argv[2] if len(argv) == 3 else None
    files = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            files.append((int(match.group(1)), path))
    for pr, path in sorted(files):
        bench = json.loads(path.read_text())
        commit = str(bench.get("commit", "?"))[:10]
        if only is not None:
            values = fmt(metric_value(bench, only, metric))
        else:
            found = [(w, metric_value(bench, w, metric)) for w in workloads(bench)]
            values = " ".join(f"{w}={fmt(v)}" for w, v in found if v is not None) or "-"
        print(f"{pr} {commit} {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

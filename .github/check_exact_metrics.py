"""Compare the exact metrics of a benchmark run with the committed ones.

Model cycles and code bytes per query are deterministic, so a value
that moves by more than float rounding means the generated code
changed. Run after the benchmark's `run --quick`:

    python3 .github/check_exact_metrics.py

It reads benchmark/out/result.json and .github/exact_metrics.json and
exits non-zero when any pinned value differs by more than 1e-6
relative. A change that moves them on purpose updates the JSON file.
"""

import json
import sys

pinned = json.load(open(".github/exact_metrics.json"))
measured = json.load(open("benchmark/out/result.json"))["workloads"]
moved = 0
for workload, metrics in pinned.items():
    for name, want in metrics.items():
        got = measured[workload]["metrics"][name]["value"]
        ok = abs(got - want) <= 1e-6 * abs(want)
        moved += not ok
        print(f"{workload} {name}: {got} (pinned {want}){'' if ok else '  MOVED'}")
sys.exit(1 if moved else 0)

"""Compare the exact metrics of a benchmark run with the committed ones.

Model cycles and code bytes per query are deterministic, so a value
that moves by more than float rounding means the generated code
changed. Run after the benchmark's `run --quick`:

    python3 .github/check_exact_metrics.py

It reads benchmark/out/result.json and .github/exact_metrics.json (each
workload's two end-to-end exact metrics). After `trace --quick`:

    python3 .github/check_exact_metrics.py --trace

reads benchmark/out/trace.json and .github/exact_cells.json instead:
the per-cell ledger rows `<cell>.model_cycles_per_query` and
`<cell>.code_bytes_per_query` of `cold_compile` and `hot_exec`, so a
change to one back-end shows as that back-end's rows and no others.

Either form exits non-zero when any pinned value differs by more than
1e-6 relative. A change that moves them on purpose rewrites the pinned
file from the new run by adding `--update`.
"""

import json
import sys

trace = "--trace" in sys.argv[1:]
if trace:
    pinned_path, measured_path = ".github/exact_cells.json", "benchmark/out/trace.json"
else:
    pinned_path, measured_path = ".github/exact_metrics.json", "benchmark/out/result.json"
pinned = json.load(open(pinned_path))
measured = json.load(open(measured_path))["workloads"]

if "--update" in sys.argv[1:]:
    for workload, metrics in pinned.items():
        for name in metrics:
            metrics[name] = measured[workload]["metrics"][name]["value"]
    with open(pinned_path, "w") as out:
        json.dump(pinned, out, indent=2)
        out.write("\n")
    print(f"rewrote {pinned_path} from {measured_path}")
    sys.exit(0)

moved = 0
for workload, metrics in pinned.items():
    for name, want in metrics.items():
        got = measured[workload]["metrics"][name]["value"]
        ok = abs(got - want) <= 1e-6 * abs(want)
        moved += not ok
        print(f"{workload} {name}: {got} (pinned {want}){'' if ok else '  MOVED'}")
sys.exit(1 if moved else 0)

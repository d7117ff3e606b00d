"""Smoke check of the benchmark at its smallest sizes.

Run from the root of a source tree:

    python3 perfbench/smoke.py

For every workload it runs ``run.py --smoke`` twice untraced and once
traced, then checks that each run prints every metric ``BENCHMARK.json``
names, with its unit, that no operation failed, and that the work counters
repeat exactly across the three runs.  Exits 1 on the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(label, result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"FAIL {label}: {result['failed']} of {result['attempted']} operations failed")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    if printed != expected:
        missing = sorted(set(expected.items()) ^ set(printed.items()))
        sys.exit(f"FAIL {label}: metrics differ from BENCHMARK.json in {missing}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        name = wl["name"]
        counters = []
        for trace, declared in ((0, bench["end_to_end"]), (0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            report, result = run(name, trace)
            check_metrics(f"{name} trace={trace}", result, declared)
            if trace == 0:
                zero = [k for k, m in result["metrics"].items() if m["value"] == 0]
                if zero:
                    sys.exit(f"FAIL {name}: end-to-end metrics read 0: {zero}")
            counters.append(report["counts"])
        if any(c != counters[0] for c in counters[1:]):
            sys.exit(f"FAIL {name}: work counters differ across runs: {counters}")
        print(f"PASS {name}: every metric printed with its unit; work counters "
              f"repeat exactly over 3 runs ({report['work_counters']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

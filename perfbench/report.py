"""Run every workload once and print every metric by name with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--trace] [--scale toy]

Prints one ``workload  metric  value  unit`` row per metric, then
``ops_failed_share`` (failed / attempted operations) per workload and
overall.  With --trace it also makes the traced run of each workload
and prints its per-layer metrics and the layer with the largest self
time.  Exits 1 if any run failed or any output check did not pass.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args()

    ok = True
    all_attempted = all_failed = 0
    for name in workloads.NAMES:
        attempted = failed = 0
        for trace in (0, 1) if args.trace else (0,):
            run = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale],
                capture_output=True, text=True,
            )
            if run.returncode != 0:
                print(f"{name}\trun failed with exit code {run.returncode}\n{run.stderr}", file=sys.stderr)
                ok = False
                continue
            doc = json.loads(run.stdout.strip().splitlines()[-1])
            for metric, entry in sorted(doc["metrics"].items()):
                print(f"{name}\t{metric}\t{entry['value']:.6g}\t{entry['unit']}")
            if trace:
                record = json.loads((HERE.parent / ".perfbench_work" / name / "run.json").read_text())
                print(f"{name}\tlargest self time: {record['dominant_layer']}")
            attempted += doc["attempted"]
            failed += doc["failed"]
            ok = ok and doc["correct"]
        if attempted:
            print(f"{name}\tops_failed_share\t{failed / attempted:.6g}\tratio")
        all_attempted += attempted
        all_failed += failed
    if all_attempted:
        print(f"all\tops_failed_share\t{all_failed / all_attempted:.6g}\tratio")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

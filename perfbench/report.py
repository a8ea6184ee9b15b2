"""Run every workload untraced and traced, each in its own process, and
print every metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a citerec checkout.  Exits with 1 when a run fails a
correctness check or ends without a result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    status = 0
    for wl in bench["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", wl["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{wl['name']} trace={trace}: no result "
                      f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
                status = 1
                continue
            print(f"{wl['name']} trace={trace}: correct={result['correct']} "
                  f"failed={result['failed']} of {result['attempted']}")
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
            if not result["correct"]:
                print(proc.stderr[-2000:])
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed 0] [--seconds 5]

Each run is its own ``run.py`` process.  Rows are workload, metric,
value and unit; after each workload come its check count, error rate,
output digest status and tracing overhead (untraced over traced
triplets/s and sessions/s).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    info = json.loads(lines[-2].split("\t", 1)[1])
    return json.loads(lines[-1]), info


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    for name in WORKLOADS:
        plain, plain_info = bench(name, args.seed, args.seconds, 0)
        traced, traced_info = bench(name, args.seed, args.seconds, 1)
        for result in (plain, traced):
            for metric, m in result["metrics"].items():
                print(f"{name}\t{metric}\t{m['value']:.6g}\t{m['unit']}")
        for label, result, info in (("untraced", plain, plain_info), ("traced", traced, traced_info)):
            digest = "match" if info["digest"] == info["digest_expected"] else "MISMATCH"
            print(f"{name}\t{label}\tcorrect={result['correct']} checks={result['attempted']} "
                  f"error_rate={info['error_rate']:.6g} digest={digest}")
        for rate in ("triplets_per_s", "sessions_per_s"):
            overhead = plain["metrics"][rate]["value"] / traced["metrics"][f"trace.{rate}"]["value"]
            print(f"{name}\ttracing overhead ({rate})\t{overhead:.3f}\tuntraced/traced")


if __name__ == "__main__":
    main()

"""Run every workload once and print its end-to-end metrics as one table.

    python3 perfbench/report.py --seed 1 --seconds 25

Each workload is a separate ``run.py`` run, one after another.  The table
has every end-to-end metric by name and unit, plus failed_frac (failed items
over attempted items).  Exits 1 if any run fails or reports wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WHY

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()

    ok = True
    rows = []
    for workload in WHY:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        metrics["failed_frac"] = (result["failed"] / result["attempted"], "ratio")
        rows.append((workload, result["correct"], metrics))

    for workload, correct, metrics in rows:
        print(f"{workload}  correct={correct}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s} {value:14.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

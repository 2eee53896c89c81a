"""Benchmark of the coprimegraph pipeline: spec -> lattice -> P(G) -> invariants.

    python3 perfbench/run.py --workload catalog-verify --seed 1 --seconds 25 --trace 0

Each pass is a fresh interpreter (worker.py) that runs the workload's fixed
item list once through ``coprimegraph.cli.main``; passes run one after
another, so there is one client and nothing runs in parallel.  Passes repeat
until about ``--seconds`` have gone by and the run reports medians over them,
with times rescaled to a reference machine speed (see worker.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
setup_s, wall_s, item_p50_ms, item_p80_ms and peak_rss_mb.  With
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of tracing.py, plus trace.overhead_s (traced minus untraced
wall_s).  A record of every run (provenance, item list, every pass) is written
under .perfbench/runs/.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import UNITS as LAYER_UNITS
from worker import REFERENCE_S
from workloads import ROOT, WHY, make_items, write_inputs

OUT = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_PASSES = 2
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


class RunError(Exception):
    """A pass produced no result; the run reports no metrics."""


def commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance(args) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "networkx": version("networkx"),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.passes: list[dict] = []
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        OUT.mkdir(exist_ok=True)
        self.stem = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.stem.parent.mkdir(exist_ok=True)
        # Input files are written once per run, outside any timed interval:
        # creating a thousand small files takes 0.5 to 1 s here, and that
        # time belongs to the file system, not to the package.
        self.workdir = OUT / "work" / str(os.getpid())
        self.workdir.mkdir(parents=True)
        write_inputs(make_items(args.workload, args.seed, self.workdir))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, traced: bool = False, setup_only: bool = False) -> None:
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--workdir", str(self.workdir)]
        if traced:
            cmd += ["--trace", f"{self.stem}-pass{len(self.passes)}-spans.jsonl"]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunError(f"a pass of {self.args.workload} ran past {RUN_LIMIT_S:.0f} s") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        # the worker's first kernel timing ran inside this interval
        raw_setup = result["ready"] - spawned - result["boot_kernel_s"]
        self.raw_setups.append(raw_setup)
        self.setups.append(raw_setup * result["setup_scale"])
        if not setup_only:
            result["traced"] = traced
            self.passes.append(result)

    def keep_going(self, durations: list[float], minimum: int) -> bool:
        """Start another pass if there are fewer than ``minimum`` or it should
        end by about --seconds."""
        if len(durations) < minimum:
            return True
        return self.elapsed() + 0.5 * statistics.median(durations) < self.args.seconds

    def measure(self) -> None:
        if not self.args.trace:
            durations = []
            while self.keep_going(durations, MIN_PASSES):
                t0 = time.monotonic()
                self.spawn()
                durations.append(time.monotonic() - t0)
            while len(self.setups) < SETUP_SAMPLES:
                self.spawn(setup_only=True)
            return
        durations = {False: [], True: []}
        traced = False
        while self.keep_going(durations[traced], 1):
            t0 = time.monotonic()
            self.spawn(traced=traced)
            durations[traced].append(time.monotonic() - t0)
            traced = not traced

    def end_to_end(self) -> dict:
        """Medians over the run's untraced passes, at reference speed.

        The item quantiles are taken over each item's median latency across
        the passes, so that on a short item list one slow pass of one item
        does not move them.
        """
        plain = [p for p in self.passes if not p["traced"]]
        per_item = [statistics.median(col) for col in zip(*(p["latencies_ms"] for p in plain))]
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "wall_s": (statistics.median(_wall(p) for p in plain), "s"),
            "item_p50_ms": (statistics.median(per_item), "ms"),
            "item_p80_ms": (statistics.quantiles(per_item, n=5, method="inclusive")[3], "ms"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
        }

    def per_layer(self) -> dict:
        """Medians over the run's traced passes, at reference speed."""
        plain = [p for p in self.passes if not p["traced"]]
        traced = [p for p in self.passes if p["traced"]]
        out = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            out[name] = None if None in values else statistics.median(values)
        out["trace.wall_s"] = statistics.median(_wall(p) for p in traced)
        out["trace.unattributed_s"] = statistics.median(
            _wall(p) - p["layers"]["trace.covered_s"] for p in traced
        )
        out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(_wall(p) for p in plain)
        return {name: (out[name], unit) for name, unit in LAYER_UNITS.items()}

    def raw(self) -> dict:
        """The same medians in plain wall-clock time, for the run record."""
        plain = [p for p in self.passes if not p["traced"]]
        return {
            "setup_s": statistics.median(self.raw_setups),
            "wall_s": statistics.median(_wall(p, "raw_latencies_ms") for p in plain),
            "kernel_ms": 1000 * statistics.median(k for p in self.passes for k in p["kernel_s"]),
        }


def _wall(result: dict, key: str = "latencies_ms") -> float:
    """One pass over the item list: the sum of its item latencies, in s."""
    return sum(result[key]) / 1000.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "coprimegraph" / "__init__.py").is_file():
        sys.stderr.write(f"error: no coprimegraph package under {ROOT / 'src'}\n")
        return 2
    runner = Runner(args)
    try:
        runner.measure()
    except RunError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    attempted = sum(len(p["latencies_ms"]) for p in runner.passes)
    failed = sum(len(p["failures"]) for p in runner.passes)
    probes = [p["probe_ok"] for p in runner.passes]
    correct = failed == 0 and all(probes)
    metrics = runner.per_layer() if args.trace else runner.end_to_end()
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    raw = runner.raw()

    record = {
        "provenance": provenance(args),
        "items": runner.passes[0]["items"],
        "passes": [
            {k: v for k, v in p.items() if k != "items"} for p in runner.passes
        ],
        "setups_s": runner.setups,
        "raw_setups_s": runner.raw_setups,
        "raw_wall_clock": raw,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "checker_probes_rejected": probes,
        "metrics": metrics_json,
    }
    Path(f"{runner.stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for p in runner.passes:
        for name, reason in p["failures"][:5]:
            print(f"FAILED {name}: {reason}")
    print(
        f"{args.workload} seed={args.seed} passes={len(runner.passes)} "
        f"items/pass={len(runner.passes[0]['latencies_ms'])} "
        f"failed_frac={failed / attempted:g} ({failed}/{attempted}) "
        f"record={runner.stem.relative_to(ROOT)}.json"
    )
    print(
        f"  wall clock: setup {raw['setup_s']:.4f} s, wall {raw['wall_s']:.4f} s, "
        f"speed kernel {raw['kernel_ms']:.3f} ms (reference {REFERENCE_S * 1000:g} ms)"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value!s:>22} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics_json}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

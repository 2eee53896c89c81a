"""One pass of a workload in a fresh interpreter; run.py starts one per pass.

The pass calls ``coprimegraph.cli.main(argv)`` once per item, in a closed
loop with one client, and prints one JSON line: when set-up finished, the
per-item latencies (raw and at reference speed), output failures, peak RSS
and, when traced, the per-layer metrics.  Outputs are checked only after the
clock stops.

    python3 perfbench/worker.py --workload cyclic-exact --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import ROOT, make_items

SRC = ROOT / "src"

# The shared hosts this runs on change speed by up to 2x, in phases of 10-30 s
# that span whole runs.  A fixed pure-Python kernel, timed between items,
# slows down with them, so each latency is also reported rescaled to the
# speed at which the kernel takes REFERENCE_S.  Changing the kernel or
# REFERENCE_S changes every figure the benchmark reports.
REFERENCE_S = 0.005
CALIBRATE_EVERY_S = 0.2


def kernel_seconds() -> float:
    start = time.perf_counter()
    seen = set()
    acc: dict[int, int] = {}
    for i in range(20000):
        key = i & 1023
        acc[key] = acc.get(key, 0) + i
        seen.add(i * 7 & 4095)
    return time.perf_counter() - start


def import_cli():
    """Import the checkout's own package, never an installed copy."""
    sys.path.insert(0, str(SRC))
    from coprimegraph import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not the package under {SRC}")
    return cli


def run_item(cli, argv: list[str]) -> tuple[object, str]:
    """Exit code (or the exception that escaped) and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed item, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True, help="the run's input files")
    parser.add_argument("--trace", type=Path, default=None, help="write spans here and trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    boot_kernel = kernel_seconds()
    cli = import_cli()
    items = make_items(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    setup = {
        "ready": ready,
        "boot_kernel_s": boot_kernel,
        "setup_scale": REFERENCE_S * 2 / (boot_kernel + kernel_seconds()),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    latencies = []
    marks = [(0, kernel_seconds())]
    since = 0.0
    for i, item in enumerate(items):
        if since >= CALIBRATE_EVERY_S:
            marks.append((i, kernel_seconds()))
            since = 0.0
        t0 = time.perf_counter()
        root = tracer.root(i) if tracer else None
        rc, text = run_item(cli, item.argv)
        if tracer:
            tracer.end_root(root)
        latency = time.perf_counter() - t0
        latencies.append(latency * 1000.0)
        results.append((rc, text))
        since += latency
    marks.append((len(items), kernel_seconds()))
    # an item's speed is the mean of the kernel timings just before and after it
    scales = []
    for (first, before), (end, after) in zip(marks, marks[1:]):
        scales += [REFERENCE_S * 2 / (before + after)] * (end - first)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import check, corrupt

    failures = []
    probe_ok = None
    for item, (rc, text) in zip(items, results):
        reason = check(args.workload, item, rc, text)
        if reason is not None:
            failures.append([item.name, reason])
        elif probe_ok is None:
            # the checker must reject a corrupted copy, or the gate is vacuous
            probe_ok = check(args.workload, item, rc, corrupt(args.workload, text)) is not None
    output_bytes = sum(len(text.encode()) for _, text in results)

    report = {
        **setup,
        "raw_latencies_ms": latencies,
        "latencies_ms": [ms * scale for ms, scale in zip(latencies, scales)],
        "kernel_s": [k for _, k in marks],
        "failures": failures,
        "probe_ok": probe_ok,
        "rss_mb": rss_mb,
        "items": [{"name": item.name, "argv": item.argv} for item in items],
    }
    if tracer:
        report["layers"] = tracer.metrics(output_bytes, scales)
        tracer.dump(args.trace, args.workload)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

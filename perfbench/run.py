"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  Each run starts the workload in its own child process
with BLAS pinned to one thread, reads its peak RSS from that child, and
prints the metrics by name and unit.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced ops and reports the per-layer metrics.  Full records, including the
numerics fingerprint, the environment and (traced) the spans as JSONL, go
to ``perfbench/out/``.

Exit codes: 0 with a result, 2 when the checkout has no library to
benchmark, 3 when the workload cannot be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("thermal_n9", "mpo_route_n4", "verify_fast")
PROBES_PER_GAP = 3    # set-up-only children timed before each op and at the end
MAX_SETUPS = 15       # set-up samples per run, the measuring child's included
RUN_LIMIT_S = 170.0   # the whole run ends within 180 s
PROBE_MARGIN_S = 5.0  # a set-up probe takes about 0.4 s
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10      # a tail percentile needs this many samples above it
COUNTERS = ("merge.order", "expsum.series_terms", "mpo.ham_bond")


class SetupError(RuntimeError):
    pass


class Child:
    """One child process; its JSON-line events are read as they arrive."""

    def __init__(self, args, extra, deadline, stdin=subprocess.DEVNULL):
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed), *extra]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE,
                                     text=True, env={**os.environ, **PINS})
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                     self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        self.ready_s = None

    def events(self):
        for line in self.proc.stdout:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if event.get("event") == "ready":
                self.ready_s = time.perf_counter() - self.t0
            yield event

    def go(self) -> None:
        """Let an idle child start its next op."""
        try:
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()
        except OSError:  # the child is gone; its exit code tells why
            pass

    def close(self) -> int:
        if self.proc.stdin:
            with contextlib.suppress(OSError):
                self.proc.stdin.close()
        self.proc.stdout.close()
        code = self.proc.wait()
        self.timer.cancel()
        return code


def probe_setups(args, deadline, setup: list[float]) -> None:
    """Time up to PROBES_PER_GAP set-up-only children into ``setup``.

    Probes run between ops, while the measuring child waits, so the set-up
    samples spread over the whole run instead of one burst at its start.
    None start within PROBE_MARGIN_S of the deadline, so a run cut short by
    its time limit still reports the ops it made.
    """
    for _ in range(min(PROBES_PER_GAP, MAX_SETUPS - len(setup))):
        if deadline - time.monotonic() < PROBE_MARGIN_S:
            return
        child = Child(args, ["--setup-only"], deadline)
        for _ in child.events():
            pass
        if child.close() != 0 or child.ready_s is None:
            raise SetupError("set-up probe failed")
        setup.append(child.ready_s)


def tail(times: list[float]) -> tuple[str, float]:
    """Highest percentile with TAIL_BEYOND samples above it, else the max."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return "max", ordered[-1]
    return f"p{100.0 * k / len(ordered):.0f}", ordered[k - 1]


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in COUNTERS:
        return "count"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--out", str(OUT / f"{stem}.spans.jsonl")]
    child = Child(args, extra, deadline, stdin=subprocess.PIPE)
    ops, end, setup = [], {}, []
    try:
        for event in child.events():
            if event["event"] == "ready":
                setup.append(child.ready_s)
            elif event["event"] == "idle":
                probe_setups(args, deadline, setup)
                child.go()
            elif event["event"] == "op":
                ops.append(event)
                if event["problems"]:
                    print(f"op {event['i']} failed: {'; '.join(event['problems'])}")
            elif event["event"] == "end":
                end = event
    except BaseException:  # a failed probe or an interrupt: stop the child too
        child.proc.kill()
        child.close()
        raise
    code = child.close()
    if child.ready_s is None:
        raise SetupError(f"workload set-up failed (exit {code})")
    probe_setups(args, deadline, setup)

    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    if code != 0 or not end:  # killed, timed out or crashed mid-op
        print(f"child ended with code {code} after {attempted} ops")
        attempted += 1
        failed += 1

    untraced = [op["seconds"] for op in ops if not op["traced"]]
    traced = [op["seconds"] for op in ops if op["traced"]]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": attempted, "failed": failed,
              "ops": ops, "setup_samples_s": setup, "child_exit": code,
              "fingerprint": end.get("fingerprint"), "env": end.get("env")}

    report = {}  # name -> (value, unit, note)
    if untraced:
        label, value = tail(untraced)
        report["op_s"] = (statistics.median(untraced), "s",
                          f"median of {len(untraced)} ops")
        report["op_s_tail"] = (value, "s", f"{label} of {len(untraced)} ops")
    report["setup_s"] = (statistics.median(setup), "s",
                         f"median of {len(setup)} set-ups")
    report["peak_rss_mb"] = (rss_mb, "MB", "child ru_maxrss")
    report["fail_frac"] = (failed / attempted, "ratio",
                           f"{failed} of {attempted} ops")
    fp = end.get("fingerprint") or {}
    if "out_max_bond" in fp:
        report["out_max_bond"] = (fp["out_max_bond"], "count", "returned MPO")

    layers = {}
    if args.trace:
        layers = {k: (v, layer_unit(k), "") for k, v in end.get("layers", {}).items()}
        if traced and untraced:
            layers["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(untraced) - 1.0,
                "ratio", f"{len(traced)} traced vs {len(untraced)} untraced ops")
        record["layers"] = {k: v for k, (v, _, _) in layers.items()}
    record["end_to_end"] = {k: v for k, (v, _, _) in report.items()}

    for name, (value, unit, note) in {**report, **layers}.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} {note}")
    if fp:
        print("fingerprint " + json.dumps(fp, sort_keys=True))
    if end.get("env"):
        print("environment " + json.dumps(end["env"], sort_keys=True))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=repr))

    shown = layers if args.trace else {
        k: report[k] for k in ("op_s", "setup_s", "peak_rss_mb") if k in report}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in shown.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gibbsmpo" / "__init__.py").is_file():
        print(f"no gibbsmpo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

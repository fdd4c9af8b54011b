"""One workload run in its own process; reports to ``run.py`` as JSON lines.

Events on stdout, one JSON object per line:
  {"event": "ready"}                         set-up done (import + inputs)
  {"event": "idle"}                          waiting for a line on stdin
  {"event": "op", "i", "traced", "seconds", "cpu_seconds", "problems"}
  {"event": "end", "env", "fingerprint", "layers", "spans"}

With ``--setup-only`` the process exits right after "ready".  The op loop
stops once at least ``--seconds`` of op time has accumulated and enough
ops ran, or earlier when another op would end past ``WALL_LIMIT_S``.
Before each op the child announces "idle" and waits for a line on stdin,
so that ``run.py`` can time set-ups in between while this process sits
still; end of input stops the loop.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = 2          # untraced ops per run, at least
WALL_LIMIT_S = 140.0  # no op starts that would end past this (run.py allows 170)
SETUP_FAILED = 3


def emit(**event) -> None:
    print(json.dumps(event, default=repr), flush=True)


def load_library():
    """Import gibbsmpo from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gibbsmpo

    if not Path(gibbsmpo.__file__).resolve().is_relative_to(src):
        raise ImportError(f"gibbsmpo resolved to {gibbsmpo.__file__}, "
                          f"outside {src}")
    return gibbsmpo


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
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
    return "unavailable"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    try:
        load_library()
        from workloads import WORKLOADS
        from spans import Tracer, summarize

        workload = WORKLOADS[args.workload](args.seed)
    except Exception:
        traceback.print_exc()
        return SETUP_FAILED
    emit(event="ready")
    if args.setup_only:
        return 0

    workload.prepare()
    tracer = Tracer(args.workload) if args.trace else None
    times = {False: [], True: []}
    fingerprint = None
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        done = sum(times[False]) + sum(times[True])
        enough = (len(times[False]) >= 1 and len(times[True]) >= 1
                  if tracer else len(times[False]) >= MIN_OPS)
        if enough and done >= args.seconds:
            break
        last = max(times[False] + times[True], default=0.0)
        if i and time.perf_counter() - t_start + last > WALL_LIMIT_S:
            break
        emit(event="idle")
        if not sys.stdin.readline():
            break
        problems: list[str] = []
        result = None
        with tracer.installed() if traced else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with tracer.operation(i) if traced else contextlib.nullcontext():
                    result = workload.op()
            except Exception as exc:
                problems.append(f"raised {exc!r}")
            dt = time.perf_counter() - t0
            cpu = time.process_time() - c0
        if result is not None:
            problems += workload.check(result)
            if fingerprint is None:
                fingerprint = workload.fingerprint(result)
        times[traced].append(dt)
        emit(event="op", i=i, traced=traced, seconds=dt, cpu_seconds=cpu,
             problems=problems)
        i += 1

    end = {"event": "end", "env": environment(), "fingerprint": fingerprint}
    if tracer is not None:
        import gibbsmpo.verify

        end["layers"] = summarize(tracer.spans, list(gibbsmpo.verify.ALL_CHECKS))
        if args.out:
            tracer.write_jsonl(args.out)
            end["spans"] = len(tracer.spans)
    emit(**end)
    return 0


if __name__ == "__main__":
    sys.exit(main())

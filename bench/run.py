"""Session benchmark for stseq: one user session per workload, end to end.

    python3 bench/run.py --workload tau-session --seed 7 --seconds 40 --trace 0

Each session runs in a fresh interpreter (``bench/session.py``) with an
empty cache directory under ``.bench_work/`` in this checkout, which is
removed afterwards.  ``--trace 0`` replays sessions back to back while the
next one still fits in ``--seconds`` (at least one) and reports the
end-to-end metrics as medians over them.  ``--trace 1`` replays one
untraced and one traced session and reports the per-layer metrics of the
traced one; ``trace.overhead_s`` is traced minus untraced session time.

A call fails if it raises, exits non-zero, or its output digest differs
from the one pinned in ``bench/pins.json`` for this workload and seed.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit and the correctness verdict.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from session import LIMITS, session_calls, session_key
from tracer import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up probes at the start and again at the end of a run, so the median
# of setup_s samples both ends of it
SETUP_PROBES = 4
# a run must end within 180 s; no child is started past this point
RUN_DEADLINE_S = 165.0


class BenchError(Exception):
    """The program cannot be set up, so no result can be reported."""


def pinned_digests(workload: str, seed: int) -> list[str] | None:
    pins = json.loads((HERE / "pins.json").read_text())
    return pins[workload].get(session_key(workload, seed))


def call_failed(call: dict, pinned: str | None) -> bool:
    return call["exit"] != 0 or call["error"] is not None or (
        pinned is not None and call["digest"] != pinned)


def spawn(run_dir: Path, tag: str, args: list[str], deadline: float) -> tuple[dict | None, float]:
    """Run session.py in a fresh interpreter; (result or None, setup seconds)."""
    work = run_dir / tag
    cmd = [sys.executable, str(HERE / "session.py"), "--work", str(work), *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(deadline - t0, 1.0))
        status = f"exit {proc.returncode}\n{proc.stderr}"
        out = work / "result.json"
        result = json.loads(out.read_text()) if proc.returncode == 0 and out.is_file() else None
    except subprocess.TimeoutExpired:
        status, result = "timed out", None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        print(f"{tag}: {status}", file=sys.stderr)
        return None, float("nan")
    return result, result["ready"] - t0


def session_times(result: dict) -> dict[str, float]:
    walls = [c["wall_s"] for c in result["calls"]]
    return {"session_s": sum(walls), "first_report_s": walls[0], "warm_s": sum(walls[1:])}


def measure(args, run_dir: Path) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setups = []

    def probe(tag):
        for i in range(SETUP_PROBES):
            result, setup = spawn(run_dir, f"{tag}{i}", ["--setup-only"], deadline)
            if result is None:
                raise BenchError("stseq could not be imported from this checkout's src/")
            setups.append(setup)

    probe("probe")

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    n_calls = len(session_calls(args.workload, args.seed))
    pinned = pinned_digests(args.workload, args.seed)
    attempted = failed = 0
    sessions = []

    def one(tag, extra=()):
        nonlocal attempted, failed
        t0 = time.monotonic()
        result, setup = spawn(run_dir, tag, [*base, *extra], deadline)
        if result is None:  # the session process died: all its calls count as failed
            attempted += n_calls
            failed += n_calls
            return None, time.monotonic() - t0
        setups.append(setup)
        attempted += len(result["calls"])
        for i, call in enumerate(result["calls"]):
            if call_failed(call, pinned[i] if pinned else None):
                failed += 1
                print(f"call failed: {' '.join(call['argv'])}: exit {call['exit']} "
                      f"digest {call['digest']}\n{call['error'] or ''}", file=sys.stderr)
        sessions.append(result)
        return result, time.monotonic() - t0

    if args.trace:
        plain, _ = one("plain")
        traced, _ = one("traced", ["--trace"])
        metrics = {}
        if plain is not None and traced is not None:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
            traced_s = session_times(traced)["session_s"]
            metrics["trace.session_s"] = {"value": traced_s, "unit": "s"}
            metrics["cli.warm_s"] = {"value": session_times(traced)["warm_s"], "unit": "s"}
            metrics["trace.overhead_s"] = {
                "value": traced_s - session_times(plain)["session_s"], "unit": "s"}
            metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    else:
        longest = 0.0
        while True:
            _, took = one(f"s{len(sessions)}")
            longest = max(longest, took)
            now = time.monotonic()
            if now - start + longest > args.seconds or now + longest > deadline:
                break
        probe("endprobe")
        times = [session_times(r) for r in sessions]
        metrics = {}
        if times:
            for key in ("session_s", "first_report_s"):
                metrics[key] = {"value": statistics.median(t[key] for t in times), "unit": "s"}
            metrics["peak_rss_mib"] = {
                "value": statistics.median(r["peak_kib"] for r in sessions) / 1024.0,
                "unit": "MiB"}
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LIMITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception: subprocess.run then kills the session
    # it is waiting on, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "stseq" / "cli.py").is_file():
        print(f"no stseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0 (it seeds the 64-bit synthetic sampler)", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = measure(args, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    metrics = result["metrics"]
    for title, names in (("metrics", sorted(set(metrics) - set(COUNT_METRICS))),
                         ("exact counts", [n for n in COUNT_METRICS if n in metrics])):
        if names:
            print(f"{title}:")
        for name in names:
            value = metrics[name]["value"]
            value = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {name:<32} {value:>16} {metrics[name]['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"{verdict}: {result['failed']} of {result['attempted']} calls failed "
          f"(fail_frac {frac:g})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

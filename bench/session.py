"""One benchmark session, replayed in a fresh interpreter.

A session is the first call a user makes for a sequence source (it builds
the source and writes its cache) followed by the verify calls they would
make next, all through the real entry point ``stseq.cli.main(argv)`` in
this one process, against an empty cache directory.

    python3 bench/session.py --workload tau-session --seed 7 --work DIR [--trace]
    python3 bench/session.py --setup-only --work DIR

Writes ``DIR/result.json``.  ``ready`` in it is ``time.monotonic()`` taken
once ``stseq.cli`` is imported and the cache directory exists; on Linux that
clock is system-wide, so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 7
# The default seed gives y^2 = x^3 - x + 1, the README's curve.  All five have
# A, B != 0 (no complex multiplication), so a_p = 0 only at sparse
# supersingular primes and every seed costs the same.
CURVES = ((-1, 1), (1, 1), (-2, 1), (2, 3), (-3, 5))
LIMITS = {
    # 2^19 is the largest limit with transform length 2^20
    "tau-session": 524_288,
    "ec-session": 100_000,
    "synth-session": 10_000_000,
}
EC_THREADS = 2


def curve_for(seed: int) -> tuple[int, int]:
    return CURVES[(seed - DEFAULT_SEED) % len(CURVES)]


def session_key(workload: str, seed: int) -> str:
    """The part of the seed a session's outputs depend on: none for tau,
    the curve for ec, all of it for synth (the key of ``pins.json``)."""
    if workload == "tau-session":
        return "any"
    if workload == "ec-session":
        return "{},{}".format(*curve_for(seed))
    return str(seed)


def _checkpoints(limit: int) -> str:
    cps = [10**k for k in range(3, 8) if 10**k < limit] + [limit]
    return ",".join(str(x) for x in cps)


def session_calls(workload: str, seed: int, limit: int | None = None) -> list[list[str]]:
    """argv of every call of the session, first call first.

    Verifier arguments declare only flags that hold for any seed: the
    additive identity (thm3), the triangle inequality (thm2), the mean-value
    bound (hall-tenenbaum) and the integrity zero-failure counts (tau
    --check).  Seed-dependent tolerances (--slack, --ratio-tol, --band, ...)
    are never passed, so every call exits 0 on a correct program.
    """
    limit = limit or LIMITS[workload]
    lim = ["--limit", str(limit)]
    cps = ["--checkpoints", _checkpoints(limit)]
    thm1 = ["thm1", "--epsilon", "0.25", *cps]
    if workload == "tau-session":
        first = ["tau", *lim, "--check"]
        source = ["--source", "tau", *lim]
        verifiers = [thm1, ["thm2", *cps], ["thm3"], ["lemma-sums", *cps],
                     ["hall-tenenbaum"], ["assumptions"]]
    elif workload == "ec-session":
        # --curve=A,B: with a space, argparse reads "-1,1" as a flag and exits 2
        curve = "--curve={},{}".format(*curve_for(seed))
        first = ["ec", curve, *lim, "--threads", str(EC_THREADS)]
        source = ["--source", "ec", curve, *lim]
        verifiers = [thm1, ["thm2", *cps], ["thm3"], ["lemma-sums", *cps], ["assumptions"]]
    elif workload == "synth-session":
        first = ["synth", *lim, "--seed", str(seed)]
        source = ["--source", "synth", "--seed", str(seed), *lim]
        # finite-size standardization is the thm3 path through stats.prime_log_moments
        verifiers = [thm1, ["thm3", "--standardization", "finite-size"],
                     ["lemma-sums", *cps], ["assumptions"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [first] + [["verify", *v, *source] for v in verifiers]


def import_cli():
    """Import ``stseq.cli`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import stseq.cli

    if not Path(stseq.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"stseq imported from {stseq.cli.__file__}, not {SRC}")
    return stseq.cli


def output_digest(out_dir: Path, cache_dir: Path, new_cache: list[str]) -> str:
    """BLAKE2b over the canonical bytes of the call's report and the cache
    files it created (the synth build writes no report, only caches)."""
    from stseq.report import VerificationReport

    h = hashlib.blake2b(digest_size=16)
    for path in sorted(out_dir.glob("*.json")):
        h.update(VerificationReport.from_json(path.read_text()).canonical_bytes())
    for name in new_cache:
        h.update(name.encode())
        with open(cache_dir / name, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


def run_session(cli, calls: list[list[str]], work: Path, tracer=None) -> dict:
    """Replay `calls` through ``cli.main``; time each call, then digest outputs.

    Digests are taken after the last call, so the calls run back to back
    and ``peak_kib`` is read before any file is hashed.
    """
    cache = work / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    seen = set(os.listdir(cache))
    records = []
    root = tracer.span("session") if tracer else contextlib.nullcontext()
    with root:
        for i, argv in enumerate(calls):
            out = work / f"out{i}"
            full = [*argv, "--cache-dir", str(cache), "--out-dir", str(out)]
            error = None
            t0 = time.perf_counter()
            try:
                code = cli.main(full)
            except SystemExit as exc:
                code, error = exc.code, f"SystemExit({exc.code})"
            except Exception:
                code, error = None, traceback.format_exc()
            wall = time.perf_counter() - t0
            now = set(os.listdir(cache))
            records.append({"argv": argv, "wall_s": wall, "exit": code, "error": error,
                            "out": out, "new_cache": sorted(now - seen)})
            seen = now
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for rec in records:
        rec["digest"] = output_digest(rec.pop("out"), cache, rec.pop("new_cache"))
    return {"calls": records, "peak_kib": peak_kib}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", required=True, help="empty directory for this session")
    ap.add_argument("--workload", choices=sorted(LIMITS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--trace", action="store_true", help="wrap the stseq layers in spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once stseq.cli is imported and the cache directory exists")
    args = ap.parse_args(argv)
    cli = import_cli()
    work = Path(args.work)
    (work / "cache").mkdir(parents=True)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if not args.setup_only:
        calls = session_calls(args.workload, args.seed)
        if args.trace:
            from tracer import Tracer, layer_metrics

            with Tracer(session=f"{args.workload}:{args.seed}") as tracer:
                result.update(run_session(cli, calls, work, tracer))
            result["layers"] = layer_metrics(tracer.spans)
            result["spans"] = len(tracer.spans)
        else:
            result.update(run_session(cli, calls, work))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands build coefficient sources (tau, ec, synth), count a source's
prime angles (angles), print the distribution constants, and run the
verifiers; every verify subcommand writes the report as JSON plus a CSV of
its rows and exits 0 only if all declared flags pass (1 on failed
verification or data corruption, 2 on usage errors and invalid values).

A flat key=value config file supplies defaults; explicit flags win.  The
cache directory comes from --cache-dir, the STSEQ_CACHE_DIR environment
variable, or ./stseq-cache, in that order.  Every source is built once per
cache and read back after, so `verify --source synth` loads what `synth` wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arith import RULE_KINDS, AngleSeries, NormalizedSequence, PrimePowerRule
from .cache import load_cache, save_cache
from .elliptic import (
    CurveSpec,
    TraceSeries,
    angles_from_traces,
    ec_normalized_sequence,
    kappa_partial,
    supersingular_census,
    trace_series,
)
from .errors import CacheFormatError, DataCorruptionError
from .report import VerificationReport
from .stats import STConstants, prime_angle_summary
from .synthetic import SyntheticSpec, build_synthetic_sequence
from .tau import ExactTauTable, expand_delta, integrity_check, normalize_tau, tau_angles
from .verify import (
    STANDARDIZATIONS,
    SUPPORT_MODES,
    SupportFilter,
    check_assumptions,
    verify_hall_tenenbaum,
    verify_lemma_sums,
    verify_thm1,
    verify_thm2,
    verify_thm3,
)

USAGE_EXIT = 2
FAIL_EXIT = 1

# every key mirrors a flag's dest; flags given on the command line win
_CONFIG_KEYS = frozenset({
    "limit", "seed", "curve", "epsilon", "gammas", "checkpoints", "A", "threads",
    "cache_dir", "format", "rule", "rho",
})


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one stderr line, as every exit 2 does."""

    def error(self, message):
        self.exit(USAGE_EXIT, f"usage error: {message}\n")


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(" ", "").split(",") if tok]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(" ", "").split(",") if tok]


def _parse_curve(text: str) -> tuple[int, int]:
    parts = _parse_int_list(text)
    if len(parts) != 2:
        raise UsageError(f"--curve expects 'A,B', got {text!r}")
    return parts[0], parts[1]


def load_config(path: str) -> dict[str, str]:
    """Allowed key -> value text; the flag of the same dest converts it."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        out[key] = val
    return out


def cache_dir_of(args) -> Path:
    d = args.cache_dir or os.environ.get("STSEQ_CACHE_DIR") or "stseq-cache"
    p = Path(d)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _cached(paths: list[Path], builder, fits) -> tuple:
    """Objects at `paths` if all load and `fits` them, else builder()'s, saved one per path."""
    try:
        if all(p.exists() for p in paths):
            objs = tuple(load_cache(p) for p in paths)
            if fits(*objs):
                return objs
    except CacheFormatError:
        pass  # corrupt: rebuild and overwrite
    objs = builder()
    for path, obj in zip(paths, objs):
        save_cache(path, obj)
    return objs


def get_tau_table(args) -> ExactTauTable:
    """Exact tau table for --limit; a cached table is used only if it fits the request."""
    limit = _require(args, "limit")
    path = cache_dir_of(args) / f"tau_{limit}.astc"
    return _cached(
        [path],
        lambda: (expand_delta(limit),),
        lambda table: isinstance(table, ExactTauTable) and table.limit == limit,
    )[0]


def get_trace_series(args) -> TraceSeries:
    """Traces for --curve and --limit; a cached series is used only if it fits the request."""
    limit = _require(args, "limit")
    a4, b6 = _parse_curve(_require(args, "curve"))
    path = cache_dir_of(args) / f"traces_{a4}_{b6}_{limit}.astc"
    return _cached(
        [path],
        lambda: (trace_series(CurveSpec(a4, b6), limit),),
        lambda series: isinstance(series, TraceSeries) and series.limit == limit
        and (series.curve.a4, series.curve.a6) == (a4, b6),
    )[0]


def get_synthetic(args) -> tuple[AngleSeries, NormalizedSequence]:
    """(angles, seq) for --source synth; a cached pair is used only if it fits the request."""
    limit, seed, cache = _require(args, "limit"), _require(args, "seed"), cache_dir_of(args)
    # repr keeps every digit of rho (":g" would give 0.25 and 0.2500001 one file)
    paths = [cache / f"synth_angles_{limit}_{seed}.astc",
             cache / f"synth_{limit}_{seed}_{args.rule}_{args.rho!r}.astc"]
    spec = SyntheticSpec(limit=limit, seed=seed, rule=PrimePowerRule(args.rule, args.rho))
    return _cached(
        paths,
        lambda: build_synthetic_sequence(spec),
        lambda angles, seq: isinstance(angles, AngleSeries)
        and isinstance(seq, NormalizedSequence) and seq.limit == angles.limit == limit
        and [seq.meta.get(k) for k in ("seed", "rule", "rho")] == [seed, args.rule, args.rho],
    )


def _require(args, name):
    val = getattr(args, name, None)
    if val is None:
        raise UsageError(f"--{name.replace('_', '-')} is required for this command")
    return val


def resolve_sequence(args):
    """(sequence, angles) for --source tau|ec|synth."""
    source = _require(args, "source")
    limit = _require(args, "limit")
    if source == "tau":
        table = get_tau_table(args)
        return normalize_tau(table), tau_angles(table)
    if source == "ec":
        series = get_trace_series(args)
        return ec_normalized_sequence(series, limit), angles_from_traces(series)
    if source == "synth":
        angles, seq = get_synthetic(args)
        return seq, angles
    raise UsageError(f"unknown source {source!r}")


def write_report(report: VerificationReport, out_dir: Path, stem: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(report.to_json() + "\n")
    (out_dir / f"{stem}.csv").write_text(report.to_csv())


def print_report(report: VerificationReport) -> None:
    print(f"[{report.name}] rows={len(report.rows)} runtime={report.runtime:.2f}s")
    for row in report.rows:
        cells = "  ".join(f"{k}={_fmt(v)}" for k, v in row.items())
        print(f"  {cells}")
    for flag in report.flags:
        state = "PASS" if flag["passed"] else "FAIL"
        print(
            f"  [{state}] {flag['name']}: observed={_fmt(flag['observed'])} "
            f"({flag['tolerance']})"
        )


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return v


def _finish(report, args) -> int:
    write_report(report, Path(args.out_dir), report.name)
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(report.to_json())
    elif fmt == "csv":
        print(report.to_csv(), end="")
    else:
        print_report(report)
    return 0 if report.passed else FAIL_EXIT


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_tau(args) -> int:
    table = get_tau_table(args)
    print(f"tau table up to {table.limit} (tau(2)={table[2] if table.limit >= 2 else '-'})")
    if args.check:
        report = integrity_check(table)
        return _finish(report, args)
    return 0


def cmd_ec(args) -> int:
    series = get_trace_series(args)
    census = supersingular_census(series)
    kap = kappa_partial(series, series.limit)
    print(
        f"traces for y^2 = x^3 + {series.curve.a4}x + {series.curve.a6} up to {series.limit}: "
        f"{len(series)} primes, {len(kap.zero_primes)} zero traces, "
        f"kappa partial {kap.value:.6f}"
    )
    return _finish(census, args)


def cmd_synth(args) -> int:
    _, seq = get_synthetic(args)
    print(
        f"synthetic sequence: limit={args.limit} seed={args.seed} rule={args.rule} "
        f"acceptance={seq.meta['acceptance_rate']:.4f} "
        f"growth_violations={seq.meta['growth_violations']}"
    )
    print(f"cached in {cache_dir_of(args)}")
    return 0


def cmd_angles(args) -> int:
    _, angles = resolve_sequence(args)
    print(f"{len(angles)} angle records from source {args.source}")
    return 0


def cmd_constants(args) -> int:
    consts = STConstants()
    quad = consts.quadrature_check()
    table = {
        "h1": (consts.h1, quad["h1"], "(2/pi) int (2|cos|)^1 sin^2 = 8/(3 pi)"),
        "clt_c": (consts.clt_c, quad["clt_c"], "1/2 + pi^2/12 (log^2 moment)"),
        "log_moment_m1": (-0.5, quad["log_moment_m1"], "first log moment = -1/2"),
        "abs_cos_moment": (consts.abs_cos_moment, quad["abs_cos_moment"],
                           "int_0^pi |cos| sin^2 = 2/3"),
        "signed_cos_moment": (consts.signed_cos_moment, quad["signed_cos_moment"],
                              "int_0^pi cos sin^2 = 0"),
        "half_density": (consts.half_density, quad["half_density"],
                         "P(|cos| >= 1/2) = 2/3 - sqrt(3)/(2 pi)"),
    }
    if args.json:
        payload = {
            k: {"closed_form": c, "quadrature": q, "note": note}
            for k, (c, q, note) in table.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{'constant':<18}{'closed form':<22}{'quadrature':<22}note")
    for k, (c, q, note) in table.items():
        print(f"{k:<18}{c:<22.12f}{q:<22.12f}{note}")
    return 0


def cmd_stats(args) -> int:
    _, angles = resolve_sequence(args)
    gammas = _parse_float_list(args.gammas)
    report = prime_angle_summary(angles, gammas)
    return _finish(report, args)


def cmd_verify(args) -> int:
    kind = args.verifier
    seq, angles = resolve_sequence(args)
    if kind == "thm1":
        report = verify_thm1(
            seq,
            eps=args.epsilon,
            checkpoints=_parse_int_list(args.checkpoints),
            monotone_slack=args.slack,
        )
    elif kind == "thm2":
        report = verify_thm2(
            seq, checkpoints=_parse_int_list(args.checkpoints), ratio_tol=args.ratio_tol
        )
    elif kind == "thm3":
        x = args.x or seq.limit
        report = verify_thm3(
            seq,
            x=x,
            support=SupportFilter(mode=args.support, A=args.A),
            standardization=args.standardization,
            ks_tol=args.ks_tol,
            skew_tol=args.skew_tol,
        )
    elif kind == "lemma-sums":
        band = None
        if args.band:
            lo, hi = _parse_float_list(args.band)
            band = (lo, hi)
        report = verify_lemma_sums(
            seq,
            gammas=_parse_float_list(args.gammas),
            checkpoints=_parse_int_list(args.checkpoints),
            ratio_band=band,
        )
    elif kind == "hall-tenenbaum":
        x = args.x or seq.limit
        if args.f == "ones":
            f = np.ones(x + 1)
            label = "f=1"
        else:
            f = np.abs(seq.values[: x + 1]) ** 2
            f[0] = 0.0
            label = "f=|a_n|^2"
        report = verify_hall_tenenbaum(f, x, label=label)
    elif kind == "assumptions":
        cps = _parse_int_list(args.checkpoints) if args.checkpoints else None
        report = check_assumptions(
            seq, angles, A=args.A, grid=args.grid, checkpoints=cps, a2_gap_tol=args.a2_tol
        )
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown verifier {kind!r}")
    return _finish(report, args)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", choices=["tau", "ec", "synth"], help="sequence source")
    p.add_argument("--limit", type=int, help="sequence length N")
    p.add_argument("--seed", type=int, help="synthetic sampler seed")
    p.add_argument("--curve", help="elliptic curve as 'A,B'")
    p.add_argument("--rule", default="hecke-chebyshev", choices=RULE_KINDS)
    p.add_argument("--rho", type=float, default=0.25, help="growth exponent rho")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="stseq", description=__doc__)
    top.add_argument("--version", action="version", version=f"stseq {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value defaults file")
    common.add_argument("--cache-dir", help="cache directory (env STSEQ_CACHE_DIR)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: traces run on one thread, since their "
                             "Python-integer kernel holds the interpreter lock")
    common.add_argument("--out-dir", default=".", help="where reports are written")
    common.add_argument("--format", default="text", choices=["text", "json", "csv"],
                        help="stdout rendering for reports (files are always written)")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("tau", help="build (and cache) an exact tau table")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--check", action="store_true", help="run the integrity detectors")
    p.set_defaults(func=cmd_tau)

    p = add_parser("ec", help="build (and cache) a trace series")
    p.add_argument("--curve", required=True, help="'A,B' for y^2 = x^3 + Ax + B")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=cmd_ec)

    p = add_parser("synth", help="sample a synthetic sequence")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rule", default="hecke-chebyshev", choices=RULE_KINDS)
    p.add_argument("--rho", type=float, default=0.25)
    p.set_defaults(func=cmd_synth)

    p = add_parser("angles", help="count the prime angles of a source")
    _add_source_args(p)
    p.set_defaults(func=cmd_angles)

    p = add_parser("constants", help="print the distribution constants")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_constants)

    p = add_parser("stats", help="per-gamma prime angle summary")
    _add_source_args(p)
    p.add_argument("--gammas", default="0.5,1,2")
    p.set_defaults(func=cmd_stats)

    pv = sub.add_parser("verify", help="run a verifier and write JSON + CSV reports")
    vsub = pv.add_subparsers(dest="verifier", required=True)

    p = vsub.add_parser("thm1", parents=[common])
    _add_source_args(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--slack", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    p = vsub.add_parser("thm2", parents=[common])
    _add_source_args(p)
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--ratio-tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    p = vsub.add_parser("thm3", parents=[common])
    _add_source_args(p)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--support", default="nonzero", choices=SUPPORT_MODES)
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--standardization", default="self", choices=STANDARDIZATIONS)
    p.add_argument("--ks-tol", type=float, default=None)
    p.add_argument("--skew-tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    p = vsub.add_parser("lemma-sums", parents=[common])
    _add_source_args(p)
    p.add_argument("--gammas", default="0.5,1,2")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--band", default=None, help="lo,hi band for (sum|a|^2/n)/log x")
    p.set_defaults(func=cmd_verify)

    p = vsub.add_parser("hall-tenenbaum", parents=[common])
    _add_source_args(p)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--f", default="abs2", choices=["ones", "abs2"])
    p.set_defaults(func=cmd_verify)

    p = vsub.add_parser("assumptions", parents=[common])
    _add_source_args(p)
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--checkpoints", default=None)
    p.add_argument("--a2-tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    return top


def _leaf_parser(parser: argparse.ArgumentParser, args) -> argparse.ArgumentParser:
    """The (sub)parser that parsed the chosen command's own flags."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return _leaf_parser(action.choices[getattr(args, action.dest)], args)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config text becomes the command's defaults, which argparse converts
            # by each flag's own type on the second parse; explicit flags win
            _leaf_parser(parser, args).set_defaults(**load_config(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except DataCorruptionError as exc:
        print(f"data corruption: {exc}", file=sys.stderr)
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())

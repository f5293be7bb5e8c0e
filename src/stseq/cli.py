"""Command-line front end.

Subcommands build coefficient sources (tau, ec, synth), count a source's
prime angles (angles), print the distribution constants, and run the
verifiers; every verify subcommand writes the report as JSON plus a CSV of
its rows and exits 0 only if all declared flags pass (1 on failed
verification or data corruption, 2 on usage errors and invalid values).

A flat key=value config file supplies any value flag of the chosen command,
values it requires included; explicit flags win.  The cache directory comes
from --cache-dir, the STSEQ_CACHE_DIR environment variable, or ./stseq-cache,
in that order.  Every source is built once per cache and read back after, so
`verify --source synth` loads what `synth` wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
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


def _parse_pair(text: str, flag: str, form: str, parse) -> tuple:
    parts = parse(text)
    if len(parts) != 2:
        raise UsageError(f"{flag} expects '{form}', got {text!r}")
    return parts[0], parts[1]


@contextmanager
def _path_flag(flag: str):
    """An OSError inside becomes a UsageError naming the flag and the path."""
    try:
        yield
    except OSError as exc:
        # a failed rename names its target second
        raise UsageError(f"{flag} {exc.filename2 or exc.filename}: {exc.strerror}") from None


def load_config(path: str) -> dict[str, str]:
    """Key -> value text, the last line winning; _config_tokens checks the keys."""
    with _path_flag("--config"):
        text = Path(path).read_text()
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = val
    return out


def cache_dir_of(args) -> Path:
    d = args.cache_dir or os.environ.get("STSEQ_CACHE_DIR") or "stseq-cache"
    p = Path(d)
    with _path_flag("--cache-dir"):
        p.mkdir(parents=True, exist_ok=True)
    return p


def _cached(path: Path, builder, fits):
    """The object at `path` if it loads and `fits`, else the build's.

    builder() returns {path: object} for every file its build makes, and a
    rebuild saves all of them.  A file that fails to load is named on
    stderr before the rebuild overwrites it."""
    with _path_flag("--cache-dir"):
        if path.exists():
            try:
                obj = load_cache(path)
                if fits(obj):
                    return obj
            except CacheFormatError as exc:
                print(f"cache file {path} is unreadable ({exc}); rebuilding it", file=sys.stderr)
    built = builder()
    with _path_flag("--cache-dir"):
        for p, obj in built.items():
            save_cache(p, obj)
    return built[path]


def _limit(args) -> int:
    """--limit, refused below 1 before any cache file is read."""
    if (limit := _require(args, "limit")) < 1:
        raise ValueError("limit must be >= 1")
    return limit


def _curve(args) -> CurveSpec:
    """--curve; a singular curve raises ValueError."""
    return CurveSpec(*_parse_pair(_require(args, "curve"), "--curve", "A,B", _parse_int_list))


def _refuse_cm(args, user: str, advice: str = "") -> None:
    """Refuse a --source ec curve with complex multiplication before any trace
    is built or loaded: Sato-Tate, which `user` assumes, is proven only for
    curves without CM."""
    if args.source == "ec" and (curve := _curve(args)).has_cm:
        raise ValueError(f"{user} assumes the Sato-Tate law, which the CM curve "
                         f"{curve.a4},{curve.a6} does not follow{advice}")


def get_tau_table(args) -> ExactTauTable:
    """Exact tau table for --limit; a cached table is used only if it fits the request."""
    cache, limit = cache_dir_of(args), _limit(args)
    path = cache / f"tau_{limit}.astc"
    return _cached(path, lambda: {path: expand_delta(limit)},
                   lambda table: isinstance(table, ExactTauTable) and table.limit == limit)


def get_trace_series(args) -> TraceSeries:
    """Traces for --curve and --limit; a cached series is used only if it fits the request."""
    cache, limit, curve = cache_dir_of(args), _limit(args), _curve(args)
    path = cache / f"traces_{curve.a4}_{curve.a6}_{limit}.astc"
    return _cached(path, lambda: {path: trace_series(curve, limit)},
                   lambda series: isinstance(series, TraceSeries) and series.limit == limit
                   and series.curve == curve)


def _synthetic_files(args):
    """(angles path, sequence path, build) of the synth files for the request;
    the build samples the (angles, sequence) pair once and returns both, keyed by path."""
    cache, limit, seed = cache_dir_of(args), _limit(args), _require(args, "seed")
    # repr keeps every digit of rho (":g" would give 0.25 and 0.2500001 one file)
    paths = (cache / f"synth_angles_{limit}_{seed}.astc",
             cache / f"synth_{limit}_{seed}_{args.rule}_{args.rho!r}.astc")
    spec = SyntheticSpec(limit=limit, seed=seed, rule=PrimePowerRule(args.rule, args.rho))
    return (*paths, lambda: dict(zip(paths, build_synthetic_sequence(spec))))


def get_synthetic_sequence(args) -> NormalizedSequence:
    """The --source synth sequence; a cached one is used only if its type,
    limit, seed, rule and rho fit the request."""
    _, path, build = _synthetic_files(args)
    want = {"seed": args.seed, "rule": args.rule, "rho": args.rho}
    return _cached(path, build,
                   lambda seq: isinstance(seq, NormalizedSequence) and seq.limit == args.limit
                   and all(seq.meta.get(k) == v for k, v in want.items()))


def _angles_fit(args):
    """Whether a cached synth angles series fits the request: its type and
    limit (they depend on the seed and limit alone, both in its name)."""
    return lambda angles: isinstance(angles, AngleSeries) and angles.limit == args.limit


def get_synthetic_angles(args) -> AngleSeries:
    """The --source synth prime angles; a cached series is used only if it fits."""
    path, _, build = _synthetic_files(args)
    return _cached(path, build, _angles_fit(args))


def _require(args, name):
    val = getattr(args, name, None)
    if val is None:
        raise UsageError(f"--{name.replace('_', '-')} is required for this command")
    return val


def resolve_sequence(args) -> NormalizedSequence:
    """The normalized sequence for --source tau|ec|synth, without its angles."""
    source = _require(args, "source")
    if source == "tau":
        return normalize_tau(get_tau_table(args))
    if source == "ec":
        series = get_trace_series(args)
        return ec_normalized_sequence(series, series.limit)
    return get_synthetic_sequence(args)  # --source choices leave only synth


def resolve_with_angles(args) -> tuple[NormalizedSequence, AngleSeries]:
    """(sequence, angles) for --source tau|ec|synth, from one read of the source."""
    source = _require(args, "source")
    if source == "tau":
        table = get_tau_table(args)
        return normalize_tau(table), tau_angles(table)
    if source == "ec":
        series = get_trace_series(args)
        return ec_normalized_sequence(series, series.limit), angles_from_traces(series)
    angles_path, seq_path, build = _synthetic_files(args)
    built = {}
    angles = _cached(angles_path, lambda: built.update(build()) or built, _angles_fit(args))
    # a rebuilt pair hands its sequence over; loaded angles leave it to its own file
    return (built[seq_path] if built else get_synthetic_sequence(args)), angles


def resolve_angles(args) -> AngleSeries:
    """The prime angles for --source tau|ec|synth, without the sequence."""
    source = _require(args, "source")
    if source == "tau":
        return tau_angles(get_tau_table(args))
    if source == "ec":
        return angles_from_traces(get_trace_series(args))
    return get_synthetic_angles(args)


def write_report(report: VerificationReport, out_dir: Path, stem: str) -> None:
    with _path_flag("--out-dir"):
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
    seq = get_synthetic_sequence(args)
    print(
        f"synthetic sequence: limit={args.limit} seed={args.seed} rule={args.rule} "
        f"acceptance={seq.meta['acceptance_rate']:.4f} "
        f"growth_violations={seq.meta['growth_violations']}"
    )
    print(f"cached in {cache_dir_of(args)}")
    return 0


def cmd_angles(args) -> int:
    angles = resolve_angles(args)
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
    _refuse_cm(args, "stats")  # its KS distance is to st_cdf
    angles = resolve_angles(args)
    gammas = _parse_float_list(args.gammas)
    report = prime_angle_summary(angles, gammas)
    return _finish(report, args)


def cmd_verify(args) -> int:
    kind = args.verifier
    # required values are read first: a missing one exits 2 before any source is built or loaded
    eps = _require(args, "epsilon") if kind == "thm1" else None
    if kind in ("thm1", "thm2", "lemma-sums"):
        cps = _parse_int_list(_require(args, "checkpoints"))
    # thm1's thresholds, the assumptions' st_cdf and thm3's asymptotic scale assume Sato-Tate
    if kind in ("thm1", "assumptions"):
        _refuse_cm(args, f"verify {kind}")
    elif kind == "thm3" and args.standardization == "asymptotic":
        _refuse_cm(args, "--standardization asymptotic", "; use self or finite-size")
    if kind == "assumptions":  # the one verifier that reads the prime angles
        seq, angles = resolve_with_angles(args)
    else:
        seq = resolve_sequence(args)
    if kind == "thm1":
        report = verify_thm1(seq, eps=eps, checkpoints=cps, monotone_slack=args.slack)
    elif kind == "thm2":
        report = verify_thm2(seq, checkpoints=cps, ratio_tol=args.ratio_tol)
    elif kind == "thm3":
        x = seq.limit if args.x is None else args.x
        report = verify_thm3(
            seq,
            x=x,
            support=SupportFilter(mode=args.support, A=args.A),
            standardization=args.standardization,
            ks_tol=args.ks_tol,
            skew_tol=args.skew_tol,
        )
    elif kind == "lemma-sums":
        band = _parse_pair(args.band, "--band", "lo,hi", _parse_float_list) if args.band else None
        report = verify_lemma_sums(
            seq, gammas=_parse_float_list(args.gammas), checkpoints=cps, ratio_band=band
        )
    elif kind == "hall-tenenbaum":
        x = seq.limit if args.x is None else args.x
        if x > seq.limit:  # refused before f is allocated at length x + 1
            raise ValueError(f"cutoff {x} beyond sequence limit {seq.limit}")
        size = max(x + 1, 0)  # verify_hall_tenenbaum refuses x < 2 by name
        if args.f == "ones":
            f = np.ones(size)
            label = "f=1"
        else:
            f = np.abs(seq.values[:size]) ** 2
            f[:1] = 0.0
            label = "f=|a_n|^2"
        report = verify_hall_tenenbaum(f, x, label=label)
    else:  # assumptions: the required verifier subcommand leaves no other
        cps = _parse_int_list(args.checkpoints) if args.checkpoints else None
        report = check_assumptions(
            seq, angles, A=args.A, grid=args.grid, checkpoints=cps, a2_gap_tol=args.a2_tol
        )
    return _finish(report, args)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


# one declaration per source flag; each subcommand takes the ones it reads
_SOURCE_FLAGS = {
    "source": dict(choices=["tau", "ec", "synth"], help="sequence source"),
    "limit": dict(type=int, help="sequence length N"),
    "seed": dict(type=int, help="synthetic sampler seed"),
    "curve": dict(help="elliptic curve 'A,B' for y^2 = x^3 + Ax + B"),
    "rule": dict(default="hecke-chebyshev", choices=RULE_KINDS, help="synthetic prime-power rule"),
    "rho": dict(type=float, default=0.25, help="growth exponent rho"),
}


def _add_source_args(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_SOURCE_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="stseq", description=__doc__)
    top.add_argument("--version", action="version", version=f"stseq {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value defaults file")
    common.add_argument("--cache-dir", help="cache directory (env STSEQ_CACHE_DIR)")
    common.add_argument("--out-dir", default=".", help="where reports are written")
    reports = argparse.ArgumentParser(add_help=False, parents=[common])
    reports.add_argument("--format", default="text", choices=["text", "json", "csv"],
                         help="stdout rendering for reports (files are always written)")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(subs, name, func, sources=(), parent=reports, **kw):
        """Subcommand `name` with the flags of `parent`, the source flags `sources` and `func`."""
        p = subs.add_parser(name, parents=[parent], **kw)
        _add_source_args(p, sources)
        p.set_defaults(func=func)
        return p

    p = add_parser(sub, "tau", cmd_tau, ["limit"], help="build (and cache) an exact tau table")
    p.add_argument("--check", action="store_true", help="run the integrity detectors")
    p = add_parser(sub, "ec", cmd_ec, ["curve", "limit"], help="build (and cache) a trace series")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: traces run on the calling thread "
                        "in one batched numpy kernel")
    add_parser(sub, "synth", cmd_synth, ["limit", "seed", "rule", "rho"], common,
               help="sample a synthetic sequence")
    add_parser(sub, "angles", cmd_angles, _SOURCE_FLAGS, common,
               help="count the prime angles of a source")
    p = sub.add_parser("constants", help="print the distribution constants")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_constants)
    p = add_parser(sub, "stats", cmd_stats, _SOURCE_FLAGS, help="per-gamma prime angle summary")
    p.add_argument("--gammas", default="0.5,1,2")

    pv = sub.add_parser("verify", help="run a verifier and write JSON + CSV reports")
    vsub = pv.add_subparsers(dest="verifier", required=True)

    p = add_parser(vsub, "thm1", cmd_verify, _SOURCE_FLAGS)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--checkpoints")
    p.add_argument("--slack", type=float, default=None)

    p = add_parser(vsub, "thm2", cmd_verify, _SOURCE_FLAGS)
    p.add_argument("--checkpoints")
    p.add_argument("--ratio-tol", type=float, default=None)

    p = add_parser(vsub, "thm3", cmd_verify, _SOURCE_FLAGS)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--support", default="nonzero", choices=SUPPORT_MODES)
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--standardization", default="self", choices=STANDARDIZATIONS)
    p.add_argument("--ks-tol", type=float, default=None)
    p.add_argument("--skew-tol", type=float, default=None)

    p = add_parser(vsub, "lemma-sums", cmd_verify, _SOURCE_FLAGS)
    p.add_argument("--gammas", default="0.5,1,2")
    p.add_argument("--checkpoints")
    p.add_argument("--band", default=None, help="lo,hi band for (sum|a|^2/n)/log x")

    p = add_parser(vsub, "hall-tenenbaum", cmd_verify, _SOURCE_FLAGS)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--f", default="abs2", choices=["ones", "abs2"])

    p = add_parser(vsub, "assumptions", cmd_verify, _SOURCE_FLAGS)
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--checkpoints", default=None)
    p.add_argument("--a2-tol", type=float, default=None)

    return top


def _leaf_parser(parser: argparse.ArgumentParser, args) -> tuple[argparse.ArgumentParser, int]:
    """The chosen command's own (sub)parser, and its depth: one subcommand token per level."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            leaf, depth = _leaf_parser(action.choices[getattr(args, action.dest)], args)
            return leaf, depth + 1
    return parser, 0


def _config_tokens(leaf: argparse.ArgumentParser, config: dict[str, str]) -> list[str]:
    """Each config line as `--flag=value` of the leaf's value flag with that dest
    (the `=` keeps a value such as -1,1 from reading as a flag)."""
    flags = {a.dest: a.option_strings[0] for a in leaf._actions if a.nargs != 0}
    del flags["config"]  # the typed --config names the file, so a line could only be ignored
    for key in config:
        if key not in flags:
            raise UsageError(f"unknown config key {key!r}")
    return [f"{flags[key]}={val}" for key, val in config.items()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):  # constants takes no --config
            # before the typed flags: argparse checks each line, and typed flags win
            leaf, depth = _leaf_parser(parser, args)
            tokens = _config_tokens(leaf, load_config(args.config))
            args = parser.parse_args([*argv[:depth], *tokens, *argv[depth:]])
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

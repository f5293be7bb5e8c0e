"""Outside-in span tracer for the stseq layers.

The benchmark times the layers from its own files: it wraps the public
functions of each ``stseq`` module, so the program carries no tracing code.
``from .x import f`` copies the binding ``f`` into every importing module,
so each function is patched in every ``stseq`` namespace that binds it
(``cyclic_square_truncated`` inside ``stseq.tau``, ``normal_cdf`` inside
``stseq.verify``), and every patched binding is put back on exit.

A span records name, start, end, parent span and session id.  Spans opened
by a worker thread with nothing open on that thread take the innermost open
span of the main thread as parent: the only thread pool in stseq is the
per-prime map inside ``trace_series``.  Self time is a span's duration
minus the part of it that its children's spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _square_attrs(args, kwargs, result):
    return {"transform_len": _arg(args, kwargs, 1, "plan").length}


def _garner_attrs(args, kwargs, result):
    return {"moduli": len(_arg(args, kwargs, 1, "primes"))}


def _series_attrs(args, kwargs, result):
    return {"threads": _arg(args, kwargs, 2, "threads", 1)}


def _sweep_attrs(args, kwargs, result):
    return {"p": int(_arg(args, kwargs, 1, "p"))}


def _sample_attrs(args, kwargs, result):
    if isinstance(result, tuple):
        return {"accepted": int(result[1]), "proposed": int(result[2])}
    return {}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# module -> {public function: hook giving the span's exact counts}
TARGETS = {
    "stseq.ntt": {
        "cyclic_square_truncated": _square_attrs,
        "get_plan": None,
        "garner_lift": _garner_attrs,
        "find_ntt_primes": None,
    },
    "stseq.tau": {
        "expand_delta": None,
        "tau_naive_oracle": None,
        "integrity_check": None,
        "normalize_tau": None,
        "tau_angles": None,
    },
    "stseq.elliptic": {
        "trace_series": _series_attrs,
        "trace_at_prime": _sweep_attrs,
        "ec_normalized_sequence": None,
        "supersingular_census": None,
        "angles_from_traces": None,
        "kappa_partial": None,
    },
    "stseq.arith": {
        "build_spf_sieve": None,
        "primes_up_to": None,
        "assemble_multiplicative": None,
        "exponent_core_tables": None,
        "largest_prime_factor_table": None,
        "growth_violations": None,
    },
    "stseq.synthetic": {
        "build_synthetic_sequence": None,
        "sample_st_angles": _sample_attrs,
    },
    "stseq.verify": {
        "verify_thm1": None,
        "verify_thm2": None,
        "verify_thm3": None,
        "strongly_multiplicative_log": None,
        "verify_lemma_sums": None,
        "verify_hall_tenenbaum": None,
        "check_assumptions": None,
    },
    "stseq.stats": {
        "normal_cdf": None,
        "ks_statistic": None,
        "prime_log_moments": None,
    },
    "stseq.cache": {"load_cache": _file_attrs, "save_cache": _file_attrs},
    "stseq.cli": {"main": None, "resolve_sequence": None, "write_report": None},
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    session: str
    start: float
    end: float = 0.0
    maxrss_kib: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def stseq_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "stseq" or n.startswith("stseq.")]


class Tracer:
    """Patch on ``__enter__``, restore on ``__exit__``; spans stay in memory."""

    def __init__(self, session: str):
        self.session = session
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        sp = Span(next(self._ids), name, parent.id if parent else None, self.session,
                  time.perf_counter())
        stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        sp.maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._stacks[threading.get_ident()].pop()
        self.spans.append(sp)

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if hook is not None:
                sp.attrs.update(hook(args, kwargs, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for modname, funcs in TARGETS.items():
            home = importlib.import_module(modname)
            short = modname.removeprefix("stseq.")
            for fname, hook in funcs.items():
                fn = getattr(home, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn, hook))
        for mod in stseq_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            mod, attr, val = self._patched.pop()
            setattr(mod, attr, val)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for c in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = sp.duration - covered
    return out


# per-layer metric -> span whose summed self time it reports
SELF_TIME_METRICS = {
    "ntt.square_s": "ntt.cyclic_square_truncated",
    "ntt.plan_s": "ntt.get_plan",
    "ntt.garner_s": "ntt.garner_lift",
    "tau.expand_self_s": "tau.expand_delta",
    "tau.oracle_s": "tau.tau_naive_oracle",
    "tau.integrity_s": "tau.integrity_check",
    "tau.normalize_s": "tau.normalize_tau",
    "tau.angles_s": "tau.tau_angles",
    "elliptic.sequence_s": "elliptic.ec_normalized_sequence",
    "elliptic.census_s": "elliptic.supersingular_census",
    "arith.sieve_s": "arith.build_spf_sieve",
    "arith.primes_up_to_s": "arith.primes_up_to",
    "arith.assemble_s": "arith.assemble_multiplicative",
    "arith.exponent_core_s": "arith.exponent_core_tables",
    "arith.lpf_table_s": "arith.largest_prime_factor_table",
    "arith.growth_violations_s": "arith.growth_violations",
    "synthetic.sample_s": "synthetic.sample_st_angles",
    "synthetic.build_self_s": "synthetic.build_synthetic_sequence",
    "verify.thm1_s": "verify.verify_thm1",
    "verify.thm2_s": "verify.verify_thm2",
    "verify.thm3_s": "verify.verify_thm3",
    "verify.strong_mult_log_s": "verify.strongly_multiplicative_log",
    "verify.lemma_sums_s": "verify.verify_lemma_sums",
    "verify.hall_tenenbaum_s": "verify.verify_hall_tenenbaum",
    "verify.assumptions_s": "verify.check_assumptions",
    "stats.normal_cdf_s": "stats.normal_cdf",
    "stats.ks_s": "stats.ks_statistic",
    "stats.log_moments_s": "stats.prime_log_moments",
    "cache.load_s": "cache.load_cache",
    "cache.save_s": "cache.save_cache",
    "cli.main_self_s": "cli.main",
    "cli.resolve_sequence_self_s": "cli.resolve_sequence",
    "cli.write_report_s": "cli.write_report",
}

# exact counts: they repeat run to run for a given workload and seed
COUNT_METRICS = (
    "tau.crt_moduli",
    "ntt.square_calls",
    "ntt.transform_len",
    "ntt.butterflies",
    "elliptic.sweeps",
    "elliptic.sweep_points",
    "arith.sieve_calls",
    "arith.primes_up_to_calls",
    "synthetic.proposals",
    "cache.loads",
    "cache.saves",
    "cache.bytes_read",
    "cache.bytes_written",
    "cli.calls",
)

# spans whose ru_maxrss high-water mark is reported
MAXRSS_METRICS = {
    "ntt.square_maxrss_mib": "ntt.cyclic_square_truncated",
    "arith.assemble_maxrss_mib": "arith.assemble_multiplicative",
    "verify.thm3_maxrss_mib": "verify.verify_thm3",
}


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); absent layers read 0."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def named(n):
        return by_name.get(n, [])

    def attr_sum(n, key):
        return sum(sp.attrs.get(key, 0) for sp in named(n))

    out: dict[str, tuple[float, str]] = {}
    for metric, n in SELF_TIME_METRICS.items():
        out[metric] = (sum(selfs[sp.id] for sp in named(n)), "s")

    squares = named("ntt.cyclic_square_truncated")
    lens = [sp.attrs["transform_len"] for sp in squares]
    counts = {
        "tau.crt_moduli": max((sp.attrs["moduli"] for sp in named("ntt.garner_lift")), default=0),
        "ntt.square_calls": len(squares),
        "ntt.transform_len": max(lens, default=0),
        # forward plus inverse transform: 2 * (L/2) log2 L butterflies per squaring
        "ntt.butterflies": sum(n * (n.bit_length() - 1) for n in lens),
        "elliptic.sweeps": len(named("elliptic.trace_at_prime")),
        "elliptic.sweep_points": attr_sum("elliptic.trace_at_prime", "p"),
        "arith.sieve_calls": len(named("arith.build_spf_sieve")),
        "arith.primes_up_to_calls": len(named("arith.primes_up_to")),
        "synthetic.proposals": attr_sum("synthetic.sample_st_angles", "proposed"),
        "cache.loads": len(named("cache.load_cache")),
        "cache.saves": len(named("cache.save_cache")),
        "cache.bytes_read": attr_sum("cache.load_cache", "bytes"),
        "cache.bytes_written": attr_sum("cache.save_cache", "bytes"),
        "cli.calls": len(named("cli.main")),
    }
    for metric in COUNT_METRICS:
        out[metric] = (counts[metric], "B" if ".bytes_" in metric else "count")

    proposed = counts["synthetic.proposals"]
    accepted = attr_sum("synthetic.sample_st_angles", "accepted")
    out["synthetic.acceptance"] = (accepted / proposed if proposed else 0.0, "ratio")

    series = named("elliptic.trace_series")
    wall = sum(sp.duration for sp in series)
    busy = sum(sp.duration for sp in named("elliptic.trace_at_prime"))
    threads = max((sp.attrs["threads"] for sp in series), default=1)
    out["elliptic.trace_series_s"] = (wall, "s")
    out["elliptic.sweep_busy_s"] = (busy, "s")
    out["elliptic.parallel_eff"] = (busy / (threads * wall) if wall else 0.0, "ratio")

    for metric, n in MAXRSS_METRICS.items():
        out[metric] = (max((sp.maxrss_kib for sp in named(n)), default=0) / 1024.0, "MiB")
    return out

import argparse
import json

import numpy as np
import pytest

import stseq.cli
from stseq.arith import NormalizedSequence
from stseq.cache import load_cache, save_cache
from stseq.cli import main
from stseq.elliptic import CurveSpec, trace_series
from stseq.errors import DataCorruptionError
from stseq.report import VerificationReport, rows_from_csv
from stseq.tau import ExactTauTable, tau_naive_oracle


def run(tmp_path, *argv):
    full = list(argv) + ["--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path)]
    return main(full)


def test_constants_text(capsys, tmp_path):
    assert main(["constants"]) == 0
    out = capsys.readouterr().out
    assert "0.848826" in out
    assert "1.322467" in out


def test_constants_json(capsys):
    assert main(["constants", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h1"]["closed_form"] == pytest.approx(0.8488263631567752)


def test_tau_then_thm2_smoke(tmp_path, capsys):
    assert run(tmp_path, "tau", "--limit", "100") == 0
    assert run(tmp_path, "verify", "thm2", "--source", "tau", "--limit", "100",
               "--checkpoints", "50,100") == 0
    report = VerificationReport.from_json((tmp_path / "thm2-cancellation.json").read_text())
    assert report.passed
    assert [r["x"] for r in report.rows] == [50, 100]


def test_json_csv_rows_match(tmp_path):
    run(tmp_path, "tau", "--limit", "200")
    run(tmp_path, "verify", "thm2", "--source", "tau", "--limit", "200",
        "--checkpoints", "100,200")
    report = VerificationReport.from_json((tmp_path / "thm2-cancellation.json").read_text())
    csv_rows = rows_from_csv((tmp_path / "thm2-cancellation.csv").read_text())
    assert len(csv_rows) == len(report.rows)
    for jrow, crow in zip(report.rows, csv_rows):
        for key, val in jrow.items():
            assert crow[key] == pytest.approx(val) if isinstance(val, float) else crow[key] == val


def test_failed_verification_exits_one(tmp_path):
    run(tmp_path, "tau", "--limit", "100")
    code = run(tmp_path, "verify", "thm2", "--source", "tau", "--limit", "100",
               "--checkpoints", "50,100", "--ratio-tol", "1e-15")
    assert code == 1


def test_data_corruption_exits_one(tmp_path, capsys, monkeypatch):
    def corrupt(limit):
        raise DataCorruptionError("fast expansion disagrees with the dense oracle")

    monkeypatch.setattr(stseq.cli, "expand_delta", corrupt)
    assert run(tmp_path, "tau", "--limit", "100") == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "data corruption: fast expansion disagrees with the dense oracle"]
    assert "Traceback" not in err


def test_missing_source_usage_error(tmp_path):
    code = run(tmp_path, "verify", "thm1", "--epsilon", "0.25", "--checkpoints", "10,100")
    assert code == 2


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["tau", "--limit", "10", "--bogus-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, value", [
    (["synth", "--limit", "100", "--seed", "1", "--rule", "exact-integer-hecke"],
     "exact-integer-hecke"),
    (["verify", "thm3", "--source", "synth", "--limit", "100", "--seed", "1",
      "--support", "all"], "all"),
])
def test_removed_option_values_exit_two(tmp_path, capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("usage error: ") and f"invalid choice: '{value}'" in err[0]


VERIFIERS = ["thm1", "thm2", "thm3", "lemma-sums", "hall-tenenbaum", "assumptions"]
REMOVED_SLOTS = [
    *[([cmd], "--threads", "2") for cmd in ("tau", "synth", "angles", "stats")],
    *[(["verify", v], "--threads", "2") for v in VERIFIERS],
    (["constants"], "--config", "conf.txt"),
    (["constants"], "--cache-dir", "cache"),
    (["constants"], "--out-dir", "out"),
    (["constants"], "--format", "json"),
    (["constants"], "--threads", "2"),
    (["synth"], "--format", "json"),
    (["angles"], "--format", "json"),
]


@pytest.mark.parametrize("argv, flag, value", REMOVED_SLOTS,
                         ids=[" ".join([*argv, flag]) for argv, flag, _ in REMOVED_SLOTS])
def test_removed_option_slots_exit_two(capsys, argv, flag, value):
    # flags no code path of the command read are refused, not accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: unrecognized arguments: {flag} {value}"]


def test_ec_takes_threads_and_format(tmp_path, capsys):
    assert run(tmp_path, "ec", "--curve=-1,1", "--limit", "500", "--threads", "2",
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["name"] == "supersingular-census"


THM3_ASYMPTOTIC_EC = ["verify", "thm3", "--standardization", "asymptotic", "--source", "ec",
                      "--limit", "2000"]


CM_CURVES = ["-1,0", "0,1", "-35,-98"]  # j = 1728, 0, -3375
BENCH_CURVES = ["-1,1", "1,1", "-2,1", "2,3", "-3,5"]  # bench/session.py's CURVES, no CM


def _refuses_cm(tmp_path, capsys, monkeypatch, argv, curve, message):
    """argv, which runs at limit 2000 on the CM `curve`, exits 2 with `message`
    alone, before any trace is built or loaded, and writes no report."""
    cache = tmp_path / "cache"
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert not cache.exists() or not any(cache.iterdir())
    # a cached trace series is not loaded either
    assert run(tmp_path, "ec", f"--curve={curve}", "--limit", "2000") == 0
    capsys.readouterr()

    def touched(*_args, **_kw):
        raise AssertionError("a trace series was built or loaded")
    for name in ("trace_series", "load_cache"):
        monkeypatch.setattr(stseq.cli, name, touched)
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert [p.name for p in tmp_path.glob("*.json")] == ["supersingular-census.json"]  # ec's


@pytest.mark.parametrize("curve", CM_CURVES)
def test_thm3_asymptotic_refuses_cm_curves(tmp_path, capsys, monkeypatch, curve):
    message = (f"error: --standardization asymptotic assumes the Sato-Tate law, which the CM "
               f"curve {curve} does not follow; use self or finite-size")
    argv = [*THM3_ASYMPTOTIC_EC, f"--curve={curve}"]
    _refuses_cm(tmp_path, capsys, monkeypatch, argv, curve, message)


ST_COMMANDS = {  # the commands besides thm3's asymptotic scale that assume Sato-Tate
    "verify thm1": ["verify", "thm1", "--epsilon", "0.25", "--checkpoints", "1000,2000"],
    "verify assumptions": ["verify", "assumptions"],
    "stats": ["stats"],
}


@pytest.mark.parametrize("curve", CM_CURVES)
@pytest.mark.parametrize("command", ST_COMMANDS)
def test_sato_tate_commands_refuse_cm_curves(tmp_path, capsys, monkeypatch, command, curve):
    argv = [*ST_COMMANDS[command], "--source", "ec", f"--curve={curve}", "--limit", "2000"]
    message = (f"error: {command} assumes the Sato-Tate law, which the CM curve {curve} "
               f"does not follow")
    _refuses_cm(tmp_path, capsys, monkeypatch, argv, curve, message)


@pytest.mark.parametrize("curve", BENCH_CURVES)
@pytest.mark.parametrize("command", ST_COMMANDS)
def test_sato_tate_commands_run_curves_without_cm(tmp_path, command, curve):
    assert run(tmp_path, *ST_COMMANDS[command], "--source", "ec", f"--curve={curve}",
               "--limit", "2000") == 0


@pytest.mark.parametrize("curve", BENCH_CURVES)
def test_thm3_asymptotic_runs_curves_without_cm(tmp_path, curve):
    assert run(tmp_path, *THM3_ASYMPTOTIC_EC, f"--curve={curve}") == 0
    assert VerificationReport.from_json((tmp_path / "thm3-clt.json").read_text()).passed


@pytest.mark.parametrize("standardization", ["self", "finite-size"])
def test_thm3_self_standardizations_run_cm_curves(tmp_path, standardization):
    assert run(tmp_path, "verify", "thm3", "--standardization", standardization,
               "--source", "ec", "--curve=-1,0", "--limit", "2000") == 0


CM_FREE_COMMANDS = {  # the commands that use no Sato-Tate constant
    "ec": ["ec"],
    "angles": ["angles", "--source", "ec"],
    "thm2": ["verify", "thm2", "--source", "ec", "--checkpoints", "1000,2000"],
    "lemma-sums": ["verify", "lemma-sums", "--source", "ec", "--checkpoints", "1000,2000"],
    "hall-tenenbaum": ["verify", "hall-tenenbaum", "--source", "ec"],
}


@pytest.mark.parametrize("curve", CM_CURVES)
@pytest.mark.parametrize("command", CM_FREE_COMMANDS)
def test_commands_without_sato_tate_run_cm_curves(tmp_path, command, curve):
    assert run(tmp_path, *CM_FREE_COMMANDS[command], f"--curve={curve}", "--limit", "2000") == 0


def test_prime_value_past_two_exits_one(tmp_path, capsys, monkeypatch):
    values = np.full(151, 0.5)
    values[:3] = np.nan, 1.0, 2.5
    seq = NormalizedSequence(limit=150, values=values, source="synthetic")
    monkeypatch.setattr(stseq.cli, "resolve_sequence", lambda args: seq)
    assert run(tmp_path, "verify", "thm3", "--standardization", "finite-size", *SYNTH150) == 1
    assert capsys.readouterr().err.splitlines() == [
        "data corruption: |a_p| <= 2 violated at p = 2: a_p = 2.5"]


@pytest.mark.parametrize("argv, message", [
    (["thm3", "--x", "0"], "error: thm3 needs x >= 1, got x = 0"),
    (["thm3", "--x", "-3"], "error: thm3 needs x >= 1, got x = -3"),
    (["hall-tenenbaum", "--x", "0"], "error: hall-tenenbaum needs x >= 2 (log x > 0), got x = 0"),
    (["hall-tenenbaum", "--x", "-1", "--f", "ones"],
     "error: hall-tenenbaum needs x >= 2 (log x > 0), got x = -1"),
    (["hall-tenenbaum", "--limit", "1"], "error: hall-tenenbaum needs x >= 2 (log x > 0), got x = 1"),
    (["hall-tenenbaum", "--f", "ones", "--x", "200000"],
     "error: cutoff 200000 beyond sequence limit 500"),
    (["hall-tenenbaum", "--f", "ones", "--x", "100000000000"],
     "error: cutoff 100000000000 beyond sequence limit 500"),
    (["hall-tenenbaum", "--x", "501"], "error: cutoff 501 beyond sequence limit 500"),
    (["assumptions", "--grid", "0"], "error: grid must be >= 1"),
    (["assumptions", "--grid", "-1"], "error: grid must be >= 1"),
    (["lemma-sums", "--checkpoints", "100,500", "--band", "1"],
     "usage error: --band expects 'lo,hi', got '1'"),
    (["lemma-sums", "--checkpoints", "100,500", "--gammas", "1,1.0"],
     "error: gammas repeat the column sum_gamma_1"),
], ids=["thm3-x0", "thm3-x-3", "ht-x0", "ht-x-1", "ht-limit1", "ht-ones-x-past-limit",
        "ht-ones-x-huge", "ht-x-past-limit", "grid0", "grid-1", "band1", "gammas-repeat"])
def test_out_of_range_verifier_value_exits_two(tmp_path, capsys, argv, message):
    # a flag value no verifier can run on is refused by name, not run at
    # another value or left to a numpy error; a later --limit wins
    assert run(tmp_path, "verify", argv[0], "--source", "synth", "--seed", "7",
               "--limit", "500", *argv[1:]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not list(tmp_path.glob("*.json"))


def test_synth_and_verify_thm1(tmp_path):
    assert run(tmp_path, "synth", "--limit", "2000", "--seed", "7") == 0
    code = run(tmp_path, "verify", "thm1", "--source", "synth", "--limit", "2000",
               "--seed", "7", "--epsilon", "0.25", "--checkpoints", "100,1000,2000")
    assert code == 0
    report = VerificationReport.from_json((tmp_path / "thm1-typical-size.json").read_text())
    assert len(report.rows) == 3


def test_ec_command(tmp_path, capsys):
    assert run(tmp_path, "ec", "--curve", "0,1", "--limit", "100") == 0
    out = capsys.readouterr().out
    assert "zero traces" in out


def test_tau_cache_of_another_limit_is_rebuilt(tmp_path, capsys):
    path = tmp_path / "cache" / "tau_100.astc"
    path.parent.mkdir()
    save_cache(path, tau_naive_oracle(50))
    assert run(tmp_path, "tau", "--limit", "100") == 0
    assert "tau table up to 100 " in capsys.readouterr().out
    assert load_cache(path).taus == tau_naive_oracle(100).taus


def test_ec_cache_of_another_curve_is_rebuilt(tmp_path, capsys):
    path = tmp_path / "cache" / "traces_-1_1_2000.astc"
    path.parent.mkdir()
    save_cache(path, trace_series(CurveSpec(1, 1), 2000))
    assert run(tmp_path, "ec", "--curve=-1,1", "--limit", "2000") == 0
    assert "y^2 = x^3 + -1x + 1 up to 2000" in capsys.readouterr().out
    series = load_cache(path)
    assert (series.curve.a4, series.curve.a6, series.limit) == (-1, 1, 2000)
    assert series.t.tolist() == trace_series(CurveSpec(-1, 1), 2000).t.tolist()


def test_ec_cache_of_another_limit_is_rebuilt(tmp_path):
    path = tmp_path / "cache" / "traces_-1_1_2000.astc"
    path.parent.mkdir()
    save_cache(path, trace_series(CurveSpec(-1, 1), 1000))
    assert run(tmp_path, "ec", "--curve=-1,1", "--limit", "2000") == 0
    assert load_cache(path).limit == 2000


def test_stats_command(tmp_path):
    code = run(tmp_path, "stats", "--source", "synth", "--limit", "2000", "--seed", "3",
               "--gammas", "1,2")
    assert code == 0


def test_thm3_and_lemma_sums_cli(tmp_path):
    assert run(tmp_path, "synth", "--limit", "3000", "--seed", "7") == 0
    assert run(tmp_path, "verify", "thm3", "--source", "synth", "--limit", "3000",
               "--seed", "7", "--standardization", "self") == 0
    assert run(tmp_path, "verify", "lemma-sums", "--source", "synth", "--limit", "3000",
               "--seed", "7", "--gammas", "0.5,1", "--checkpoints", "1000,3000") == 0
    report = VerificationReport.from_json((tmp_path / "thm3-clt.json").read_text())
    assert report.rows[0]["identity_rel_err"] <= 1e-6


def test_hall_tenenbaum_and_assumptions_cli(tmp_path):
    assert run(tmp_path, "verify", "hall-tenenbaum", "--source", "synth", "--limit", "3000",
               "--seed", "7", "--f", "ones") == 0
    assert run(tmp_path, "verify", "assumptions", "--source", "synth", "--limit", "3000",
               "--seed", "7", "--A", "2.0", "--grid", "128") == 0


def test_format_json_stdout(tmp_path, capsys):
    run(tmp_path, "tau", "--limit", "100")
    code = run(tmp_path, "verify", "thm2", "--source", "tau", "--limit", "100",
               "--checkpoints", "50,100", "--format", "json")
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["name"] == "thm2-cancellation"


def test_angles_command(tmp_path, capsys):
    assert run(tmp_path, "angles", "--source", "synth", "--limit", "2000", "--seed", "5") == 0
    assert capsys.readouterr().out.splitlines() == ["303 angle records from source synth"]
    # angles writes no file of its own: the cache holds only the synth pair
    names = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert names == ["synth_2000_5_hecke-chebyshev_0.25.astc", "synth_angles_2000_5.astc"]
    assert load_cache(tmp_path / "cache" / "synth_angles_2000_5.astc").limit == 2000


SYNTH150 = ["--source", "synth", "--limit", "150", "--seed", "9"]
SYNTH150_FILES = ["synth_150_9_hecke-chebyshev_0.25.astc", "synth_angles_150_9.astc"]


def _run_with_config(tmp_path, text, argv, files, params):
    """Run argv under a config file of `text`; check the cache files it left
    and the report parameters it wrote."""
    conf = tmp_path / "conf.txt"
    conf.write_text(text)
    assert run(tmp_path, *argv, "--config", str(conf)) == 0
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == files
    for path in tmp_path.glob("*.json"):
        parameters = VerificationReport.from_json(path.read_text()).parameters
        assert {k: parameters[k] for k in params} == params


def test_config_file_defaults(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("limit=150\nseed=9\n")
    code = run(tmp_path, "verify", "thm1", "--source", "synth", "--epsilon", "0.25",
               "--checkpoints", "50,150", "--config", str(conf))
    assert code == 0


def test_config_flag_overrides(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("limit=150\nseed=9\n")
    code = run(tmp_path, "verify", "thm1", "--source", "synth", "--limit", "300",
               "--seed", "9", "--epsilon", "0.25", "--checkpoints", "50,300",
               "--config", str(conf))
    assert code == 0


@pytest.mark.parametrize("text, argv, files, params", [
    ("limit=50\n", ["tau"], ["tau_50.astc"], {}),
    ("curve=-1,1\nlimit=200\n", ["ec"], ["traces_-1_1_200.astc"], {}),
    ("seed=9\n", ["synth", "--limit", "150"], SYNTH150_FILES, {}),
    ("epsilon=0.25\ncheckpoints=50,150\n", ["verify", "thm1", *SYNTH150], SYNTH150_FILES,
     {"eps": 0.25, "checkpoints": [50, 150]}),
    ("checkpoints=50,150\n", ["verify", "thm2", *SYNTH150], SYNTH150_FILES,
     {"checkpoints": [50, 150]}),
    ("checkpoints=50,150\n", ["verify", "lemma-sums", *SYNTH150], SYNTH150_FILES,
     {"checkpoints": [50, 150]}),
], ids=["tau-limit", "ec-curve-limit", "synth-seed", "thm1-eps-cps", "thm2-cps", "lemma-cps"])
def test_config_supplies_required_values(tmp_path, text, argv, files, params):
    _run_with_config(tmp_path, text, argv, files, params)


@pytest.mark.parametrize("text, argv, files, params", [
    ("limit=50\ncurve=1,1\n", ["ec", "--limit", "100"], ["traces_1_1_100.astc"], {}),
    ("epsilon=0.1\ncheckpoints=50,150\n", ["verify", "thm1", *SYNTH150, "--epsilon", "0.25"],
     SYNTH150_FILES, {"eps": 0.25, "checkpoints": [50, 150]}),
], ids=["ec-limit", "thm1-eps"])
def test_explicit_flag_beats_config_value(tmp_path, text, argv, files, params):
    # each config also supplies a value that the command requires and argv omits
    _run_with_config(tmp_path, text, argv, files, params)


@pytest.mark.parametrize("argv, flag", [
    (["tau"], "--limit"),
    (["ec", "--limit", "100"], "--curve"),
    (["synth", "--limit", "100"], "--seed"),
    (["verify", "thm1", *SYNTH150, "--checkpoints", "50,150"], "--epsilon"),
    (["verify", "thm2", *SYNTH150], "--checkpoints"),
    (["verify", "lemma-sums", *SYNTH150], "--checkpoints"),
], ids=["tau", "ec", "synth", "thm1", "thm2", "lemma-sums"])
def test_missing_value_exits_two_before_any_source(tmp_path, capsys, monkeypatch, argv, flag):
    # neither built nor loaded: a synth cache already in place is not read
    assert run(tmp_path, "synth", "--limit", "150", "--seed", "9") == 0
    capsys.readouterr()

    def touched(*_args, **_kw):
        raise AssertionError("a source was built or loaded")
    for name in ("expand_delta", "trace_series", "build_synthetic_sequence", "load_cache"):
        monkeypatch.setattr(stseq.cli, name, touched)
    conf = tmp_path / "conf.txt"
    conf.write_text(f"cache_dir={tmp_path / 'elsewhere'}\n")  # run's --cache-dir wins
    assert run(tmp_path, *argv, "--config", str(conf)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"usage error: {flag} is required for this command"]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == SYNTH150_FILES
    assert not (tmp_path / "elsewhere").exists()


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _parsers(child)


def test_config_can_supply_every_flag_value():
    # argparse's required=True ignores config defaults, so only the
    # subcommand selectors may use it; values are checked where they are read
    actions = [a for p in _parsers(stseq.cli.build_parser()) for a in p._actions]
    assert [a.dest for a in actions
            if a.required and not isinstance(a, argparse._SubParsersAction)] == []


def _commands(parser, tokens=()):
    """(subcommand tokens, leaf parser) of every command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(tokens), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _commands(child, (*tokens, name))


def _sample_value(action) -> str:
    if action.choices:
        return next(str(c) for c in action.choices if c != action.default)
    return {int: "3", float: "0.5"}.get(action.type, "1,2")


# every value flag of every command but --config, which is no config key
VALUE_FLAGS = [(tokens, a.option_strings[0], a.dest, _sample_value(a))
               for tokens, leaf in _commands(stseq.cli.build_parser())
               for a in leaf._actions if a.nargs != 0 and a.dest != "config"]


@pytest.mark.parametrize("tokens, flag, key, value", VALUE_FLAGS,
                         ids=[" ".join([*tokens, flag]) for tokens, flag, _, _ in VALUE_FLAGS])
def test_config_line_parses_as_its_flag(tmp_path, monkeypatch, tokens, flag, key, value):
    seen, defaults = [], vars(stseq.cli.build_parser().parse_args(tokens))
    monkeypatch.setattr(stseq.cli, defaults["func"].__name__,
                        lambda args: seen.append(vars(args)) or 0)
    conf = tmp_path / "conf.txt"
    conf.write_text(f"{key}={value}\n")
    assert main([*tokens, "--config", str(conf)]) == 0
    assert main([*tokens, f"{flag}={value}"]) == 0
    from_config, from_flag = seen
    assert from_config.pop("config") == str(conf) and from_flag.pop("config") is None
    assert from_config == from_flag
    assert from_config[key] != defaults[key]  # so the line, not a default, set it


@pytest.mark.parametrize("flag, name, reason", [
    ("--config", "missing.txt", "No such file or directory"),
    ("--cache-dir", "a-file", "File exists"),
    ("--out-dir", "a-file", "File exists"),
])
def test_unusable_path_exits_two(tmp_path, capsys, flag, name, reason):
    (tmp_path / "a-file").write_text("")
    paths = {"--cache-dir": str(tmp_path / "cache"), "--out-dir": str(tmp_path / "out")}
    paths[flag] = str(tmp_path / name)
    assert main(["tau", "--limit", "50", "--check", *(x for kv in paths.items() for x in kv)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"usage error: {flag} {tmp_path / name}: {reason}"]


@pytest.mark.parametrize("argv, name", [
    (["tau", "--limit", "50"], "tau_50.astc"),  # fails to load
    (["synth", "--limit", "300", "--seed", "7"], "synth_300_7_hecke-chebyshev_0.25.astc"),
    # the sequence file is missing, so the pair is rebuilt and the angles file fails to save
    (["synth", "--limit", "300", "--seed", "7"], "synth_angles_300_7.astc"),
])
def test_unusable_cache_file_exits_two(tmp_path, capsys, argv, name):
    cache = tmp_path / "cache"
    (cache / name).mkdir(parents=True)
    assert main([*argv, "--cache-dir", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"usage error: --cache-dir {cache / name}: Is a directory"]
    assert not any(p.name.endswith(".tmp") for p in cache.iterdir())


def test_curve_beyond_int64_exits_two(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["ec", "--curve=9223372036854775808,1", "--limit", "300",
                 "--cache-dir", str(cache)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "[-2^63, 2^63)" in err[0]
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["ec", "--curve=-1,1"],
    ["verify", "thm1", "--epsilon", "0.25", "--checkpoints", "3", "--source", "ec",
     "--curve=-1,1"],
    ["angles", "--source", "ec", "--curve=-1,1"],
], ids=["ec", "verify", "angles"])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_ec_limit_below_one_exits_two(tmp_path, capsys, argv, limit):
    # a limit below 1 is refused before any trace or cache file is made
    cache = tmp_path / "cache"
    assert main([*argv, "--limit", limit, "--cache-dir", str(cache),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: limit must be >= 1"]
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("argv,files", [
    (["tau", "--check"], []),
    (["tau", "--check"], ["tau_0.astc"]),
    (["synth", "--seed", "7"], []),
], ids=["tau", "tau-file", "synth"])
def test_limit_zero_is_refused_before_the_cache(tmp_path, capsys, argv, files):
    # a limit-0 exact table is a loadable file; the limit is refused before it
    # is read, so integrity_check never sees an empty table
    cache = tmp_path / "cache"
    cache.mkdir()
    for name in files:
        save_cache(cache / name, ExactTauTable.from_ints([0]))
    assert main([*argv, "--limit", "0", "--cache-dir", str(cache),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: limit must be >= 1"]
    assert sorted(p.name for p in cache.glob("*")) == files


def test_non_finite_rho_exits_two(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["synth", "--limit", "300", "--seed", "7", "--rho", "inf",
                 "--cache-dir", str(cache)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: rho must be finite and > 0, got inf"]
    assert list(cache.iterdir()) == []


def test_config_reaches_thm3_A(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("A=5.0\n")
    assert run(tmp_path, "verify", "thm3", "--source", "synth", "--limit", "2000",
               "--seed", "7", "--config", str(conf)) == 0
    report = VerificationReport.from_json((tmp_path / "thm3-clt.json").read_text())
    assert report.parameters["support_A"] == 5.0


def test_config_reaches_lemma_gammas(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("gammas=0.5\n")
    assert run(tmp_path, "verify", "lemma-sums", "--source", "synth", "--limit", "2000",
               "--seed", "7", "--checkpoints", "1000,2000", "--config", str(conf)) == 0
    report = VerificationReport.from_json((tmp_path / "lemma-moment-sums.json").read_text())
    assert report.parameters["gammas"] == [0.5]
    assert all([k for k in row if k.startswith("sum_gamma_")] == ["sum_gamma_0.5"]
               for row in report.rows)


def test_explicit_rho_beats_config(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("rho=0.5\n")
    assert run(tmp_path, "synth", "--limit", "500", "--seed", "7", "--rho", "0.25",
               "--config", str(conf)) == 0
    names = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert names == ["synth_500_7_hecke-chebyshev_0.25.astc", "synth_angles_500_7.astc"]


def test_bad_config_value_exits_two(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("limit=many\n")
    try:
        code = run(tmp_path, "verify", "thm1", "--source", "synth", "--seed", "1",
                   "--epsilon", "0.25", "--checkpoints", "50,100", "--config", str(conf))
    except SystemExit as exc:  # argparse rejects it as it would the flag's value
        code = exc.code
    assert code == 2


@pytest.mark.parametrize("line, argv", [
    ("format=xml", ["tau", "--limit", "50", "--check"]),
    ("rule=bogus", ["synth", "--limit", "100", "--seed", "1"]),
])
def test_config_value_outside_choices_exits_two(tmp_path, capsys, monkeypatch, line, argv):
    # argparse refuses it with the line it gives the typed flag, before any source is built
    monkeypatch.setattr(stseq.cli, "PrimePowerRule", None)
    with pytest.raises(SystemExit) as typed:
        run(tmp_path, *argv, f"--{line}")
    flag_err = capsys.readouterr().err
    conf = tmp_path / "conf.txt"
    conf.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv, "--config", str(conf))
    assert exc.value.code == typed.value.code == 2
    out, err = capsys.readouterr()
    key, value = line.split("=")
    assert out == ""
    assert err.splitlines() == [err.strip()] == [flag_err.strip()]
    assert err.startswith(f"usage error: argument --{key}: invalid choice: '{value}' (choose from ")
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


def test_explicit_format_beats_config(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("format=json\n")
    assert run(tmp_path, "tau", "--limit", "50", "--check", "--format", "csv",
               "--config", str(conf)) == 0
    out = capsys.readouterr().out
    assert out.endswith((tmp_path / "tau-integrity.csv").read_text())
    assert "{" not in out


@pytest.mark.parametrize("line", ["threads=4", "format=json", "gammas=1", "config=other.txt"])
def test_config_key_without_a_flag_of_the_command_exits_two(tmp_path, capsys, line):
    # synth has no --threads, --format or --gammas, and a config file names no other
    conf = tmp_path / "conf.txt"
    conf.write_text(line + "\n")
    assert run(tmp_path, "synth", "--limit", "50", "--seed", "1", "--config", str(conf)) == 2
    key = line.split("=")[0]
    assert capsys.readouterr() == ("", f"usage error: unknown config key '{key}'\n")
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


def test_config_reaches_thm3_standardization(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("standardization=finite-size\n")
    assert run(tmp_path, "verify", "thm3", "--source", "synth", "--limit", "2000",
               "--seed", "7", "--config", str(conf)) == 0
    report = VerificationReport.from_json((tmp_path / "thm3-clt.json").read_text())
    assert report.parameters["standardization"] == "finite-size"


def test_bad_config_key(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("bogus=1\n")
    code = run(tmp_path, "verify", "thm1", "--source", "synth", "--limit", "100",
               "--seed", "1", "--epsilon", "0.25", "--checkpoints", "50,100",
               "--config", str(conf))
    assert code == 2


SYNTH = ["--source", "synth", "--limit", "3000", "--seed", "7"]
SYNTH_CALLS = {
    "thm1-typical-size": ["verify", "thm1", *SYNTH, "--epsilon", "0.25",
                          "--checkpoints", "1000,3000"],
    "thm3-clt": ["verify", "thm3", *SYNTH, "--standardization", "finite-size"],
    "assumption-diagnostics": ["verify", "assumptions", *SYNTH],
}


def _canonical(tmp_path, stem):
    return VerificationReport.from_json((tmp_path / f"{stem}.json").read_text()).canonical_bytes()


def _fresh_build_bytes(tmp_path):
    """Canonical report bytes from a cache directory that `synth` never saw."""
    fresh = tmp_path / "fresh"
    for stem, argv in SYNTH_CALLS.items():
        assert run(fresh, *argv) == 0
    return {stem: _canonical(fresh, stem) for stem in SYNTH_CALLS}


def test_verify_reads_synth_cache(tmp_path, monkeypatch):
    expected = _fresh_build_bytes(tmp_path)
    assert run(tmp_path, "synth", "--limit", "3000", "--seed", "7") == 0

    def build(*_args, **_kw):
        raise AssertionError("synthetic sequence rebuilt despite a valid cache")
    monkeypatch.setattr(stseq.cli, "build_synthetic_sequence", build)
    for stem, argv in SYNTH_CALLS.items():
        assert run(tmp_path, *argv) == 0
        assert _canonical(tmp_path, stem) == expected[stem]


@pytest.mark.parametrize("name", ["synth_angles_3000_7.astc",
                                  "synth_3000_7_hecke-chebyshev_0.25.astc"])
def test_corrupt_synth_cache_is_rebuilt(tmp_path, monkeypatch, name):
    expected = _fresh_build_bytes(tmp_path)
    assert run(tmp_path, "synth", "--limit", "3000", "--seed", "7") == 0
    path = tmp_path / "cache" / name
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    builds = []
    real = stseq.cli.build_synthetic_sequence
    monkeypatch.setattr(stseq.cli, "build_synthetic_sequence",
                        lambda *a, **kw: builds.append(1) or real(*a, **kw))
    for stem, argv in SYNTH_CALLS.items():
        assert run(tmp_path, *argv) == 0
        assert _canonical(tmp_path, stem) == expected[stem]
    # the first call that read the corrupt file rebuilt and overwrote it, the rest loaded:
    # thm1 for the sequence file, assumptions for the angles file
    assert builds == [1]


def test_rho_keys_its_own_cache_file(tmp_path):
    assert run(tmp_path, "synth", "--limit", "500", "--seed", "7", "--rho", "0.25") == 0
    assert run(tmp_path, "verify", "thm1", "--source", "synth", "--limit", "500", "--seed", "7",
               "--rho", "0.2500001", "--epsilon", "0.25", "--checkpoints", "100,500") == 0
    names = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert names == ["synth_500_7_hecke-chebyshev_0.25.astc",
                     "synth_500_7_hecke-chebyshev_0.2500001.astc",
                     "synth_angles_500_7.astc"]
    seq = load_cache(tmp_path / "cache" / "synth_500_7_hecke-chebyshev_0.2500001.astc")
    assert seq.meta["rho"] == 0.2500001


def test_corrupt_cache_file_is_named_on_stderr(tmp_path, capsys):
    assert run(tmp_path, "synth", "--limit", "3000", "--seed", "7") == 0
    path = tmp_path / "cache" / "synth_3000_7_hecke-chebyshev_0.25.astc"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run(tmp_path, *SYNTH_CALLS["thm1-typical-size"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"cache file {path} is unreadable (payload checksum mismatch); rebuilding it"]
    assert run(tmp_path, *SYNTH_CALLS["thm1-typical-size"]) == 0  # rebuilt, so read silently
    assert capsys.readouterr().err == ""


def _opened(monkeypatch):
    """The cache files each later call passes to load_cache, by file name."""
    opened = []
    real = stseq.cli.load_cache
    monkeypatch.setattr(stseq.cli, "load_cache", lambda path: opened.append(path.name)
                        or real(path))
    return opened


def test_only_assumptions_opens_the_synth_angles(tmp_path, monkeypatch):
    assert run(tmp_path, "synth", "--limit", "3000", "--seed", "7") == 0
    opened = _opened(monkeypatch)
    calls = {**SYNTH_CALLS, "lemma-moment-sums": ["verify", "lemma-sums", *SYNTH,
                                                  "--checkpoints", "1000,3000"]}
    seq_file = "synth_3000_7_hecke-chebyshev_0.25.astc"
    for stem, argv in calls.items():
        opened.clear()
        assert run(tmp_path, *argv) == 0
        if stem == "assumption-diagnostics":
            assert opened == ["synth_angles_3000_7.astc", seq_file]
        else:
            assert opened == [seq_file], stem


def test_cold_assumptions_takes_the_sequence_from_its_build(tmp_path, monkeypatch):
    # with no synth file, one build saves both files and hands both objects over
    assert run(tmp_path / "warm", "synth", "--limit", "3000", "--seed", "7") == 0
    saved = {p.name: p.read_bytes() for p in (tmp_path / "warm" / "cache").iterdir()}
    opened = _opened(monkeypatch)
    builds = []
    real = stseq.cli.build_synthetic_sequence
    monkeypatch.setattr(stseq.cli, "build_synthetic_sequence",
                        lambda *a, **kw: builds.append(1) or real(*a, **kw))
    stem = "assumption-diagnostics"
    assert run(tmp_path, *SYNTH_CALLS[stem]) == 0
    assert builds == [1] and opened == []
    assert {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()} == saved
    cold = _canonical(tmp_path, stem)
    assert run(tmp_path, *SYNTH_CALLS[stem]) == 0  # warm: both objects read from their files
    assert builds == [1] and len(opened) == 2
    assert _canonical(tmp_path, stem) == cold


def test_missing_synth_angles_rebuilt_only_by_assumptions(tmp_path, monkeypatch):
    expected = _fresh_build_bytes(tmp_path)
    assert run(tmp_path, "synth", "--limit", "3000", "--seed", "7") == 0
    cache = tmp_path / "cache"
    angles = cache / "synth_angles_3000_7.astc"
    angles_bytes = angles.read_bytes()
    angles.unlink()
    builds = []
    real = stseq.cli.build_synthetic_sequence
    monkeypatch.setattr(stseq.cli, "build_synthetic_sequence",
                        lambda *a, **kw: builds.append(1) or real(*a, **kw))
    assert run(tmp_path, *SYNTH_CALLS["thm1-typical-size"]) == 0
    assert builds == []
    assert sorted(p.name for p in cache.iterdir()) == ["synth_3000_7_hecke-chebyshev_0.25.astc"]
    for _ in range(2):
        assert run(tmp_path, *SYNTH_CALLS["assumption-diagnostics"]) == 0
        stem = "assumption-diagnostics"
        assert _canonical(tmp_path, stem) == expected[stem]
    assert builds == [1]
    assert angles.read_bytes() == angles_bytes


def test_missing_synth_sequence_rebuilt_once(tmp_path, monkeypatch):
    # the mirror case: the first call that reads the sequence rebuilds the
    # pair, rewriting the angles file with the same bytes
    expected = _fresh_build_bytes(tmp_path)
    assert run(tmp_path, "synth", "--limit", "3000", "--seed", "7") == 0
    cache = tmp_path / "cache"
    angles = cache / "synth_angles_3000_7.astc"
    angles_bytes = angles.read_bytes()
    (cache / "synth_3000_7_hecke-chebyshev_0.25.astc").unlink()
    builds = []
    real = stseq.cli.build_synthetic_sequence
    monkeypatch.setattr(stseq.cli, "build_synthetic_sequence",
                        lambda *a, **kw: builds.append(1) or real(*a, **kw))
    assert run(tmp_path, *SYNTH_CALLS["thm1-typical-size"]) == 0
    assert builds == [1]
    assert sorted(p.name for p in cache.iterdir()) == [
        "synth_3000_7_hecke-chebyshev_0.25.astc", "synth_angles_3000_7.astc"]
    assert angles.read_bytes() == angles_bytes
    for stem, argv in SYNTH_CALLS.items():
        assert run(tmp_path, *argv) == 0
        assert _canonical(tmp_path, stem) == expected[stem]
    assert builds == [1]


ANGLE_CALLS = {"stats": ["stats", "--gammas", "1,2"], "angles": ["angles"]}


@pytest.mark.parametrize("source, build, opens, unused", [
    (SYNTH, ["synth", "--limit", "3000", "--seed", "7"], ["synth_angles_3000_7.astc"], None),
    (["--source", "tau", "--limit", "500"], ["tau", "--limit", "500"], ["tau_500.astc"],
     "normalize_tau"),
    (["--source", "ec", "--curve=-1,1", "--limit", "500"], ["ec", "--curve=-1,1", "--limit", "500"],
     ["traces_-1_1_500.astc"], "ec_normalized_sequence"),
], ids=["synth", "tau", "ec"])
def test_stats_and_angles_read_only_the_angles(tmp_path, monkeypatch, source, build, opens,
                                               unused):
    assert run(tmp_path, *build) == 0
    opened = _opened(monkeypatch)
    if unused is not None:  # the sequence is never normalized
        monkeypatch.setattr(stseq.cli, unused, lambda *a, **kw: pytest.fail(f"{unused} called"))
    for argv in ANGLE_CALLS.values():
        opened.clear()
        assert run(tmp_path, argv[0], *source, *argv[1:]) == 0
        assert opened == opens


def test_stats_and_angles_need_no_synth_sequence_file(tmp_path, capsys):
    assert run(tmp_path, "synth", "--limit", "3000", "--seed", "7") == 0

    def outputs():  # the angles line and the stats report's bytes (its text holds a runtime)
        assert run(tmp_path, "stats", *SYNTH, "--gammas", "1,2") == 0
        capsys.readouterr()
        assert run(tmp_path, "angles", *SYNTH) == 0
        return capsys.readouterr().out, _canonical(tmp_path, "prime-angle-summary")

    expected = outputs()
    cache = tmp_path / "cache"
    (cache / "synth_3000_7_hecke-chebyshev_0.25.astc").unlink()
    assert outputs() == expected
    assert sorted(p.name for p in cache.iterdir()) == ["synth_angles_3000_7.astc"]

import json

import pytest

import stseq.cli
from stseq.cache import load_cache, save_cache
from stseq.cli import main
from stseq.elliptic import CurveSpec, trace_series
from stseq.errors import DataCorruptionError
from stseq.report import VerificationReport, rows_from_csv
from stseq.tau import tau_naive_oracle


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
    assert builds == [1]  # the first call rebuilt and overwrote, the rest loaded


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

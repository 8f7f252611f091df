import json

import numpy as np
import pytest

from veriml import cache, cli, runner, steg, verifiers
from veriml import config as cfgmod
from veriml.errors import TrainingFailureError


@pytest.fixture()
def config_path(tmp_path):
    raw = cfgmod.builtin_config(cfgmod.DETERMINISTIC_BENCH, trials=2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_run_writes_report(config_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["run", "--config", config_path, "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["scenario"] == "DeterministicBench"
    assert report["aggregates"]["detection_rate"] == 1.0
    err = capsys.readouterr().err
    assert "detection rate 1.000" in err


def test_run_stdout_and_seed_override(config_path, capsys):
    code = cli.main(["run", "--config", config_path, "--seed", "7"])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["master_seed"] == 7


def test_missing_config_file_is_a_config_error(capsys):
    code = cli.main(["run", "--config", "/nonexistent/cfg.json"])
    assert code == cli.EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_invalid_config_reports_field_errors(tmp_path, capsys):
    raw = cfgmod.builtin_config(cfgmod.STEG_PROBE)
    raw["trials"] = 0
    raw["verifier"]["alpha"] = 3.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = cli.main(["run", "--config", str(path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "trials" in err and "verifier.alpha" in err


def test_non_finite_config_number_is_a_config_error(tmp_path, capsys):
    raw = cfgmod.builtin_config(cfgmod.DETERMINISTIC_BENCH, trials=1)
    raw["supplier"]["train"]["epochs"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(raw), encoding="utf-8")  # writes Infinity
    code = cli.main(["run", "--config", str(path)])
    assert code == cli.EXIT_CONFIG
    assert "supplier.train.epochs: must be finite" in capsys.readouterr().err


def test_hardened_deterministic_supplier_is_a_config_error(tmp_path, capsys):
    # the reference retrain cannot reproduce adversarial hardening, so this
    # config used to flag an honest provider in every trial and exit 0
    raw = cfgmod.builtin_config(cfgmod.DETERMINISTIC_BENCH,
                                provider_kind="HonestPassthrough", trials=1)
    raw["supplier"]["adversarial_epsilon"] = 0.05
    path = tmp_path / "hardened.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = cli.main(["run", "--config", str(path)])
    assert code == cli.EXIT_CONFIG
    assert "supplier.adversarial_epsilon" in capsys.readouterr().err


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = cli.main(["run", "--config", str(path)])
    assert code == cli.EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


def test_sweep_bundle(config_path, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = cli.main(["sweep", "--config", config_path,
                     "--param", "verifier.n_queries", "--values", "5,10",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    bundle = json.loads(out.read_text(encoding="utf-8"))
    assert bundle["sweep_param"] == "verifier.n_queries"
    assert bundle["values"] == [5, 10]
    assert [r["config"]["verifier"]["n_queries"] for r in bundle["reports"]] \
        == [5, 10]


def test_sweep_rejects_non_numeric_values(config_path, capsys):
    code = cli.main(["sweep", "--config", config_path,
                     "--param", "verifier.n_queries", "--values", "5,banana"])
    assert code == cli.EXIT_CONFIG
    assert "not a number" in capsys.readouterr().err


def test_explain_round_trip(config_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", config_path, "--out", str(out)]) == 0
    capsys.readouterr()
    code = cli.main(["explain", "--report", str(out), "--trial", "1"])
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "trial 1" in text
    assert "decision:" in text


def test_explain_out_of_range_trial(config_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", config_path, "--out", str(out)]) == 0
    code = cli.main(["explain", "--report", str(out), "--trial", "99"])
    assert code == cli.EXIT_CONFIG
    assert "out of range" in capsys.readouterr().err


def test_explain_missing_report(capsys):
    code = cli.main(["explain", "--report", "/nonexistent/r.json"])
    assert code == cli.EXIT_CONFIG


def test_auditor_demo_reproducible(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["auditor-demo", "--rounds", "2", "--out", str(a_path)]) == 0
    assert cli.main(["auditor-demo", "--rounds", "2", "--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()
    demo = json.loads(a_path.read_text(encoding="utf-8"))
    assert demo["chain_ok"] and demo["conservation"]
    assert len(demo["rounds"]) == 2
    err = capsys.readouterr().err
    assert "chain_ok=True" in err


def test_auditor_demo_rejects_rounds_the_client_cannot_fund(tmp_path, capsys):
    out = str(tmp_path / "demo.json")
    # fees are fee + 3r: 55 rounds cost 9955 of the built-in balance 10000
    assert cli.main(["auditor-demo", "--rounds", "55", "--out", out]) == cli.EXIT_OK
    assert cli.main(["auditor-demo", "--rounds", "56", "--out", out]) == cli.EXIT_CONFIG
    assert "client balance" in capsys.readouterr().err
    assert cli.main(["auditor-demo", "--rounds", "0", "--out", out]) == cli.EXIT_CONFIG
    assert "rounds must be >= 1" in capsys.readouterr().err


def test_steg_calibration_failure_is_a_fixture_error(tmp_path, monkeypatch, capsys):
    # every container comes out invalid, in the speculative batch and in the
    # one-at-a-time fallback alike, so calibration exhausts its resamples
    real = steg.generate_message_batch

    def no_container(*args, **kwargs):
        Z, flagged, kept = real(*args, **kwargs)
        return Z, np.zeros_like(flagged), kept

    monkeypatch.setattr(steg, "generate_message_batch", no_container)
    monkeypatch.setattr(verifiers, "generate_message_batch", no_container)
    path = tmp_path / "steg.json"
    path.write_text(json.dumps(cfgmod.builtin_config(cfgmod.STEG_PROBE, trials=1)),
                    encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_FIXTURE
    assert "steg calibration failed" in capsys.readouterr().err


def _diverged_supplier_config(tmp_path):
    raw = cfgmod.builtin_config(cfgmod.PROBABILISTIC_BENCH, trials=1)
    raw["supplier"]["train"]["learning_rate"] = 1e6
    path = tmp_path / "diverged.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return raw, str(path)


def test_chance_level_supplier_is_a_fixture_error(tmp_path, capsys):
    # lr=1e6 leaves finite weights at chance accuracy; this used to exit 0
    # with a detection rate of 0 against a SubstituteModel
    _, path = _diverged_supplier_config(tmp_path)
    assert cli.main(["run", "--config", path]) == cli.EXIT_FIXTURE
    err = capsys.readouterr().err
    assert "supplier training accuracy 0.333 does not beat chance" in err
    assert "train_accuracy" in err


def test_chance_level_supplier_from_an_old_cache_entry_is_rejected(
        tmp_path, monkeypatch, capsys):
    raw, path = _diverged_supplier_config(tmp_path)
    monkeypatch.setenv("VERIML_CACHE_DIR", str(tmp_path / "cache"))
    # store the entry the way a build before the gate did: training alone
    cfg = cfgmod.validate_config(raw)
    data = runner._build_data(raw["supplier"]["data"])
    _, tcfg = runner._seed_and_train_cfg(raw["supplier"]["train"],
                                         raw["supplier"]["data"]["seed"])
    cache.trained_model(tuple(raw["supplier"]["architecture"]), tcfg,
                        data.recipe, data.train_per_class)
    assert len(list((tmp_path / "cache").glob("*.bin"))) == 1

    def no_training(*args, **kwargs):
        raise AssertionError("the stored supplier must be loaded, not retrained")

    monkeypatch.setattr(cache, "train_sgd", no_training)
    with pytest.raises(TrainingFailureError):
        runner.build_fixtures(cfg)
    assert cli.main(["run", "--config", path]) == cli.EXIT_FIXTURE
    assert "does not beat chance" in capsys.readouterr().err


def test_selftest_passes(capsys):
    code = cli.main(["selftest"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 8
    assert all(l.startswith("PASS") for l in lines)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0

import copy
import json
import math

import pytest

from veriml import config as cfgmod
from veriml.errors import ConfigValidationError


def _builtin(scenario, **kw):
    return cfgmod.builtin_config(scenario, **kw)


def _expect_errors(raw, *fragments):
    with pytest.raises(ConfigValidationError) as exc:
        cfgmod.validate_config(raw)
    text = "\n".join(exc.value.errors)
    for fragment in fragments:
        assert fragment in text, f"{fragment!r} not in:\n{text}"
    return exc.value.errors


# -- builtins and round trips ------------------------------------------------------


@pytest.mark.parametrize("scenario", cfgmod.SCENARIOS)
def test_builtin_validates(scenario):
    cfg = cfgmod.validate_config(_builtin(scenario))
    assert cfg.scenario == scenario
    assert cfg.trials == 5
    assert cfg.raw["schema_version"] == cfgmod.SCHEMA_VERSION


@pytest.mark.parametrize("scenario", cfgmod.SCENARIOS)
def test_serialize_parse_round_trip(scenario):
    cfg = cfgmod.validate_config(_builtin(scenario))
    text = json.dumps(cfg.raw, sort_keys=True, indent=2)
    again = cfgmod.parse_config(text)
    assert again == cfg
    assert json.dumps(again.raw, sort_keys=True, indent=2) == text


def test_builtin_provider_kinds():
    for kind in ("HonestPassthrough", "SubstituteModel", "PartialCheat",
                 "CachedReplay", "NoisyPassthrough"):
        cfg = cfgmod.validate_config(_builtin(cfgmod.STEG_PROBE,
                                              provider_kind=kind))
        assert cfg.raw["provider"]["kind"] == kind


def test_validate_does_not_mutate_input():
    raw = _builtin(cfgmod.STEG_PROBE)
    frozen = copy.deepcopy(raw)
    cfgmod.validate_config(raw)
    assert raw == frozen


def test_validation_fills_defaults():
    raw = _builtin(cfgmod.ROBUSTNESS)
    raw["verifier"].pop("tolerance", None)
    raw["verifier"].pop("sigmoid", None)
    raw["supplier"].pop("latency", None)
    cfg = cfgmod.validate_config(raw)
    ver = cfg.raw["verifier"]
    assert ver["tolerance"] == 0.01
    mq = ver["max_queries"]
    assert ver["sigmoid"] == {"q0": mq / 4.0, "s_scale": mq / 16.0}
    lat = cfg.raw["supplier"]["latency"]
    assert lat["base_ms"] == 4.0 and lat["jitter_ms"] == 2.0


# -- failure modes -----------------------------------------------------------------


def test_rejects_non_object():
    with pytest.raises(ConfigValidationError):
        cfgmod.validate_config("not a dict")


def test_unknown_scenario_and_schema():
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["scenario"] = "Seance"
    raw["schema_version"] = 9
    errors = _expect_errors(raw, "scenario:", "schema_version:")
    assert errors == sorted(errors)


def test_numeric_field_rules():
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["trials"] = 0
    _expect_errors(raw, "trials:")
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["master_seed"] = -1
    _expect_errors(raw, "master_seed:")
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["master_seed"] = 2 ** 64
    _expect_errors(raw, "master_seed:")
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["trials"] = True  # bools are not counts
    _expect_errors(raw, "trials:")
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["trials"] = 2.5
    _expect_errors(raw, "trials:")
    # json reads NaN and Infinity; both used to crash or slip through
    for value in (math.nan, math.inf, -math.inf):
        raw = _builtin(cfgmod.STEG_PROBE)
        raw["master_seed"] = value
        raw["supplier"]["train"]["epochs"] = value
        raw["supplier"]["data"]["spread"] = value
        errors = _expect_errors(raw, "master_seed: must be finite",
                                "supplier.train.epochs: must be finite",
                                "supplier.data.spread: must be finite")
        assert len(errors) == 3
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["supplier"]["train"]["learning_rate"] = 10 ** 400  # no float holds it
    _expect_errors(raw, "supplier.train.learning_rate: must be finite")


@pytest.mark.parametrize("scenario", [cfgmod.DETERMINISTIC_BENCH, cfgmod.AUDITOR])
def test_retrained_suppliers_reject_adversarial_epsilon(scenario):
    # the published seeds carry no epsilon, so the reference retrain and the
    # oracles would train an unhardened model and convict an honest provider
    raw = _builtin(scenario)
    raw["supplier"]["adversarial_epsilon"] = 0.05
    _expect_errors(raw, "supplier.adversarial_epsilon: must be 0")
    raw["supplier"]["adversarial_epsilon"] = 0.0
    cfgmod.validate_config(raw)


def test_int_valued_floats_are_accepted():
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["trials"] = 5.0
    cfg = cfgmod.validate_config(raw)
    assert cfg.trials == 5
    assert isinstance(cfg.trials, int)


def test_missing_sections_reported_by_path():
    raw = _builtin(cfgmod.STEG_PROBE)
    del raw["supplier"]["train"]
    _expect_errors(raw, "supplier.train: missing")
    raw = _builtin(cfgmod.STEG_PROBE)
    del raw["verifier"]
    _expect_errors(raw, "verifier:")


def test_multiple_errors_collected_in_one_pass():
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["trials"] = 0
    raw["verifier"]["alpha"] = 3.0
    errors = _expect_errors(raw, "trials:", "verifier.alpha:")
    assert len(errors) >= 2


def test_architecture_must_match_data_dim():
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["supplier"]["architecture"][0] = 7
    _expect_errors(raw, "supplier.architecture")


def test_architecture_output_must_match_n_classes():
    raw = _builtin(cfgmod.DETERMINISTIC_BENCH)
    raw["supplier"]["architecture"] = [8, 24, 4]
    raw["provider"]["cheap"]["architecture"] = [8, 3, 2]
    errors = _expect_errors(
        raw, "supplier.architecture: output width 4 does not match "
             "supplier.data.n_classes 3",
        "provider.cheap.architecture: output width 2")
    assert len(errors) == 2


@pytest.mark.parametrize("block", ["supplier", "provider.cheap"])
@pytest.mark.parametrize("value", ["abc", -1, 2 ** 70, 1.5, 613])
def test_train_data_seed_is_only_a_steg_setting(block, value):
    # the supplier and the cheap model train on supplier.data.seed's pool;
    # only the steg block draws from a data_seed of its own
    raw = _builtin(cfgmod.STEG_PROBE)
    train = raw["supplier"]["train"] if block == "supplier" \
        else raw["provider"]["cheap"]["train"]
    train["data_seed"] = value
    errors = _expect_errors(raw, f"{block}.train.data_seed: not a setting here")
    assert len(errors) == 1
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["steg"]["train"]["data_seed"] = value
    if value == 613:
        cfgmod.validate_config(raw)  # the steg block's own stream
    else:
        _expect_errors(raw, "steg.train.data_seed")


def test_steg_scenario_needs_steg_block():
    raw = _builtin(cfgmod.STEG_PROBE)
    del raw["steg"]
    _expect_errors(raw, "steg:")


def test_steg_probe_budget_fits_holdout():
    raw = _builtin(cfgmod.STEG_PROBE)
    # 100 held covers per class * 3 classes = 300; calibration + k must fit
    raw["steg"]["calibration_count"] = 299
    _expect_errors(raw, "calibration_count")


def test_degenerate_probe_plan_rejected():
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["verifier"]["frac_steg"] = 0.999
    _expect_errors(raw, "verifier.frac_steg")


def test_metaresult_requires_mac_key():
    raw = _builtin(cfgmod.METARESULT)
    raw["supplier"]["mac_key_hex"] = None
    _expect_errors(raw, "mac_key_hex")
    raw = _builtin(cfgmod.METARESULT)
    raw["supplier"]["mac_key_hex"] = "zz" * 32
    _expect_errors(raw, "mac_key_hex")


def test_deterministic_bench_requires_full_pool():
    raw = _builtin(cfgmod.DETERMINISTIC_BENCH)
    raw["supplier"]["data"]["train_per_class"] = 100
    _expect_errors(raw, "train_per_class")


def test_probabilistic_k_must_fit_holdout():
    raw = _builtin(cfgmod.PROBABILISTIC_BENCH)
    raw["verifier"]["k"] = 10 ** 6
    _expect_errors(raw, "verifier.k")


def test_provider_kind_requirements():
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["provider"]["kind"] = "SubstituteModel"
    del raw["provider"]["cheap"]
    _expect_errors(raw, "provider.cheap")
    raw = _builtin(cfgmod.STEG_PROBE, provider_kind="NoisyPassthrough")
    raw["provider"]["noise_sigma"] = 0.0
    _expect_errors(raw, "noise_sigma")
    raw = _builtin(cfgmod.STEG_PROBE)
    raw["provider"]["kind"] = "Clairvoyant"
    _expect_errors(raw, "provider.kind")


def test_partial_cheat_rate_range():
    raw = _builtin(cfgmod.STEG_PROBE, provider_kind="PartialCheat")
    raw["provider"]["cheat_rate"] = 1.5
    _expect_errors(raw, "cheat_rate")
    raw = _builtin(cfgmod.STEG_PROBE, provider_kind="PartialCheat")
    for edge in (0.0, 1.0):
        raw["provider"]["cheat_rate"] = edge
        cfgmod.validate_config(raw)  # both ends legal


@pytest.mark.parametrize("scenario, path, value, message", [
    (cfgmod.DETERMINISTIC_BENCH, "supplier.data.dim", 1, "must be >= 2"),
    (cfgmod.ROBUSTNESS, "verifier.tau", 1.0, "must be < 1"),
    (cfgmod.ROBUSTNESS, "verifier.sigmoid.q0", 0, "must be > 0"),
    (cfgmod.STEG_PROBE, "steg.beta", 0, "must be > 0"),
])
def test_values_the_constructors_reject_fail_validation(scenario, path, value,
                                                        message):
    # each used to pass validation and fail later inside the fixture build
    # or a trial, with no field path
    raw = _builtin(scenario)
    if scenario == cfgmod.ROBUSTNESS:
        raw["verifier"]["sigmoid"] = {"q0": 150.0, "s_scale": 37.5}
    *parents, key = path.split(".")
    obj = raw
    for name in parents:
        obj = obj[name]
    obj[key] = value
    _expect_errors(raw, f"{path}: {message}")


def test_auditor_takes_no_provider():
    raw = _builtin(cfgmod.AUDITOR)
    assert raw["provider"] is None
    raw["provider"] = {"kind": "HonestPassthrough"}
    _expect_errors(raw, "provider")


def test_auditor_byzantine_majority_guard():
    raw = _builtin(cfgmod.AUDITOR)
    raw["verifier"]["n_byzantine"] = 4  # honest 3 of 7 cannot reach majority
    _expect_errors(raw, "n_byzantine")


def test_auditor_fee_must_fit_client_balance():
    raw = _builtin(cfgmod.AUDITOR)
    raw["verifier"]["fee"] = raw["verifier"]["client_balance"] + 1
    _expect_errors(raw, "verifier.fee: fee 10001 exceeds the client balance 10000")
    raw["verifier"]["fee"] = raw["verifier"]["client_balance"]
    cfgmod.validate_config(raw)  # one round can spend it all


def test_robustness_tau_must_beat_chance():
    raw = _builtin(cfgmod.ROBUSTNESS)
    raw["verifier"]["tau"] = 0.5  # 2 classes: chance is 0.5
    _expect_errors(raw, "verifier.tau")


def test_non_steg_scenarios_normalize_steg_to_none():
    cfg = cfgmod.validate_config(_builtin(cfgmod.DETERMINISTIC_BENCH))
    assert cfg.raw["steg"] is None


# -- parse / serialize / set ------------------------------------------------------


def test_parse_rejects_bad_json():
    with pytest.raises(ConfigValidationError) as exc:
        cfgmod.parse_config("{nope")
    assert "not valid JSON" in exc.value.errors[0]


def test_set_config_value_paths():
    # validation fills the cheat_rate default in, making it sweepable
    raw = cfgmod.validate_config(
        _builtin(cfgmod.STEG_PROBE, provider_kind="PartialCheat")).raw
    assert raw["provider"]["cheat_rate"] == 0.0
    out = cfgmod.set_config_value(raw, "provider.cheat_rate", 0.25)
    assert out["provider"]["cheat_rate"] == 0.25
    assert raw["provider"]["cheat_rate"] == 0.0  # original untouched
    out = cfgmod.set_config_value(raw, "master_seed", 7)
    assert out["master_seed"] == 7
    with pytest.raises(ConfigValidationError):
        cfgmod.set_config_value(raw, "provider.nope", 1)
    with pytest.raises(ConfigValidationError):
        cfgmod.set_config_value(raw, "provider.kind", 1)  # not numeric
    with pytest.raises(ConfigValidationError):
        cfgmod.set_config_value(raw, "scenario.deep.path", 1)


def test_builtin_rejects_unknown_scenario():
    with pytest.raises(ConfigValidationError):
        cfgmod.builtin_config("Seance")

"""Declarative scenario configs: one JSON document describes the supplier
fixture, the provider under test, and the verifier parameters for a trial
campaign. Validation collects every problem with its field path before
raising, and parsing normalizes (fills defaults), so parsing the JSON dump
of a config's normalized dict gives the same config back.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

from .entities import (NOISY_PASSTHROUGH, PARTIAL_CHEAT, PROVIDER_KINDS,
                       SUBSTITUTE_MODEL)
from .errors import ConfigValidationError

STEG_PROBE = "StegProbe"
DETERMINISTIC_BENCH = "DeterministicBench"
PROBABILISTIC_BENCH = "ProbabilisticBench"
METARESULT = "Metaresult"
ROBUSTNESS = "Robustness"
AUDITOR = "Auditor"

SCENARIOS = (STEG_PROBE, DETERMINISTIC_BENCH, PROBABILISTIC_BENCH,
             METARESULT, ROBUSTNESS, AUDITOR)

SCHEMA_VERSION = 1
_MAX_SEED = 2 ** 64 - 1


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated, fully-normalized scenario description. `raw` is the
    normalized JSON-shaped dict (defaults filled in); reports embed it
    verbatim, so equality is structural."""

    scenario: str
    master_seed: int
    trials: int
    raw: dict = field(repr=False)


class _Check:
    """Accumulates `path: problem` strings while walking a config dict."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def number(self, obj: dict, path: str, key: str, lo=None, hi=None,
               integer=False, default=None):
        full = f"{path}.{key}" if path else key
        if key not in obj:
            if default is None:
                self.fail(full, "missing")
                return None
            obj[key] = default
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(full, f"expected a number, got {type(value).__name__}")
            return None
        if not integer:
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf
        if isinstance(value, float) and not math.isfinite(value):
            self.fail(full, "must be finite")  # json reads NaN and Infinity
            return None
        if integer and isinstance(value, float):
            if value != int(value):
                self.fail(full, "expected an integer")
                return None
            value = int(value)
        obj[key] = value
        if lo is not None and value < lo:
            self.fail(full, f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            self.fail(full, f"must be <= {hi}, got {value}")
        return value

    def choice(self, obj: dict, path: str, key: str, options, default=None):
        full = f"{path}.{key}" if path else key
        if key not in obj:
            if default is None:
                self.fail(full, "missing")
                return None
            obj[key] = default
        value = obj[key]
        if value not in options:
            self.fail(full, f"must be one of {sorted(options)}, got {value!r}")
            return None
        return value

    def section(self, obj: dict, path: str, key: str, required=True):
        full = f"{path}.{key}" if path else key
        if key not in obj or obj[key] is None:
            if required:
                self.fail(full, "missing")
            return None
        if not isinstance(obj[key], dict):
            self.fail(full, "expected an object")
            return None
        return obj[key]


def _check_latency(chk: _Check, obj: dict, path: str, default_base: float):
    lat = obj.get("latency")
    if lat is None:
        lat = obj["latency"] = {}
    if not isinstance(lat, dict):
        chk.fail(f"{path}.latency", "expected an object")
        return
    chk.number(lat, f"{path}.latency", "base_ms", lo=0.0, default=default_base)
    chk.number(lat, f"{path}.latency", "jitter_ms", lo=0.0, default=default_base / 2)
    chk.number(lat, f"{path}.latency", "seed", lo=0, hi=_MAX_SEED, integer=True,
               default=0)


def _check_architecture(chk: _Check, obj: dict, path: str, data):
    """Layer widths; the first must be the data dim and the last the number
    of classes wherever the `data` block gives them."""
    full = f"{path}.architecture"
    arch = obj.get("architecture")
    if not isinstance(arch, list) or len(arch) < 2:
        chk.fail(full, "expected a list of at least 2 layer widths")
        return None
    for i, d in enumerate(arch):
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            chk.fail(f"{full}[{i}]", "layer widths must be positive integers")
            return None
    if not isinstance(data, dict):
        return arch
    dim, n_classes = data.get("dim"), data.get("n_classes")
    if isinstance(dim, int) and arch[0] != dim:
        chk.fail(full, f"input width {arch[0]} does not match data dim {dim}")
    if isinstance(n_classes, int) and arch[-1] != n_classes:
        chk.fail(full, f"output width {arch[-1]} does not match "
                       f"supplier.data.n_classes {n_classes}")
    return arch


def _check_train(chk: _Check, obj: dict, path: str, with_data_seed=False):
    tr = chk.section(obj, path, "train")
    if tr is None:
        return
    p = f"{path}.train"
    chk.number(tr, p, "learning_rate", lo=1e-9)
    chk.number(tr, p, "epochs", lo=1, integer=True)
    chk.number(tr, p, "batch_size", lo=1, integer=True)
    chk.number(tr, p, "weight_seed", lo=0, hi=_MAX_SEED, integer=True)
    chk.number(tr, p, "shuffle_seed", lo=0, hi=_MAX_SEED, integer=True)
    if with_data_seed:
        chk.number(tr, p, "data_seed", lo=0, hi=_MAX_SEED, integer=True)
    elif "data_seed" in tr:
        chk.fail(f"{p}.data_seed", "not a setting here: the training data "
                                   "comes from supplier.data.seed")


def _check_data(chk: _Check, obj: dict, path: str):
    data = chk.section(obj, path, "data")
    if data is None:
        return None
    p = f"{path}.data"
    chk.number(data, p, "n_classes", lo=2, integer=True)
    n_per = chk.number(data, p, "n_per_class", lo=2, integer=True)
    chk.number(data, p, "dim", lo=2, integer=True)
    chk.number(data, p, "spread", lo=1e-9)
    chk.number(data, p, "seed", lo=0, hi=_MAX_SEED, integer=True)
    if n_per is not None:
        tpc = chk.number(data, p, "train_per_class", lo=1, hi=n_per,
                         integer=True, default=n_per)
        data["held_per_class"] = n_per - tpc if tpc is not None else 0
    return data


def _check_supplier(chk: _Check, cfg: dict, scenario: str):
    sup = chk.section(cfg, "", "supplier")
    if sup is None:
        return
    data = _check_data(chk, sup, "supplier")
    _check_architecture(chk, sup, "supplier", data)
    _check_train(chk, sup, "supplier")
    eps = chk.number(sup, "supplier", "adversarial_epsilon", lo=0.0, default=0.0)
    if eps and scenario in (DETERMINISTIC_BENCH, AUDITOR):
        chk.fail("supplier.adversarial_epsilon",
                 f"must be 0 for {scenario}: its retrain from the published "
                 f"seeds trains without adversarial hardening")
    _check_latency(chk, sup, "supplier", default_base=4.0)
    key = sup.setdefault("mac_key_hex", None)
    if key is not None:
        ok = isinstance(key, str) and len(key) == 64
        if ok:
            try:
                bytes.fromhex(key)
            except ValueError:
                ok = False
        if not ok:
            chk.fail("supplier.mac_key_hex", "expected 64 hex characters")
    elif scenario == METARESULT:
        chk.fail("supplier.mac_key_hex", "required for Metaresult")


def _check_cheap(chk: _Check, prov: dict, data: dict | None):
    cheap = chk.section(prov, "provider", "cheap")
    if cheap is None:
        return
    _check_architecture(chk, cheap, "provider.cheap", data)
    _check_train(chk, cheap, "provider.cheap")
    chk.number(cheap, "provider.cheap", "subsample_stride", lo=1, integer=True,
               default=1)
    chk.number(cheap, "provider.cheap", "adversarial_epsilon", lo=0.0, default=0.0)


def _check_provider(chk: _Check, cfg: dict, scenario: str):
    if scenario == AUDITOR:
        cfg.setdefault("provider", None)
        if cfg["provider"] is not None:
            chk.fail("provider", "must be null for the Auditor scenario")
        return
    prov = chk.section(cfg, "", "provider")
    if prov is None:
        return
    kind = chk.choice(prov, "provider", "kind", PROVIDER_KINDS)
    chk.number(prov, "provider", "cheat_rate", lo=0.0, hi=1.0, default=0.0)
    chk.number(prov, "provider", "noise_sigma", lo=0.0, default=0.0)
    _check_latency(chk, prov, "provider", default_base=1.0)
    sup = cfg.get("supplier")
    data = sup.get("data") if isinstance(sup, dict) else None
    needs_cheap = kind in (SUBSTITUTE_MODEL, PARTIAL_CHEAT)
    if needs_cheap or prov.get("cheap") is not None:
        _check_cheap(chk, prov, data if isinstance(data, dict) else None)
    else:
        prov.setdefault("cheap", None)
    if kind == NOISY_PASSTHROUGH and prov.get("noise_sigma") in (None, 0.0):
        chk.fail("provider.noise_sigma", "must be > 0 for NoisyPassthrough")


def _check_verifier(chk: _Check, cfg: dict, scenario: str):
    ver = chk.section(cfg, "", "verifier")
    if ver is None:
        return
    sup = cfg.get("supplier")
    data = sup.get("data") if isinstance(sup, dict) else {}
    if not isinstance(data, dict):
        data = {}
    held_total = data.get("held_per_class", 0) * data.get("n_classes", 0) \
        if isinstance(data.get("held_per_class"), int) else 0

    if scenario == STEG_PROBE:
        k = chk.number(ver, "verifier", "k", lo=2, integer=True)
        frac = chk.number(ver, "verifier", "frac_steg", lo=0.0, hi=1.0,
                          default=0.5)
        chk.number(ver, "verifier", "alpha", lo=1e-9, hi=0.5, default=0.05)
        if k is not None and frac is not None:
            n_steg = round(k * frac)
            if not 0 < n_steg < k:
                chk.fail("verifier.frac_steg",
                         "plan must include at least one container and one "
                         "clean cover")
        steg = chk.section(cfg, "", "steg")
        if steg is not None:
            chk.number(steg, "steg", "secret_dim", lo=1, integer=True)
            if chk.number(steg, "steg", "beta", lo=0.0, default=1.0) == 0.0:
                chk.fail("steg.beta", "must be > 0")
            _check_train(chk, steg, "steg", with_data_seed=True)
            cal = chk.number(steg, "steg", "calibration_count", lo=1,
                             integer=True)
            chk.number(steg, "steg", "calibration_seed", lo=0, hi=_MAX_SEED,
                       integer=True)
            if cal is not None and held_total and k is not None:
                if cal + k > held_total:
                    chk.fail("steg.calibration_count",
                             f"calibration ({cal}) plus probe pool ({k}) "
                             f"exceeds the {held_total} held-out covers")
        if data.get("held_per_class") == 0:
            chk.fail("supplier.data.train_per_class",
                     "StegProbe needs held-out covers; train_per_class must "
                     "be < n_per_class")

    elif scenario == DETERMINISTIC_BENCH:
        chk.number(ver, "verifier", "n_queries", lo=1, integer=True)
        if isinstance(data.get("held_per_class"), int) and data["held_per_class"] != 0:
            chk.fail("supplier.data.train_per_class",
                     "DeterministicBench retrains from the published recipe, "
                     "so the supplier must train on the full pool")

    elif scenario == PROBABILISTIC_BENCH:
        k = chk.number(ver, "verifier", "k", lo=2, integer=True)
        chk.number(ver, "verifier", "alpha", lo=1e-9, hi=0.5, default=0.05)
        if data.get("held_per_class") == 0:
            chk.fail("supplier.data.train_per_class",
                     "ProbabilisticBench needs a held-out labeled set; "
                     "train_per_class must be < n_per_class")
        elif k is not None and held_total and k > held_total:
            chk.fail("verifier.k",
                     f"k ({k}) exceeds the {held_total} held-out samples")

    elif scenario == METARESULT:
        chk.number(ver, "verifier", "k", lo=1, integer=True)

    elif scenario == ROBUSTNESS:
        n_classes = data.get("n_classes")
        tau = chk.number(ver, "verifier", "tau", lo=0.0, hi=1.0, default=0.9)
        if tau == 1.0:
            chk.fail("verifier.tau", "must be < 1")
        elif tau is not None and isinstance(n_classes, int) and tau <= 1.0 / n_classes:
            chk.fail("verifier.tau",
                     f"must exceed 1/n_classes = {1.0 / n_classes:.4f}")
        chk.number(ver, "verifier", "step_size", lo=1e-9, default=0.05)
        mq = chk.number(ver, "verifier", "max_queries", lo=1, integer=True)
        chk.choice(ver, "verifier", "mode", ("Blackbox",), default="Blackbox")
        chk.number(ver, "verifier", "trials_per_class", lo=1, integer=True,
                   default=3)
        chk.number(ver, "verifier", "tolerance", lo=0.0, default=0.01)
        sig = ver.get("sigmoid")
        if sig is None and mq is not None:
            ver["sigmoid"] = {"q0": mq / 4.0, "s_scale": mq / 16.0}
        elif isinstance(sig, dict):
            if chk.number(sig, "verifier.sigmoid", "q0", lo=0.0) == 0.0:
                chk.fail("verifier.sigmoid.q0", "must be > 0")
            chk.number(sig, "verifier.sigmoid", "s_scale", lo=1e-9)
        elif sig is not None:
            chk.fail("verifier.sigmoid", "expected an object")

    elif scenario == AUDITOR:
        n = chk.number(ver, "verifier", "n_oracles", lo=1, integer=True)
        nb = chk.number(ver, "verifier", "n_byzantine", lo=0, integer=True,
                        default=0)
        if n is not None and nb is not None and 2 * (n - nb) <= n:
            chk.fail("verifier.n_byzantine",
                     "honest oracles must form a strict majority")
        chk.number(ver, "verifier", "byzantine_offset", lo=-1.0, hi=1.0,
                   default=0.15)
        fee = chk.number(ver, "verifier", "fee", lo=1, integer=True)
        balance = chk.number(ver, "verifier", "client_balance", lo=1,
                             integer=True, default=10000)
        if fee is not None and balance is not None and fee > balance:
            # every trial opens a fresh ledger, so one fee must be fundable
            chk.fail("verifier.fee",
                     f"fee {fee} exceeds the client balance {balance}")
        chk.number(ver, "verifier", "oracle_balance", lo=0, integer=True,
                   default=50)
        chk.choice(ver, "verifier", "metric", ("accuracy", "robustness"),
                   default="accuracy")
        chk.number(ver, "verifier", "metric_class", lo=0, integer=True,
                   default=0)


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate and normalize a config dict. Raises ConfigValidationError
    carrying every field-level problem found; the input is not mutated."""
    if not isinstance(raw, dict):
        raise ConfigValidationError(["config: expected a JSON object"])
    cfg = copy.deepcopy(raw)
    chk = _Check()

    ver = cfg.setdefault("schema_version", SCHEMA_VERSION)
    if ver != SCHEMA_VERSION:
        chk.fail("schema_version", f"expected {SCHEMA_VERSION}, got {ver!r}")
    scenario = chk.choice(cfg, "", "scenario", SCENARIOS)
    chk.number(cfg, "", "master_seed", lo=0, hi=_MAX_SEED, integer=True)
    chk.number(cfg, "", "trials", lo=1, integer=True)

    if scenario is not None:
        _check_supplier(chk, cfg, scenario)
        _check_provider(chk, cfg, scenario)
        _check_verifier(chk, cfg, scenario)
        if scenario != STEG_PROBE:
            cfg.setdefault("steg", None)

    if chk.errors:
        raise ConfigValidationError(sorted(chk.errors))
    return ScenarioConfig(cfg["scenario"], cfg["master_seed"], cfg["trials"], cfg)


def parse_config(text: str) -> ScenarioConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"config: not valid JSON ({exc})"]) from exc
    return validate_config(raw)


def set_config_value(raw: dict, dotted_path: str, value) -> dict:
    """Return a copy of `raw` with the numeric field at `dotted_path`
    (e.g. "provider.cheat_rate") replaced. Unknown or non-numeric targets
    are validation errors."""
    out = copy.deepcopy(raw)
    node = out
    parts = dotted_path.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigValidationError([f"{dotted_path}: no such config field"])
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigValidationError([f"{dotted_path}: no such config field"])
    current = node[leaf]
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigValidationError([f"{dotted_path}: not a numeric field"])
    node[leaf] = value
    return out


# -- built-in example configs ---------------------------------------------------
# Small, fast fixtures with seeds chosen so every scenario separates honest
# from cheating providers cleanly at its default settings.


def _clusters16() -> dict:
    return {"n_classes": 3, "n_per_class": 300, "dim": 16, "spread": 0.06,
            "seed": 501, "train_per_class": 200}


def _hard_blobs(train_per_class: int) -> dict:
    return {"n_classes": 3, "n_per_class": 300, "dim": 8, "spread": 0.2,
            "seed": 801, "train_per_class": train_per_class}


def _hard_supplier(train_per_class: int) -> dict:
    return {"data": _hard_blobs(train_per_class),
            "architecture": [8, 24, 3],
            "train": {"learning_rate": 0.5, "epochs": 40, "batch_size": 32,
                      "weight_seed": 701, "shuffle_seed": 702}}


def _hard_cheap() -> dict:
    return {"architecture": [8, 3, 3],
            "train": {"learning_rate": 0.2, "epochs": 1, "batch_size": 8,
                      "weight_seed": 711, "shuffle_seed": 712},
            "subsample_stride": 30}


def builtin_config(scenario: str, provider_kind: str = SUBSTITUTE_MODEL,
                   trials: int = 5, master_seed: int = 42) -> dict:
    """A ready-to-run config dict for any scenario; tests and the demo
    subcommands start from these."""
    if scenario == STEG_PROBE:
        cfg = {
            "scenario": STEG_PROBE, "master_seed": master_seed, "trials": trials,
            "supplier": {"data": _clusters16(),
                         "architecture": [16, 16, 3],
                         "train": {"learning_rate": 0.5, "epochs": 30,
                                   "batch_size": 32, "weight_seed": 601,
                                   "shuffle_seed": 602}},
            "provider": {"kind": provider_kind,
                         "cheap": {"architecture": [16, 4, 3],
                                   "train": {"learning_rate": 0.3, "epochs": 2,
                                             "batch_size": 8, "weight_seed": 625,
                                             "shuffle_seed": 626},
                                   "subsample_stride": 40}},
            "steg": {"secret_dim": 4, "beta": 1.0,
                     "train": {"learning_rate": 0.05, "epochs": 120,
                               "batch_size": 32, "weight_seed": 611,
                               "shuffle_seed": 612, "data_seed": 613},
                     "calibration_count": 150, "calibration_seed": 700},
            "verifier": {"k": 50, "frac_steg": 0.5, "alpha": 0.01},
        }
    elif scenario == DETERMINISTIC_BENCH:
        cfg = {
            "scenario": DETERMINISTIC_BENCH, "master_seed": master_seed,
            "trials": trials,
            "supplier": _hard_supplier(train_per_class=300),
            "provider": {"kind": provider_kind, "cheap": _hard_cheap()},
            "verifier": {"n_queries": 100},
        }
    elif scenario == PROBABILISTIC_BENCH:
        cfg = {
            "scenario": PROBABILISTIC_BENCH, "master_seed": master_seed,
            "trials": trials,
            "supplier": _hard_supplier(train_per_class=200),
            "provider": {"kind": provider_kind, "cheap": _hard_cheap()},
            "verifier": {"k": 200, "alpha": 0.05},
        }
    elif scenario == METARESULT:
        sup = _hard_supplier(train_per_class=300)
        sup["mac_key_hex"] = "8d969eef6ecad3c29a3a629280e686cf" \
                             "0c3f5d5a86aff3ca12020c923adc6c92"
        cfg = {
            "scenario": METARESULT, "master_seed": master_seed, "trials": trials,
            "supplier": sup,
            "provider": {"kind": provider_kind, "cheap": _hard_cheap()},
            "verifier": {"k": 100},
        }
    elif scenario == ROBUSTNESS:
        cfg = {
            "scenario": ROBUSTNESS, "master_seed": master_seed, "trials": trials,
            "supplier": {"data": {"n_classes": 2, "n_per_class": 300, "dim": 8,
                                  "spread": 0.06, "seed": 301,
                                  "train_per_class": 200},
                         "architecture": [8, 16, 2],
                         "train": {"learning_rate": 0.5, "epochs": 30,
                                   "batch_size": 32, "weight_seed": 401,
                                   "shuffle_seed": 402},
                         "adversarial_epsilon": 0.08},
            "provider": {"kind": provider_kind,
                         "cheap": {"architecture": [8, 16, 2],
                                   "train": {"learning_rate": 0.5, "epochs": 30,
                                             "batch_size": 32,
                                             "weight_seed": 401,
                                             "shuffle_seed": 402},
                                   "subsample_stride": 1,
                                   "adversarial_epsilon": 0.0}},
            "verifier": {"tau": 0.9, "step_size": 0.05, "max_queries": 600,
                         "trials_per_class": 3, "tolerance": 0.01},
        }
    elif scenario == AUDITOR:
        cfg = {
            "scenario": AUDITOR, "master_seed": master_seed, "trials": trials,
            "supplier": _hard_supplier(train_per_class=300),
            "provider": None,
            "verifier": {"fee": 100, "n_oracles": 7, "n_byzantine": 2,
                         "byzantine_offset": 0.15, "client_balance": 10000,
                         "oracle_balance": 50, "metric": "accuracy",
                         "metric_class": 0},
        }
    else:
        raise ConfigValidationError([f"scenario: unknown scenario {scenario!r}"])
    if provider_kind == NOISY_PASSTHROUGH and cfg.get("provider") is not None:
        cfg["provider"]["noise_sigma"] = 0.05
    return cfg

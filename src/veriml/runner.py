"""Scenario execution: build the supplier/provider fixtures a config
describes (training once per content digest, cached on disk), run seeded
verification trials one after another, and aggregate into a machine-readable
report that is byte-reproducible apart from wall time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import canon
from . import config as cfgmod
from ._version import __version__
from .adversarial import (AttackConfig, SigmoidParams, claim_check,
                          robustness_benchmark)
from .auditor import (BYZANTINE, HONEST, Ledger, ModelSpec, OracleProfile,
                      compute_metric, identity, make_model_spec,
                      run_audit_round)
from .cache import _cached, trained_model
from .data import BlobRecipe, Dataset, split_per_class
from .entities import (LatencyModel, Provider, QueryBatch, SeedPublication,
                       Supplier, provider_classify)
from .errors import (FixtureError, GenerationFailureError, ParameterError,
                     TrainingFailureError)
from .mlp import MlpModel, SeedConfig, TrainConfig, accuracy, forward
from .rng import derive_seed, uniform_array
from .steg import (RevealClassifier, StegModel, load_steg_bundle,
                   save_steg_bundle, train_steg_joint)
from .verifiers import (LIKELY_FRAUDULENT, ProbePlan, StegSuite,
                        deterministic_benchmark, measure_roundtrip,
                        metaresult_verify, probabilistic_benchmark, steg_probe)

_LATENCY_PINGS = 4

# a supplier must beat chance (1 / n_classes) on its own training split by
# this much: a diverged run can keep finite weights and sit at chance
SUPPLIER_MARGIN = 0.2


# -- fixture construction -------------------------------------------------------


def _steg_cache_key(secret_dim: int, beta: float, tcfg: TrainConfig,
                    recipe: BlobRecipe, train_per_class: int) -> bytes:
    return canon.sha256(b"steg.v1" + canon.u32(secret_dim) + canon.f64(beta)
                        + tcfg.canonical_bytes() + recipe.canonical_bytes()
                        + canon.u32(train_per_class))


@dataclass
class _DataBundle:
    recipe: BlobRecipe
    train: Dataset
    held: Dataset | None
    train_per_class: int


def _build_data(block: dict) -> _DataBundle:
    recipe = BlobRecipe(block["n_classes"], block["n_per_class"], block["dim"],
                        block["spread"], block["seed"])
    pool = recipe.build()
    tpc = block["train_per_class"]
    if tpc == block["n_per_class"]:
        return _DataBundle(recipe, pool, None, tpc)
    train, held = split_per_class(pool, tpc)
    return _DataBundle(recipe, train, held, tpc)


def _seed_and_train_cfg(train_block: dict, data_seed: int) -> tuple[SeedConfig, TrainConfig]:
    seeds = SeedConfig(train_block["weight_seed"], train_block["shuffle_seed"],
                       train_block.get("data_seed", data_seed))
    return seeds, TrainConfig(train_block["learning_rate"],
                              train_block["epochs"], train_block["batch_size"],
                              seeds)


def _latency_from(block: dict) -> LatencyModel:
    lat = block["latency"]
    return LatencyModel(lat["base_ms"], lat["jitter_ms"], lat["seed"])


@dataclass
class _Fixtures:
    data: _DataBundle
    supplier: Supplier | None = None
    provider_kind: str | None = None
    cheap_model: MlpModel | None = None
    cheat_rate: float = 0.0
    noise_sigma: float = 0.0
    provider_latency: LatencyModel | None = None
    suite: StegSuite | None = None
    probe_covers: np.ndarray | None = None
    publication: SeedPublication | None = None
    model_spec: ModelSpec | None = None

    @property
    def mac_key(self) -> bytes | None:  # read by acceptance criterion c6
        return self.supplier.mac_key if self.supplier else None

    def fresh_provider(self) -> Provider:
        """Providers carry per-run mutable state (the replay cache), so each
        trial gets its own instance over the shared immutable fixtures."""
        return Provider(kind=self.provider_kind, backend=self.supplier,
                        cheap_model=self.cheap_model, cheat_rate=self.cheat_rate,
                        cache={}, noise_sigma=self.noise_sigma,
                        latency=self.provider_latency)


def _check_supplier(model: MlpModel, train: Dataset) -> None:
    """The supplier quality gate, run on every build (a cache entry stored
    before the gate existed is loaded without training)."""
    acc = accuracy(model, train)
    chance = 1.0 / train.n_classes
    if acc < chance + SUPPLIER_MARGIN:
        raise TrainingFailureError(
            f"supplier training accuracy {acc:.3f} does not beat chance "
            f"{chance:.3f} by {SUPPLIER_MARGIN}",
            {"train_accuracy": acc, "chance": chance, "margin": SUPPLIER_MARGIN})


def _steg_pair(raw: dict, fx: _Fixtures) -> tuple[StegModel, RevealClassifier]:
    block = raw["steg"]
    _, tcfg = _seed_and_train_cfg(block["train"], data_seed=0)
    key = _steg_cache_key(block["secret_dim"], block["beta"], tcfg,
                          fx.data.recipe, fx.data.train_per_class)
    return _cached(key, load_steg_bundle,
                   lambda: train_steg_joint(fx.data.train, block["secret_dim"],
                                            block["beta"], tcfg),
                   lambda pair: save_steg_bundle(*pair))


def build_fixtures(cfg: cfgmod.ScenarioConfig) -> _Fixtures:
    raw = cfg.raw
    sup_block = raw["supplier"]
    fx = _Fixtures(data=_build_data(sup_block["data"]))
    arch = tuple(sup_block["architecture"])
    seeds, tcfg = _seed_and_train_cfg(sup_block["train"],
                                      data_seed=sup_block["data"]["seed"])

    if cfg.scenario == cfgmod.AUDITOR:
        ver = raw["verifier"]
        fx.model_spec = make_model_spec(arch, seeds, tcfg, fx.data.recipe,
                                        ver["metric"], ver["metric_class"])
        return fx

    model = trained_model(arch, tcfg, fx.data.recipe, fx.data.train_per_class,
                          adversarial_epsilon=sup_block["adversarial_epsilon"])
    _check_supplier(model, fx.data.train)

    prov_block = raw["provider"]
    cheap_block = prov_block.get("cheap")
    if cheap_block is not None:
        _, cheap_tcfg = _seed_and_train_cfg(cheap_block["train"],
                                            data_seed=sup_block["data"]["seed"])
        fx.cheap_model = trained_model(
            tuple(cheap_block["architecture"]), cheap_tcfg, fx.data.recipe,
            fx.data.train_per_class, stride=cheap_block["subsample_stride"],
            adversarial_epsilon=cheap_block["adversarial_epsilon"])
    fx.provider_kind = prov_block["kind"]
    fx.cheat_rate = prov_block["cheat_rate"]
    fx.noise_sigma = prov_block["noise_sigma"]
    fx.provider_latency = _latency_from(prov_block)

    reveal = None
    if cfg.scenario == cfgmod.STEG_PROBE:
        steg, reveal = _steg_pair(raw, fx)
    mac_hex = sup_block.get("mac_key_hex")
    fx.supplier = Supplier(model=model, reveal=reveal,
                           mac_key=bytes.fromhex(mac_hex) if mac_hex else None,
                           latency=_latency_from(sup_block))

    if cfg.scenario == cfgmod.STEG_PROBE:
        block = raw["steg"]
        cal = block["calibration_count"]
        covers = fx.data.held.inputs
        try:
            p_detect, p_clean = measure_roundtrip(fx.supplier, steg, reveal,
                                                  model, covers[:cal],
                                                  block["calibration_seed"])
        except GenerationFailureError as exc:
            raise FixtureError(f"steg calibration failed: {exc}") from exc
        fx.suite = StegSuite(steg, reveal, model, p_detect, p_clean)
        fx.probe_covers = covers[cal:]
    elif cfg.scenario == cfgmod.DETERMINISTIC_BENCH:
        fx.publication = SeedPublication(seeds, tcfg, arch)
    return fx


# -- per-scenario trials --------------------------------------------------------


def _mean_latency(provider: Provider, dim: int, seed: int) -> float:
    state = derive_seed(seed, 7)
    batch = QueryBatch()
    for _ in range(_LATENCY_PINGS):
        x, state = uniform_array(state, dim)
        state = batch.provider(provider, x, state)
    total = 0.0
    for resp in batch.answer():
        total += resp.latency_ms
    return total / _LATENCY_PINGS


def _trial_steg(fx: _Fixtures, raw: dict, seed: int) -> dict:
    ver = raw["verifier"]
    plan = ProbePlan(ver["k"], ver["frac_steg"], seed, ver["alpha"])
    provider = fx.fresh_provider()
    verdict = steg_probe(provider, fx.suite, fx.probe_covers, plan)
    lat = _mean_latency(provider, fx.data.recipe.dim, seed)
    return {"seed": seed, "verdict": verdict.to_dict(), "latency_ms": lat}


def _trial_deterministic(fx: _Fixtures, raw: dict, seed: int) -> dict:
    n_q = raw["verifier"]["n_queries"]
    dim = fx.data.recipe.dim
    flat, _ = uniform_array(derive_seed(seed, 1), n_q * dim)
    queries = flat.reshape(n_q, dim)
    provider = fx.fresh_provider()
    verdict = deterministic_benchmark(provider, fx.publication, fx.data.recipe,
                                      queries, rng=derive_seed(seed, 2))
    lat = _mean_latency(provider, dim, seed)
    return {"seed": seed, "verdict": verdict.to_dict(), "latency_ms": lat}


def _trial_probabilistic(fx: _Fixtures, raw: dict, seed: int) -> dict:
    ver = raw["verifier"]
    provider = fx.fresh_provider()
    verdict = probabilistic_benchmark(provider, fx.supplier, fx.data.held,
                                      ver["k"], ver["alpha"], seed)
    lat = _mean_latency(provider, fx.data.recipe.dim, seed)
    return {"seed": seed, "verdict": verdict.to_dict(), "latency_ms": lat}


def _trial_metaresult(fx: _Fixtures, raw: dict, seed: int) -> dict:
    k = raw["verifier"]["k"]
    dim = fx.data.recipe.dim
    provider = fx.fresh_provider()
    state = derive_seed(seed, 1)
    batch = QueryBatch()
    xs = []
    for _ in range(k):
        x, state = uniform_array(state, dim)
        state = batch.provider(provider, x, state)
        xs.append(x)
    verdict = metaresult_verify(list(zip(xs, batch.answer())), fx.supplier.mac_key)
    lat = _mean_latency(provider, dim, seed)
    return {"seed": seed, "verdict": verdict.to_dict(), "latency_ms": lat}


def _trial_robustness(fx: _Fixtures, raw: dict, seed: int) -> dict:
    ver = raw["verifier"]
    dim = fx.data.recipe.dim
    classes = list(range(fx.data.recipe.n_classes))
    acfg = AttackConfig(tau=ver["tau"], step_size=ver["step_size"],
                        max_queries=ver["max_queries"])
    params = SigmoidParams(ver["sigmoid"]["q0"], ver["sigmoid"]["s_scale"])

    # the supplier's published claims: its own model measured under the same
    # attack seeds the verifier is about to use on the service
    supplier_model = fx.supplier.model
    claimed = robustness_benchmark(lambda x: forward(supplier_model, x), dim,
                                   classes, ver["trials_per_class"], acfg,
                                   params, seed)

    provider = fx.fresh_provider()
    box = {"rng": derive_seed(seed, 3)}

    def service(x):
        resp, box["rng"] = provider_classify(provider, x, box["rng"])
        return resp.probs

    measured = robustness_benchmark(service, dim, classes,
                                    ver["trials_per_class"], acfg, params, seed)
    verdict = claim_check(measured, [(s.class_id, s.score) for s in claimed],
                          ver["tolerance"])
    lat = _mean_latency(provider, dim, seed)
    return {"seed": seed, "verdict": verdict.to_dict(), "latency_ms": lat,
            "claimed_scores": [s.to_dict() for s in claimed],
            "measured_scores": [s.to_dict() for s in measured]}


def _audit_setup(ver: dict) -> tuple[list[OracleProfile], bytes, Ledger]:
    """Oracles, client identity and funded ledger for a `verifier` block."""
    n, nb = ver["n_oracles"], ver["n_byzantine"]
    ids = [identity(f"oracle-{i}") for i in range(n)]
    oracles = [OracleProfile(ids[i], HONEST) for i in range(n - nb)]
    for j in range(nb):
        offset = ver["byzantine_offset"] * (1.0 if j % 2 == 0 else -1.0)
        oracles.append(OracleProfile(ids[n - nb + j], BYZANTINE, offset=offset))
    client = identity("client-0")
    balances = {client: ver["client_balance"]}
    balances.update({oid: ver["oracle_balance"] for oid in ids})
    return oracles, client, Ledger(balances)


def _trial_auditor(fx: _Fixtures, raw: dict, seed: int) -> dict:
    ver = raw["verifier"]
    oracles, client, ledger = _audit_setup(ver)
    _, tally = run_audit_round(ledger, client, fx.model_spec, ver["fee"], oracles)
    truth = compute_metric(fx.model_spec)
    return {"seed": seed, "latency_ms": 0.0,
            "consensus": tally is not None,
            "consensus_value": tally.value if tally else None,
            "value_matches_truth": bool(tally and abs(tally.value - truth) < 1e-9),
            "majority_size": len(tally.majority_oracle_ids) if tally else 0,
            "chain_ok": ledger.verify_chain(),
            "conservation": ledger.conservation_holds(),
            "n_blocks": len(ledger.blocks)}


_TRIAL_FNS = {
    cfgmod.STEG_PROBE: _trial_steg,
    cfgmod.DETERMINISTIC_BENCH: _trial_deterministic,
    cfgmod.PROBABILISTIC_BENCH: _trial_probabilistic,
    cfgmod.METARESULT: _trial_metaresult,
    cfgmod.ROBUSTNESS: _trial_robustness,
    cfgmod.AUDITOR: _trial_auditor,
}


# -- campaign driver ------------------------------------------------------------


def _aggregate(scenario: str, trials: list[dict]) -> dict:
    n = len(trials)
    mean_latency = sum(t["latency_ms"] for t in trials) / n
    if scenario == cfgmod.AUDITOR:
        ok = sum(t["consensus"] and t["value_matches_truth"] and t["chain_ok"]
                 and t["conservation"] for t in trials)
        return {"detection_rate": ok / n, "mean_p_value": None,
                "mean_latency_ms": mean_latency}
    flagged = sum(t["verdict"]["decision"] == LIKELY_FRAUDULENT for t in trials)
    inconclusive = sum(t["verdict"]["decision"] == "Inconclusive" for t in trials)
    mean_p = sum(t["verdict"]["p_value"] for t in trials) / n
    return {"detection_rate": flagged / n, "inconclusive_rate": inconclusive / n,
            "mean_p_value": mean_p, "mean_latency_ms": mean_latency}


def run_scenario(cfg: cfgmod.ScenarioConfig) -> dict:
    started = time.time()
    fx = build_fixtures(cfg)
    trial_fn = _TRIAL_FNS[cfg.scenario]
    results = [trial_fn(fx, cfg.raw, derive_seed(cfg.master_seed, t))
               for t in range(cfg.trials)]
    return {
        "schema_version": cfgmod.SCHEMA_VERSION,
        "version": __version__,
        "scenario": cfg.scenario,
        "master_seed": cfg.master_seed,
        "trials": cfg.trials,
        "config": cfg.raw,
        "trial_results": results,
        "aggregates": _aggregate(cfg.scenario, results),
        "wall_time_s": round(time.time() - started, 6),
    }


def sweep(cfg: cfgmod.ScenarioConfig, param_name: str, values: list) -> list[dict]:
    """One run_scenario per value of a numeric config field (dotted path,
    e.g. "provider.cheat_rate"); fixtures are shared through the disk cache."""
    reports = []
    for value in values:
        raw = cfgmod.set_config_value(cfg.raw, param_name, value)
        reports.append(run_scenario(cfgmod.validate_config(raw)))
    return reports


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def explain_verdict(report: dict, trial_index: int) -> str:
    """Human-readable evidence chain for one trial of a report."""
    trials = report.get("trial_results")
    if not isinstance(trials, list):
        raise ParameterError("report has no trial_results list")
    if not 0 <= trial_index < len(trials):
        raise ParameterError(
            f"trial index {trial_index} out of range [0, {len(trials)})")
    entry = trials[trial_index]
    lines = [f"scenario {report.get('scenario')} trial {trial_index} "
             f"(seed {entry.get('seed')})"]
    verdict = entry.get("verdict")
    if verdict is not None:
        lines.append(f"  method:            {verdict['method']}")
        lines.append(f"  decision:          {verdict['decision']}")
        lines.append(f"  probes used:       {verdict['n_probes']}")
        lines.append(f"  statistic:         {verdict['statistic']:.6g}")
        lines.append(f"  p-value:           {verdict['p_value']:.6g}")
        lines.append(f"  cheat probability: {verdict['cheat_probability']:.6g}")
        lines.append(f"  evidence: {verdict['detail']}")
    else:
        for key in ("consensus", "consensus_value", "value_matches_truth",
                    "majority_size", "chain_ok", "conservation", "n_blocks"):
            lines.append(f"  {key}: {entry.get(key)}")
    cfg = report.get("config", {})
    lines.append("  verifier settings: "
                 + json.dumps(cfg.get("verifier"), sort_keys=True))
    return "\n".join(lines)


def auditor_demo(master_seed: int = 42, rounds: int = 3) -> dict:
    """A self-contained multi-round audit on one ledger, returning the full
    chain export. Deterministic given the seed: reruns are byte-identical."""
    raw = cfgmod.builtin_config(cfgmod.AUDITOR, trials=1, master_seed=master_seed)
    cfg = cfgmod.validate_config(raw)
    ver = cfg.raw["verifier"]
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")
    fees = [ver["fee"] + 3 * r for r in range(rounds)]  # exercise remainder splits
    if sum(fees) > ver["client_balance"]:
        raise ParameterError(f"{rounds} rounds cost {sum(fees)} in fees, more "
                             f"than the client balance {ver['client_balance']}")
    fx = build_fixtures(cfg)
    oracles, client, ledger = _audit_setup(ver)

    round_entries = []
    for fee in fees:
        _, tally = run_audit_round(ledger, client, fx.model_spec, fee, oracles)
        round_entries.append({
            "fee": fee,
            "consensus": tally is not None,
            "consensus_value": tally.value if tally else None,
            "majority_size": len(tally.majority_oracle_ids) if tally else 0,
        })
    return {
        "schema_version": cfgmod.SCHEMA_VERSION,
        "version": __version__,
        "master_seed": master_seed,
        "config": cfg.raw,
        "rounds": round_entries,
        "final_balances": {k.hex(): v for k, v in sorted(ledger.balances.items())},
        "chain_ok": ledger.verify_chain(),
        "conservation": ledger.conservation_holds(),
        "ledger_jsonl": ledger.export_jsonl().splitlines(),
    }

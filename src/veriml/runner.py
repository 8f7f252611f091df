"""Scenario execution: build the supplier/provider fixtures a config
describes (training once per content digest, cached on disk, and so are the
supplier's training accuracy and the steg calibration rates measured on those
fixtures), run a campaign's seeded verification trials, and aggregate into a
machine-readable report that is byte-reproducible apart from wall time.

Each scenario has one campaign function, (fixtures, config, trial seeds) ->
trials. Robustness runs every trial's attacks at once, in lockstep, so each
step of the attacks is one ask for the whole campaign; the other scenarios
run their trials one after another.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import canon
from . import config as cfgmod
from ._version import __version__
from .adversarial import (AttackConfig, SigmoidParams, claim_check,
                          robustness_benchmarks)
from .auditor import (BYZANTINE, HONEST, Ledger, ModelSpec, OracleProfile,
                      compute_metric, identity, make_model_spec,
                      run_audit_round)
from .cache import _cached, _cached_f64s, _model_cache_key, trained_model
from .data import BlobRecipe, Dataset, split_per_class
from .entities import (CACHED_REPLAY, Answers, LatencyModel, Provider,
                       SeedPublication, Supplier, ask)
from .errors import (FixtureError, GenerationFailureError, ParameterError,
                     TrainingFailureError)
from .mlp import MlpModel, SeedConfig, TrainConfig, accuracy, forward_batch
from .rng import derive_seed, uniform_array
from .steg import (RevealClassifier, StegModel, load_steg_bundle,
                   save_steg_bundle, train_steg_joint)
from .verifiers import (LIKELY_FRAUDULENT, ProbePlan, StegSuite, Verdict,
                        deterministic_benchmark, measure_roundtrip,
                        metaresult_verify, probabilistic_benchmark, steg_probe)

_LATENCY_PINGS = 4

# a supplier must beat chance (1 / n_classes) on its own training split by
# this much: a diverged run can keep finite weights and sit at chance
SUPPLIER_MARGIN = 0.2


# -- fixture construction -------------------------------------------------------


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
                       data_seed)
    return seeds, TrainConfig(train_block["learning_rate"],
                              train_block["epochs"], train_block["batch_size"],
                              seeds)


def _steg_train_cfg(block: dict) -> TrainConfig:
    return _seed_and_train_cfg(block["train"], block["train"]["data_seed"])[1]


def _steg_cache_key(block: dict, data: _DataBundle) -> bytes:
    return canon.sha256(b"steg.v2" + canon.u32(block["secret_dim"])
                        + canon.f64(block["beta"])
                        + _steg_train_cfg(block).canonical_bytes()
                        + data.recipe.canonical_bytes()
                        + canon.u32(data.train_per_class))


def _calib_cache_key(steg_key: bytes, model_key: bytes, count: int,
                     seed: int) -> bytes:
    # the supplier model key fixes the recipe and training split, so the
    # held-out covers; the calibration labels them with the supplier's
    # answering model and asks nothing, so the MAC key, latency and provider
    # fields change no rate it reads
    return canon.sha256(b"calib.v1" + steg_key + model_key + canon.u64(count)
                        + canon.u64(seed))


def _latency_from(block: dict) -> LatencyModel:
    lat = block["latency"]
    return LatencyModel(lat["base_ms"], lat["jitter_ms"], lat["seed"])


@dataclass
class _Fixtures:
    data: _DataBundle
    provider: Provider | None = None  # the prototype; its cache stays empty
    suite: StegSuite | None = None
    probe_covers: np.ndarray | None = None
    publication: SeedPublication | None = None
    model_spec: ModelSpec | None = None

    @property
    def supplier(self) -> Supplier | None:
        return self.provider.backend if self.provider else None

    @property
    def cheap_model(self) -> MlpModel | None:
        return self.provider.cheap_model if self.provider else None

    @property
    def mac_key(self) -> bytes | None:  # read by acceptance criterion c6
        return self.supplier.mac_key if self.supplier else None

    def fresh_provider(self) -> Provider:
        """Providers carry per-run mutable state (the replay cache), so each
        trial gets its own instance over the shared immutable fixtures."""
        return replace(self.provider, cache={})


def _check_supplier(model_key: bytes, model: MlpModel, train: Dataset) -> None:
    """The supplier quality gate. The training accuracy is measured once per
    model key and cached; the comparison runs on every build, cache hits
    included, so a model stored before the gate existed is checked too."""
    [acc] = _cached_f64s(canon.sha256(b"gate.v1" + model_key), 1,
                         lambda: (accuracy(model, train),))
    chance = 1.0 / train.n_classes
    if acc < chance + SUPPLIER_MARGIN:
        raise TrainingFailureError(
            f"supplier training accuracy {acc:.3f} does not beat chance "
            f"{chance:.3f} by {SUPPLIER_MARGIN}",
            {"train_accuracy": acc, "chance": chance, "margin": SUPPLIER_MARGIN})


def _steg_pair(raw: dict, fx: _Fixtures) -> tuple[StegModel, RevealClassifier]:
    block = raw["steg"]
    return _cached(_steg_cache_key(block, fx.data), load_steg_bundle,
                   lambda: train_steg_joint(fx.data.train, block["secret_dim"],
                                            block["beta"], _steg_train_cfg(block)),
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

    eps = sup_block["adversarial_epsilon"]
    model_key = _model_cache_key(arch, tcfg, fx.data.recipe,
                                 fx.data.train_per_class, 1, eps)
    model = trained_model(arch, tcfg, fx.data.recipe, fx.data.train_per_class,
                          adversarial_epsilon=eps)
    _check_supplier(model_key, model, fx.data.train)

    prov_block = raw["provider"]
    cheap_block = prov_block.get("cheap")
    cheap_model = None
    if cheap_block is not None:
        _, cheap_tcfg = _seed_and_train_cfg(cheap_block["train"],
                                            data_seed=sup_block["data"]["seed"])
        cheap_model = trained_model(
            tuple(cheap_block["architecture"]), cheap_tcfg, fx.data.recipe,
            fx.data.train_per_class, stride=cheap_block["subsample_stride"],
            adversarial_epsilon=cheap_block["adversarial_epsilon"])

    reveal = None
    if cfg.scenario == cfgmod.STEG_PROBE:
        steg, reveal = _steg_pair(raw, fx)
    mac_hex = sup_block.get("mac_key_hex")
    supplier = Supplier(model=model, reveal=reveal,
                        mac_key=bytes.fromhex(mac_hex) if mac_hex else None,
                        latency=_latency_from(sup_block))
    fx.provider = Provider(kind=prov_block["kind"], backend=supplier,
                           cheap_model=cheap_model,
                           cheat_rate=prov_block["cheat_rate"],
                           noise_sigma=prov_block["noise_sigma"],
                           latency=_latency_from(prov_block))

    if cfg.scenario == cfgmod.STEG_PROBE:
        block = raw["steg"]
        cal = block["calibration_count"]
        covers = fx.data.held.inputs
        key = _calib_cache_key(_steg_cache_key(block, fx.data), model_key, cal,
                               block["calibration_seed"])
        try:
            p_detect, p_clean = _cached_f64s(key, 2, lambda: measure_roundtrip(
                supplier, steg, reveal, model, covers[:cal],
                block["calibration_seed"]))
        except GenerationFailureError as exc:
            raise FixtureError(f"steg calibration failed: {exc}") from exc
        fx.suite = StegSuite(steg, reveal, model, p_detect, p_clean)
        fx.probe_covers = covers[cal:]
    elif cfg.scenario == cfgmod.DETERMINISTIC_BENCH:
        fx.publication = SeedPublication(seeds, tcfg, arch)
    return fx


# -- per-scenario trials --------------------------------------------------------

# Each purpose of a trial draws on its own child of the trial seed s, and
# random inputs are drawn on one stream and asked on another: inputs on
# derive_seed(s, 1) (DeterministicBench's and Metaresult's queries, the
# Robustness attack starts), their queries on derive_seed(s, 2), the
# Robustness attacks' query streams under derive_seed(s, 3), and the latency
# pings under derive_seed(s, 7), split as s is. A Robustness campaign asks
# all its trials' attacks together, attack k of trial t as owner t * n + k
# (n attacks per trial), each on its own trial's streams, so a trial draws
# the same values alone or in a campaign.


def _uniform_block(seed: int, n: int, dim: int) -> tuple[np.ndarray, int]:
    """n random inputs of `dim` uniforms each, drawn on derive_seed(seed, 1),
    and the stream to ask them on, derive_seed(seed, 2)."""
    flat, _ = uniform_array(derive_seed(seed, 1), n * dim)
    return flat.reshape(n, dim), derive_seed(seed, 2)


def _ask_uniform(provider: Provider, seed: int, n: int,
                 dim: int) -> tuple[np.ndarray, Answers]:
    """The inputs of `_uniform_block`, asked of the provider as one block."""
    X, rng = _uniform_block(seed, n, dim)
    return X, ask(X, provider, rng)[0]


def _mean_latency(provider: Provider, dim: int, seed: int) -> float:
    _, answers = _ask_uniform(provider, derive_seed(seed, 7), _LATENCY_PINGS, dim)
    return sum(answers.latencies) / _LATENCY_PINGS


def _verdict_trial(run):
    """The trial skeleton of the per-trial verdict scenarios: a fresh
    provider, `run(fx, verifier block, seed, provider)` giving the verdict,
    then the latency pings on that provider."""
    def trial(fx: _Fixtures, raw: dict, seed: int) -> dict:
        provider = fx.fresh_provider()
        verdict = run(fx, raw["verifier"], seed, provider)
        lat = _mean_latency(provider, fx.data.recipe.dim, seed)
        return {"seed": seed, "verdict": verdict.to_dict(), "latency_ms": lat}
    return trial


@_verdict_trial
def _trial_steg(fx, ver, seed, provider) -> Verdict:
    plan = ProbePlan(ver["k"], ver["frac_steg"], seed, ver["alpha"])
    return steg_probe(provider, fx.suite, fx.probe_covers, plan)


@_verdict_trial
def _trial_deterministic(fx, ver, seed, provider) -> Verdict:
    X, rng = _uniform_block(seed, ver["n_queries"], fx.data.recipe.dim)
    return deterministic_benchmark(provider, fx.publication, fx.data.recipe,
                                   X, rng=rng)


@_verdict_trial
def _trial_probabilistic(fx, ver, seed, provider) -> Verdict:
    return probabilistic_benchmark(provider, fx.supplier, fx.data.held,
                                   ver["k"], ver["alpha"], seed)


@_verdict_trial
def _trial_metaresult(fx, ver, seed, provider) -> Verdict:
    asked = _ask_uniform(provider, seed, ver["k"], fx.data.recipe.dim)
    return metaresult_verify(asked, fx.supplier.mac_key)


def _campaign_robustness(fx: _Fixtures, raw: dict, seeds: list[int]) -> list[dict]:
    """Every trial's attacks at once: the claimed side in one
    `blackbox_attacks` call over the supplier's model, the measured side in
    one over the service, whose owners are t * n + k (attack k of trial t),
    then each trial's claim check and latency pings."""
    ver = raw["verifier"]
    dim = fx.data.recipe.dim
    classes = list(range(fx.data.recipe.n_classes))
    per_class = ver["trials_per_class"]
    acfg = AttackConfig(tau=ver["tau"], step_size=ver["step_size"],
                        max_queries=ver["max_queries"])
    params = SigmoidParams(ver["sigmoid"]["q0"], ver["sigmoid"]["s_scale"])

    # the supplier's published claims: its own model measured from the same
    # attack starts the verifier is about to use on the service, drawn on
    # each trial's inputs stream
    starts = [derive_seed(seed, 1) for seed in seeds]
    supplier_model = fx.supplier.model
    claimed = robustness_benchmarks(
        lambda X, _owners: forward_batch(supplier_model, X), dim, classes,
        per_class, acfg, params, starts)

    # attack k of trial s draws on its own stream derive_seed(derive_seed(s,
    # 3), k), so the attacks are independent and advance in lockstep. A
    # CachedReplay provider keeps a replay cache, so each trial asks its rows
    # of its own provider and no trial replays another's; every other kind
    # is stateless, and each scorer call is one ask over every trial's rows
    n = len(classes) * per_class
    streams = [derive_seed(derive_seed(seed, 3), k) for seed in seeds
               for k in range(n)]
    if fx.provider.kind == CACHED_REPLAY:
        providers = [fx.fresh_provider() for _ in seeds]
        bounds = np.arange(0, len(streams) + 1, n)
    else:
        providers = [fx.fresh_provider()] * len(seeds)
        bounds = [0, len(streams)]

    def service(X, owners):
        nonlocal streams
        blocks = []
        cuts = np.searchsorted(owners, bounds)
        for a, b in zip(cuts, cuts[1:]):
            if a < b:
                answers, streams = ask(X[a:b], providers[owners[a] // n],
                                       streams, owners[a:b])
                blocks.append(answers.matrix)
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    measured = robustness_benchmarks(service, dim, classes, per_class, acfg,
                                     params, starts)
    trials = []
    for t, seed in enumerate(seeds):
        verdict = claim_check(measured[t],
                              [(s.class_id, s.score) for s in claimed[t]],
                              ver["tolerance"])
        trials.append({"seed": seed, "verdict": verdict.to_dict(),
                       "latency_ms": _mean_latency(providers[t], dim, seed),
                       "claimed_scores": [s.to_dict() for s in claimed[t]],
                       "measured_scores": [s.to_dict() for s in measured[t]]})
    return trials


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


def _each(trial):
    """The campaign of a per-trial scenario: its trials one after another."""
    return lambda fx, raw, seeds: [trial(fx, raw, seed) for seed in seeds]


# scenario -> campaign function (fixtures, raw config, trial seeds) -> trials
_CAMPAIGNS = {
    cfgmod.STEG_PROBE: _each(_trial_steg),
    cfgmod.DETERMINISTIC_BENCH: _each(_trial_deterministic),
    cfgmod.PROBABILISTIC_BENCH: _each(_trial_probabilistic),
    cfgmod.METARESULT: _each(_trial_metaresult),
    cfgmod.ROBUSTNESS: _campaign_robustness,
    cfgmod.AUDITOR: _each(_trial_auditor),
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
    started = time.perf_counter()
    fx = build_fixtures(cfg)
    seeds = [derive_seed(cfg.master_seed, t) for t in range(cfg.trials)]
    results = _CAMPAIGNS[cfg.scenario](fx, cfg.raw, seeds)
    return {
        "schema_version": cfgmod.SCHEMA_VERSION,
        "version": __version__,
        "scenario": cfg.scenario,
        "master_seed": cfg.master_seed,
        "trials": cfg.trials,
        "config": cfg.raw,
        "trial_results": results,
        "aggregates": _aggregate(cfg.scenario, results),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }


def sweep(cfg: cfgmod.ScenarioConfig, param_name: str, values: list) -> list[dict]:
    """One run_scenario per value of a numeric config field (dotted path,
    e.g. "provider.cheat_rate"); fixtures are shared through the disk cache,
    and so are the supplier gate's accuracy and the steg calibration, which
    no provider field changes. Every value's config is validated before the
    first campaign runs."""
    cfgs = [cfgmod.validate_config(
                cfgmod.set_config_value(cfg.raw, param_name, value))
            for value in values]
    return [run_scenario(c) for c in cfgs]


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_VERDICT_KEYS = {f.name for f in fields(Verdict)}


def explain_verdict(report: dict, trial_index: int) -> str:
    """Human-readable evidence chain for one trial of a report."""
    if not isinstance(report, dict):
        raise ParameterError("report is not a JSON object")
    trials = report.get("trial_results")
    if not isinstance(trials, list):
        raise ParameterError("report has no trial_results list")
    if not 0 <= trial_index < len(trials):
        raise ParameterError(
            f"trial index {trial_index} out of range [0, {len(trials)})")
    entry = trials[trial_index]
    if not isinstance(entry, dict):
        raise ParameterError(f"trial {trial_index} is not a JSON object")
    lines = [f"scenario {report.get('scenario')} trial {trial_index} "
             f"(seed {entry.get('seed')})"]
    verdict = entry.get("verdict")
    if verdict is not None:
        if not isinstance(verdict, dict):
            raise ParameterError(f"trial {trial_index} verdict is not a JSON object")
        missing = sorted(_VERDICT_KEYS - verdict.keys())
        if missing:
            raise ParameterError(
                f"trial {trial_index} verdict lacks {', '.join(missing)}")
        for key in ("statistic", "p_value", "cheat_probability"):
            value = verdict[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParameterError(
                    f"trial {trial_index} verdict {key} is not a number")
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
    if not isinstance(cfg, dict):
        raise ParameterError("report config is not a JSON object")
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

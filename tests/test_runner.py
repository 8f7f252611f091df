import copy
import dataclasses
import hashlib
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from veriml import (adversarial, auditor, cache, canon, cli, data, entities,
                    mlp, runner, verifiers)
from veriml import config as cfgmod
from veriml.adversarial import (AttackConfig, RobustnessScore, SigmoidParams,
                                claim_check, robustness_benchmark,
                                robustness_score)
from veriml.entities import (CACHED_REPLAY, PROVIDER_KINDS,
                             provider_classify)
from veriml._version import __version__
from veriml.errors import ConfigValidationError, ParameterError
from veriml.mlp import forward, save_model
from veriml.rng import derive_seed, mix64, rng_advance, uniform_array

REPORT_KEYS = {"schema_version", "version", "scenario", "master_seed", "trials",
               "config", "trial_results", "aggregates", "wall_time_s"}


def _run(scenario, provider_kind="SubstituteModel", trials=2, seed=42):
    raw = cfgmod.builtin_config(scenario, provider_kind=provider_kind,
                                trials=trials, master_seed=seed)
    return runner.run_scenario(cfgmod.validate_config(raw))


def _stable_json(report):
    trimmed = copy.deepcopy(report)
    trimmed.pop("wall_time_s")
    return runner.report_to_json(trimmed)


# -- report shape ------------------------------------------------------------------


@pytest.mark.parametrize("scenario", cfgmod.SCENARIOS)
def test_every_scenario_produces_a_well_formed_report(scenario):
    report = _run(scenario)
    assert set(report) == REPORT_KEYS
    assert report["schema_version"] == cfgmod.SCHEMA_VERSION
    assert report["version"] == __version__
    assert report["scenario"] == scenario
    assert len(report["trial_results"]) == 2
    agg = report["aggregates"]
    assert 0.0 <= agg["detection_rate"] <= 1.0
    assert agg["mean_latency_ms"] >= 0.0
    for trial in report["trial_results"]:
        assert "seed" in trial and "latency_ms" in trial
    # the whole report serializes cleanly
    parsed = json.loads(runner.report_to_json(report))
    assert parsed["scenario"] == scenario


def test_report_json_is_sorted_and_newline_terminated():
    report = _run(cfgmod.DETERMINISTIC_BENCH, trials=1)
    text = runner.report_to_json(report)
    assert text.endswith("\n")
    assert text == runner.report_to_json(json.loads(text))


# -- determinism -------------------------------------------------------------------


def test_reports_reproduce_modulo_wall_time():
    a = _run(cfgmod.STEG_PROBE, trials=3)
    b = _run(cfgmod.STEG_PROBE, trials=3)
    assert _stable_json(a) == _stable_json(b)


def test_master_seed_changes_trials():
    a = _run(cfgmod.STEG_PROBE, trials=2, seed=42)
    b = _run(cfgmod.STEG_PROBE, trials=2, seed=43)
    seeds_a = [t["seed"] for t in a["trial_results"]]
    seeds_b = [t["seed"] for t in b["trial_results"]]
    assert seeds_a != seeds_b


# -- the point of the whole thing --------------------------------------------------


@pytest.mark.parametrize("scenario", [cfgmod.STEG_PROBE,
                                      cfgmod.DETERMINISTIC_BENCH,
                                      cfgmod.PROBABILISTIC_BENCH,
                                      cfgmod.METARESULT])
def test_honest_clears_and_substitute_is_flagged(scenario):
    honest = _run(scenario, provider_kind="HonestPassthrough")
    assert honest["aggregates"]["detection_rate"] == 0.0
    cheat = _run(scenario, provider_kind="SubstituteModel")
    assert cheat["aggregates"]["detection_rate"] == 1.0


def test_robustness_honest_deltas_are_exactly_zero():
    report = _run(cfgmod.ROBUSTNESS, provider_kind="HonestPassthrough")
    assert report["aggregates"]["detection_rate"] == 0.0
    for trial in report["trial_results"]:
        claimed = {s["class_id"]: s["score"] for s in trial["claimed_scores"]}
        measured = {s["class_id"]: s["score"] for s in trial["measured_scores"]}
        # the honest provider is the supplier's own model under the same
        # attack seeds, so the scores agree to the bit
        assert measured == claimed


def test_robustness_flags_weaker_substitute():
    report = _run(cfgmod.ROBUSTNESS, provider_kind="SubstituteModel")
    assert report["aggregates"]["detection_rate"] == 1.0


def _attack_by_definition(dim, x0, target, cfg):
    """One black-box attack by its definition, as a generator: it yields each
    point it asks, one at a time, is sent the point's probabilities, and
    returns its final point, query count and final probability."""
    x = x0.copy()
    prob = float((yield x)[target])
    queries = 1
    while prob < cfg.tau and queries + 2 * dim + 1 <= cfg.max_queries:
        g = np.empty(dim)
        for j in range(dim):
            up, dn = x.copy(), x.copy()
            up[j] = min(1.0, x[j] + cfg.fd_epsilon)
            dn[j] = max(0.0, x[j] - cfg.fd_epsilon)
            g[j] = (float((yield up)[target]) - float((yield dn)[target])) \
                / (2.0 * cfg.fd_epsilon)
        x = np.clip(x + cfg.step_size * np.sign(g), 0.0, 1.0)
        prob = float((yield x)[target])
        queries += 2 * dim + 1
    return x, queries, prob


def _reference_trial_robustness(fx, raw, seed):
    """A Robustness trial by its definition: one-row forward for the claim;
    for the measured side, attack k = class_index * trials + trial starts
    from derive_seed(derive_seed(seed, 1), k), on the trial's inputs stream,
    and asks one provider_classify per query on its own stream
    derive_seed(derive_seed(seed, 3), k). The attacks go in
    lockstep: every start, then per step each live attack's 2*dim probes
    (attack-major), then each live attack's moved point, every query on the
    trial's one replay store. Returns the trial, that store and a box
    holding each query's attack ("owners"), each attack's end state
    ("rngs"), the number of attack queries and the number of replay-store
    entries the attacks made ("attack_entries")."""
    ver = raw["verifier"]
    dim = fx.data.recipe.dim
    classes = list(range(fx.data.recipe.n_classes))
    trials = ver["trials_per_class"]
    acfg = AttackConfig(tau=ver["tau"], step_size=ver["step_size"],
                        max_queries=ver["max_queries"])
    params = SigmoidParams(ver["sigmoid"]["q0"], ver["sigmoid"]["s_scale"])
    claimed = robustness_benchmark(
        lambda X, _owners: np.array([forward(fx.supplier.model, x) for x in X]),
        dim, classes, trials, acfg, params, derive_seed(seed, 1))
    provider, store = fx.provider, {}
    n = len(classes) * trials
    box = {"rngs": [derive_seed(derive_seed(seed, 3), k) for k in range(n)],
           "owners": [], "queries": 0}
    attacks = [_attack_by_definition(
        dim, uniform_array(derive_seed(derive_seed(seed, 1), k), dim)[0],
        classes[k // trials], acfg) for k in range(n)]
    asking = {k: next(attacks[k]) for k in range(n)}
    results = [None] * n

    def ask(k):
        resp, box["rngs"][k] = provider_classify(provider, asking[k],
                                                 box["rngs"][k], store)
        box["owners"].append(k)
        box["queries"] += 1
        try:
            asking[k] = attacks[k].send(resp.probs)
        except StopIteration as done:
            results[k] = done.value
            del asking[k]

    for k in range(n):
        ask(k)
    while asking:
        live = sorted(asking)
        for k in live:
            for _ in range(2 * dim):
                ask(k)
        for k in live:
            ask(k)
    measured = []
    for ci, cls in enumerate(classes):
        total, failures = 0.0, 0
        for _, queries, prob in results[ci * trials:(ci + 1) * trials]:
            if prob >= acfg.tau:
                total += queries
            else:
                failures += 1
                total += acfg.max_queries
        mean_q = total / trials
        measured.append(RobustnessScore(
            cls, mean_q, robustness_score(mean_q, params), trials, failures))
    verdict = claim_check(measured, [(s.class_id, s.score) for s in claimed],
                          ver["tolerance"])
    box["attack_entries"] = len(store)
    trial = {"seed": seed, "verdict": verdict.to_dict(),
             "latency_ms": runner._mean_latency(provider, dim, seed, store),
             "claimed_scores": [s.to_dict() for s in claimed],
             "measured_scores": [s.to_dict() for s in measured]}
    return trial, store, box


@pytest.mark.parametrize("kind", PROVIDER_KINDS)
@pytest.mark.parametrize("env", ["prob_env", "steg_env", "det_env", "meta_env",
                                 "robust_env"])
def test_warm_trial_builds_no_response_for_fresh_rows(request, monkeypatch,
                                                      env, kind):
    """The verifiers and the latency pings read the answers' columns, and a
    replay store keeps columns too: a trial makes no Response at all."""
    cfg, base = request.getfixturevalue(env)
    fx = dataclasses.replace(base, provider=dataclasses.replace(
        base.provider, kind=kind, cheat_rate=0.5, noise_sigma=0.05))
    made, rows = [], []

    class Counted(entities.Response):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    real_ask = entities.ask

    def ask(*args, **kwargs):
        answers, rng = real_ask(*args, **kwargs)
        rows.append(len(answers))
        return answers, rng

    monkeypatch.setattr(entities, "Response", Counted)
    for module in (entities, verifiers, runner):
        monkeypatch.setattr(module, "ask", ask)
    runner._CAMPAIGNS[cfg.scenario](fx, cfg.raw, [17])
    assert sum(rows) > runner._LATENCY_PINGS
    assert made == []


def _kind_fixtures(base, kind, mac):
    """`base` with a provider of `kind`; with `mac`, the supplier's key gives
    the honest path nonces and the cheat path forged tags."""
    supplier = dataclasses.replace(base.supplier,
                                   mac_key=bytes(range(32)) if mac else None)
    return dataclasses.replace(base, provider=dataclasses.replace(
        base.provider, kind=kind, backend=supplier, cheat_rate=0.5,
        noise_sigma=0.05))


class _RobustnessCalls:
    """Records, while installed, every ask (its rows, owners, stream states
    before and after it, provider and replay stores; the reference's
    one-query calls are blocks of one) and the rows of each scorer call per
    robustness_benchmarks call."""

    def __init__(self, monkeypatch):
        self.asks, self.scored = [], []
        real_ask, real_benchmarks = entities.ask, runner.robustness_benchmarks

        def ask(X, provider, rng, owners=None, replays=None):
            before = rng if owners is None else list(rng)
            answers, after = real_ask(X, provider, rng, owners, replays)
            self.asks.append((len(X), owners, before, after, provider, replays))
            return answers, after

        def benchmarks(service, *args):
            self.scored.append([])

            def counted(X, owners):
                self.scored[-1].append(len(X))
                return service(X, owners)
            return real_benchmarks(counted, *args)

        for module in (entities, runner):
            monkeypatch.setattr(module, "ask", ask)
        monkeypatch.setattr(runner, "robustness_benchmarks", benchmarks)

    def clear(self):
        del self.asks[:], self.scored[:]


def _reference_chains(calls, fx, raw, seed):
    """The reference trial of `seed`, its replay store, and each attack's
    chain of stream states, from derive_seed(derive_seed(seed, 3), k) to its
    end state, read off the reference's one-query asks; then the latency
    pings' ask."""
    calls.clear()
    want, ref_store, box = _reference_trial_robustness(fx, raw, seed)
    # the reference asks one query at a time, then the latency pings, every
    # ask on the trial's store
    assert [n for n, *_ in calls.asks] == \
        [1] * box["queries"] + [runner._LATENCY_PINGS]
    assert all(ask[5] is ref_store for ask in calls.asks)
    chains = [[derive_seed(derive_seed(seed, 3), k)] for k in range(len(box["rngs"]))]
    for (_, _, before, after, _, _), k in zip(calls.asks, box["owners"]):
        assert before == chains[k][-1]
        chains[k].append(after)
    assert [chain[-1] for chain in chains] == box["rngs"]
    if fx.provider.kind == CACHED_REPLAY:
        assert 0 < box["attack_entries"] < box["queries"]
    return want, ref_store, chains, calls.asks[-1][:4]


def _assert_same_cache(got, want):
    """Two replay stores hold the same keys, in order, and each entry's
    probability bytes, certificate and latency."""
    assert list(got) == list(want)
    for key, (probs, certificate, latency) in want.items():
        assert canon.vec(got[key][0]) == canon.vec(probs)
        assert got[key][1] == certificate
        assert got[key][2] == latency


@pytest.mark.parametrize("mac", [False, True])
@pytest.mark.parametrize("seed", [5, 2 ** 40 + 3])
@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_trial_robustness_equals_its_definition(robust_env, monkeypatch,
                                                kind, seed, mac):
    """Every trial of a Robustness campaign, of 1 trial and of 3, equals the
    reference trial of its seed: attack k of trial t asks on
    derive_seed(derive_seed(s_t, 3), k) as owner t * n + k, on trial t's
    replay store, each scorer call of the measured side is one ask of the
    one provider, for every kind, and the latency pings follow in one ask,
    trial t's as owner t on its own ping stream and store."""
    cfg, base = robust_env
    fx = _kind_fixtures(base, kind, mac)
    raw = cfg.raw
    calls = _RobustnessCalls(monkeypatch)
    refs = {s: _reference_chains(calls, fx, raw, s)
            for s in {seed, 7, 2 ** 63 + 11}}
    for seeds in ([seed], [seed, 7, 2 ** 63 + 11]):
        calls.clear()
        got = runner._campaign_robustness(fx, raw, seeds)
        assert got == [refs[s][0] for s in seeds]
        T, n = len(seeds), len(refs[seed][2])
        chains = [chain for s in seeds for chain in refs[s][2]]
        # the attacks' asks, then one ask of every trial's latency pings
        attack_asks, ping = calls.asks[:-1], calls.asks[-1]
        pings = runner._LATENCY_PINGS
        n_rows, owners, before, after, _, stores = ping
        assert n_rows == T * pings
        assert np.asarray(owners).tolist() == np.repeat(range(T), pings).tolist()
        assert [(pings, None, b, a) for b, a in zip(before, after)] == \
            [refs[s][3] for s in seeds]
        assert len(stores) == T and len(set(map(id, stores))) == T
        # every ask is of the campaign's one provider, and each scorer call
        # of the measured side is one ask, its owners on their trials' stores
        assert all(ask[4] is fx.provider for ask in calls.asks)
        assert [ask[0] for ask in attack_asks] == calls.scored[1]
        for ask in attack_asks:
            assert len(ask[5]) == T * n
            assert all(ask[5][o] is stores[o // n] for o in range(T * n))
        # each attack's runs of rows chain its own stream along the
        # reference's states, from its first state to its end state
        at = [0] * len(chains)
        for n_rows, owners, before, after, _, _ in attack_asks:
            assert len(owners) == n_rows and len(before) == len(chains)
            cuts = [0, *(np.flatnonzero(np.diff(owners)) + 1).tolist(), n_rows]
            for a, b in zip(cuts, cuts[1:]):
                k = int(owners[a])
                assert before[k] == chains[k][at[k]]
                at[k] += b - a
                assert after[k] == chains[k][at[k]]
        assert at == [len(chain) - 1 for chain in chains]
        for t, s in enumerate(seeds):
            _assert_same_cache(stores[t], refs[s][1])


@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_robustness_asks_once_per_scorer_call_for_every_kind(robust_env,
                                                             monkeypatch, kind):
    """A 4-trial campaign asks one provider once per measured scorer call,
    CachedReplay as the stateless kinds, and once more for the pings."""
    cfg, base = robust_env
    fx = _kind_fixtures(base, kind, True)
    calls = _RobustnessCalls(monkeypatch)
    runner._campaign_robustness(fx, cfg.raw, [derive_seed(42, t) for t in range(4)])
    assert len(calls.scored) == 2 and len(calls.scored[1]) > 1
    assert len(calls.asks) == len(calls.scored[1]) + 1
    assert {id(ask[4]) for ask in calls.asks} == {id(fx.provider)}


@pytest.mark.parametrize("mac", [False, True])
def test_cached_replay_trials_replay_no_other_trials_rows(robust_env,
                                                          monkeypatch, mac):
    """Two trials of one seed ask the same inputs: each trial keeps its own
    replay store, so both equal the one-trial reference and neither replays
    the other's rows."""
    cfg, base = robust_env
    fx = _kind_fixtures(base, CACHED_REPLAY, mac)
    calls = _RobustnessCalls(monkeypatch)
    want, ref_store, _, _ = _reference_chains(calls, fx, cfg.raw, 5)
    calls.clear()
    assert runner._campaign_robustness(fx, cfg.raw, [5, 5]) == [want, want]
    stores = calls.asks[-1][5]
    assert len(stores) == 2 and stores[0] is not stores[1]
    for store in stores:
        _assert_same_cache(store, ref_store)


def test_robustness_attack_starts_take_no_other_stream(robust_env, monkeypatch):
    """No attack start is drawn on a stream another purpose of a campaign's
    trials uses: the root of a trial's attack query streams
    derive_seed(seed, 3), any attack's query stream, the query stream
    derive_seed(seed, 2) or the latency pings' streams. Eight attacks per
    trial, so k reaches 3 and 7."""
    cfg, fx = robust_env
    raw = copy.deepcopy(cfg.raw)
    raw["verifier"]["trials_per_class"] = 4
    n = 4 * fx.data.recipe.n_classes
    assert n >= 8
    starts, real = [], adversarial.uniform_array

    def recorded(state, count):
        starts.append((state, count))
        return real(state, count)

    monkeypatch.setattr(adversarial, "uniform_array", recorded)
    for seeds in ([5], [2 ** 40 + 3], [5, 2 ** 40 + 3, 2 ** 63 + 11]):
        del starts[:]
        runner._campaign_robustness(fx, raw, seeds)
        # the claimed side, then the measured one
        assert len(starts) == 2 * n * len(seeds)
        others = set()
        for seed in seeds:
            base, pings = derive_seed(seed, 3), derive_seed(seed, 7)
            others.update({base, pings, derive_seed(seed, 2),
                           derive_seed(pings, 1), derive_seed(pings, 2)})
            others.update(derive_seed(base, k) for k in range(n))
        for state, dim in starts:
            window = [rng_advance(state, i) for i in range(dim + 1)]
            assert not others.intersection(window)
            # nor is a stream's first state one of the start's draws
            assert not others.intersection(map(mix64, window[1:]))


def _reference_uniform_asks(provider, dim, seed, n, store):
    """n inputs of `dim` uniforms from uniform_array(derive_seed(seed, 1)),
    each asked with provider_classify, row by row, on derive_seed(seed, 2)
    and the replay store `store`."""
    flat, _ = uniform_array(derive_seed(seed, 1), n * dim)
    xs, state, responses = flat.reshape(n, dim), derive_seed(seed, 2), []
    for x in xs:
        resp, state = provider_classify(provider, x, state, store)
        responses.append(resp)
    return xs, responses


@pytest.mark.parametrize("mac", [False, True])
@pytest.mark.parametrize("seed", [5, 2 ** 40 + 3])
@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_trial_metaresult_equals_its_definition(meta_env, monkeypatch, kind,
                                                seed, mac):
    """The queries are the trial seed's uniform inputs asked on its query
    stream, then the latency pings are derive_seed(seed, 7)'s, asked of the
    same provider on the same replay store."""
    cfg, base = meta_env
    fx = _kind_fixtures(base, kind, mac)
    dim, k = fx.data.recipe.dim, cfg.raw["verifier"]["k"]
    ref = {}
    xs, responses = _reference_uniform_asks(fx.provider, dim, seed, k, ref)
    verdict = verifiers.metaresult_verify(list(zip(xs, responses)),
                                          fx.supplier.mac_key)
    _, pings = _reference_uniform_asks(fx.provider, dim, derive_seed(seed, 7),
                                       runner._LATENCY_PINGS, ref)
    want = {"seed": seed, "verdict": verdict.to_dict(),
            "latency_ms": sum(r.latency_ms for r in pings) / runner._LATENCY_PINGS}
    stores, real_ask = [], entities.ask

    def ask(X, provider, rng, owners=None, replays=None):
        stores.append(replays)
        return real_ask(X, provider, rng, owners, replays)

    monkeypatch.setattr(runner, "ask", ask)
    assert runner._trial_metaresult(fx, cfg.raw, seed) == want
    assert len(stores) == 2 and stores[0] is stores[1]
    assert stores[0].keys() == ref.keys()
    if kind == CACHED_REPLAY:
        assert len(ref) == k + runner._LATENCY_PINGS


@pytest.mark.parametrize("mac", [False, True])
@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_latency_pings_equal_their_definition(meta_env, kind, mac):
    """A CachedReplay store that already holds ping 1's input replays it
    without a draw, so the later pings start one query earlier on the query
    stream; their inputs are drawn on a stream of their own and stay. One
    trial's pings alone and a campaign's, each trial on its own store and
    all in one ask, are the same."""
    _, base = meta_env
    fx = _kind_fixtures(base, kind, mac)
    provider, dim, seed, n = fx.provider, fx.data.recipe.dim, 11, runner._LATENCY_PINGS
    one, many, campaign = {}, {}, [{}, {}]
    if kind == CACHED_REPLAY:
        flat, _ = uniform_array(derive_seed(derive_seed(seed, 7), 1), n * dim)
        x1 = flat.reshape(n, dim)[1]
        held, _ = provider_classify(provider, x1, 123, {})
        for store in (one, many, campaign[0]):
            store[canon.vec(x1)] = (held.probs, held.certificate, held.latency_ms)
    _, responses = _reference_uniform_asks(provider, dim, derive_seed(seed, 7),
                                           n, one)
    want = sum(r.latency_ms for r in responses) / n
    assert runner._mean_latency(provider, dim, seed, many) == want
    assert many.keys() == one.keys()
    if kind == CACHED_REPLAY:
        assert (responses[1].probs.tobytes(), responses[1].certificate,
                responses[1].latency_ms) == \
            (held.probs.tobytes(), held.certificate, held.latency_ms)
    # a campaign of two trials, the second on a store of its own
    other = {}
    _, responses = _reference_uniform_asks(provider, dim, derive_seed(12, 7),
                                           n, other)
    assert runner._mean_latencies(provider, dim, [seed, 12], campaign) == \
        [want, sum(r.latency_ms for r in responses) / n]
    assert [s.keys() for s in campaign] == [one.keys(), other.keys()]


def test_cold_build_fixtures_makes_each_pool_once(tmp_path, monkeypatch):
    """The held-out split and both cache-miss trainings share one pool."""
    monkeypatch.setenv("VERIML_CACHE_DIR", str(tmp_path))
    made = []
    real = data.make_blobs

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(data, "make_blobs", counted)
    data._pool.cache_clear()
    raw = cfgmod.builtin_config(cfgmod.ROBUSTNESS, trials=1)
    block = raw["supplier"]["data"]
    runner.build_fixtures(cfgmod.validate_config(raw))
    # supplier and cheap trained, plus the supplier's gate accuracy
    assert len(list(tmp_path.glob("*.bin"))) == 3
    assert len(_payload_entries(tmp_path, _GATE_LEN)) == 1
    assert made == [(block["n_classes"], block["n_per_class"], block["dim"],
                     block["spread"], block["seed"])]


def test_auditor_trials_reach_consensus():
    report = _run(cfgmod.AUDITOR)
    assert report["aggregates"]["detection_rate"] == 1.0
    assert report["aggregates"]["mean_p_value"] is None
    for trial in report["trial_results"]:
        assert trial["consensus"] and trial["value_matches_truth"]
        assert trial["chain_ok"] and trial["conservation"]
        assert trial["majority_size"] == 5
        assert trial["n_blocks"] == 4


# -- sweep -------------------------------------------------------------------------


def test_sweep_cheat_rate_endpoints():
    raw = cfgmod.builtin_config(cfgmod.DETERMINISTIC_BENCH,
                                provider_kind="PartialCheat", trials=2)
    cfg = cfgmod.validate_config(raw)
    reports = runner.sweep(cfg, "provider.cheat_rate", [0.0, 1.0])
    assert [r["aggregates"]["detection_rate"] for r in reports] == [0.0, 1.0]
    assert [r["config"]["provider"]["cheat_rate"] for r in reports] == [0.0, 1.0]


def test_sweep_empty_values():
    cfg = cfgmod.validate_config(cfgmod.builtin_config(cfgmod.STEG_PROBE))
    assert runner.sweep(cfg, "provider.cheat_rate", []) == []


def test_sweep_rejects_values_that_fail_validation():
    cfg = cfgmod.validate_config(
        cfgmod.builtin_config(cfgmod.DETERMINISTIC_BENCH,
                              provider_kind="PartialCheat", trials=1))
    with pytest.raises(ConfigValidationError):
        runner.sweep(cfg, "provider.cheat_rate", [2.0])


def test_sweep_validates_every_value_before_running_any(monkeypatch):
    cfg = cfgmod.validate_config(
        cfgmod.builtin_config(cfgmod.DETERMINISTIC_BENCH, trials=1))
    ran = []
    monkeypatch.setattr(runner, "run_scenario", ran.append)
    with pytest.raises(ConfigValidationError, match="verifier.n_queries"):
        runner.sweep(cfg, "verifier.n_queries", [5, 10, 0])
    assert ran == []


# -- explain -----------------------------------------------------------------------


def test_explain_renders_verdict_fields():
    report = _run(cfgmod.STEG_PROBE, trials=2)
    text = runner.explain_verdict(report, 0)
    for token in ("scenario StegProbe trial 0", "method:", "decision:",
                  "p-value:", "evidence:", "verifier settings:"):
        assert token in text


def test_explain_renders_auditor_fields():
    report = _run(cfgmod.AUDITOR, trials=1)
    text = runner.explain_verdict(report, 0)
    for token in ("consensus_value", "chain_ok", "conservation"):
        assert token in text


def test_explain_bounds_and_shape_errors():
    report = _run(cfgmod.STEG_PROBE, trials=2)
    with pytest.raises(ParameterError):
        runner.explain_verdict(report, 2)
    with pytest.raises(ParameterError):
        runner.explain_verdict(report, -1)
    with pytest.raises(ParameterError):
        runner.explain_verdict({"scenario": "StegProbe"}, 0)


# -- auditor demo ------------------------------------------------------------------


def test_auditor_demo_reproducible_and_conserving():
    a = runner.auditor_demo(master_seed=42, rounds=3)
    b = runner.auditor_demo(master_seed=42, rounds=3)
    assert runner.report_to_json(a) == runner.report_to_json(b)
    assert a["chain_ok"] and a["conservation"]
    assert [r["fee"] for r in a["rounds"]] == [100, 103, 106]
    assert all(r["consensus"] and r["majority_size"] == 5 for r in a["rounds"])
    # genesis plus (request, reports, settlement) per round
    assert len(a["ledger_jsonl"]) == 1 + 3 * 3
    for line in a["ledger_jsonl"]:
        json.loads(line)
    # every escrowed fee came back into circulation
    total = sum(a["final_balances"].values())
    assert total == 10000 + 7 * 50


# -- fixture cache -----------------------------------------------------------------


def test_cache_dir_honors_environment(_isolated_cache):
    assert cache.cache_dir() == Path(_isolated_cache)
    assert any(Path(_isolated_cache).glob("*.bin"))


def test_corrupt_cache_entry_falls_back_to_retraining(_isolated_cache):
    cfg = cfgmod.validate_config(cfgmod.builtin_config(cfgmod.DETERMINISTIC_BENCH))
    fx = runner.build_fixtures(cfg)
    saved = {p: p.read_bytes() for p in Path(_isolated_cache).glob("*.bin")}
    assert saved
    try:
        for p in saved:
            p.write_bytes(b"\x00garbage")
        rebuilt = runner.build_fixtures(cfg)
        assert save_model(rebuilt.supplier.model) == save_model(fx.supplier.model)
        # the retrained entries replaced the garbage
        assert any(p.read_bytes() != b"\x00garbage"
                   for p in Path(_isolated_cache).glob("*.bin"))
    finally:
        for p, blob in saved.items():
            p.write_bytes(blob)


def test_cache_store_does_not_collide_with_a_leftover_temp_path(tmp_path, monkeypatch):
    monkeypatch.setenv("VERIML_CACHE_DIR", str(tmp_path))
    key = bytes(range(32))
    leftover = tmp_path / (key.hex() + ".tmp")
    leftover.mkdir()
    cache._cache_store(key, b"entry")
    assert cache._cache_fetch(key) == b"entry"
    # the writer's own temp file is gone; the foreign one is untouched
    assert sorted(p.name for p in tmp_path.iterdir()) == [key.hex() + ".bin",
                                                          leftover.name]


def test_cache_entry_with_flipped_weight_bits_is_rebuilt(tmp_path, monkeypatch):
    # a corrupt supplier that still parses used to be loaded as is, and
    # detection of the substitute fell from 1.0 to 0.5
    monkeypatch.setenv("VERIML_CACHE_DIR", str(tmp_path))
    cold = _run(cfgmod.PROBABILISTIC_BENCH)
    raw = cfgmod.builtin_config(cfgmod.PROBABILISTIC_BENCH,
                                provider_kind="SubstituteModel", trials=2)
    model = runner.build_fixtures(cfgmod.validate_config(raw)).supplier.model
    blob = save_model(model)
    [path] = [p for p in tmp_path.glob("*.bin") if p.read_bytes().endswith(blob)]
    entry = bytearray(path.read_bytes())
    base = len(entry) - len(blob)
    for w in model.weights:
        at = base + blob.index(w.tobytes())
        for i in range(w.size):
            entry[at + 8 * i + 7] ^= 0x40  # top exponent bit of each weight
    path.write_bytes(bytes(entry))

    warm = _run(cfgmod.PROBABILISTIC_BENCH)
    assert _stable_json(warm) == _stable_json(cold)
    assert warm["aggregates"]["detection_rate"] == 1.0
    assert path.read_bytes() != bytes(entry)  # the rebuilt entry replaced it


def test_reference_and_oracle_retrains_are_cache_hits(tmp_path, monkeypatch):
    # the DeterministicBench reference and the auditor oracles retrain through
    # the fixture cache, so a fresh process on a filled cache trains nothing
    monkeypatch.setenv("VERIML_CACHE_DIR", str(tmp_path))
    auditor._METRIC_CACHE.clear()
    cold = [_run(cfgmod.DETERMINISTIC_BENCH, provider_kind="HonestPassthrough"),
            _run(cfgmod.AUDITOR)]
    auditor._METRIC_CACHE.clear()

    def no_training(*args, **kwargs):
        raise AssertionError("trained on a filled cache")

    monkeypatch.setattr(cache, "train_sgd", no_training)
    warm = [_run(cfgmod.DETERMINISTIC_BENCH, provider_kind="HonestPassthrough"),
            _run(cfgmod.AUDITOR)]
    assert [_stable_json(r) for r in warm] == [_stable_json(r) for r in cold]


# -- cached calibration and gate accuracy ------------------------------------------

_CALIB_LEN, _GATE_LEN = 16, 8  # payload bytes: (p_detect, p_clean), accuracy


def _payload_entries(root: Path, length: int) -> list[Path]:
    """The cache entries whose payload (after the 32-byte checksum) is
    `length` bytes: the calibration and gate entries, never a model."""
    return sorted(p for p in root.glob("*.bin")
                  if len(p.read_bytes()) == 32 + length)


def _steg_raw(kind="SubstituteModel", trials=2):
    return cfgmod.builtin_config(cfgmod.STEG_PROBE, provider_kind=kind,
                                 trials=trials)


def _steg_sweep(raw):
    return runner.sweep(cfgmod.validate_config(raw), "provider.cheat_rate",
                        [0.1, 0.5, 0.9])


@pytest.fixture(scope="module")
def cold_steg(tmp_path_factory):
    """A fixture cache filled from empty by one StegProbe campaign and one
    3-value PartialCheat sweep, with the stable bytes of those cold reports."""
    root = tmp_path_factory.mktemp("cold-steg-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("VERIML_CACHE_DIR", str(root))
        campaign = runner.run_scenario(cfgmod.validate_config(_steg_raw()))
        swept = _steg_sweep(_steg_raw("PartialCheat"))
    return root, [_stable_json(r) for r in [campaign, *swept]]


def _warm_copy(cold_steg, tmp_path, monkeypatch) -> Path:
    root = tmp_path / "cache"
    shutil.copytree(cold_steg[0], root)
    monkeypatch.setenv("VERIML_CACHE_DIR", str(root))
    return root


def _forbid(monkeypatch, name, *modules):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran on a filled cache")
    for mod in modules:
        monkeypatch.setattr(mod, name, forbidden)


def _counted(monkeypatch, name, *modules):
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_cold_campaign_stores_one_calibration_and_one_gate_entry(cold_steg):
    root = cold_steg[0]
    assert len(_payload_entries(root, _CALIB_LEN)) == 1
    assert len(_payload_entries(root, _GATE_LEN)) == 1
    fx = runner.build_fixtures(cfgmod.validate_config(_steg_raw()))
    [calib] = _payload_entries(root, _CALIB_LEN)
    assert calib.read_bytes()[32:] == struct.pack(
        "<2d", fx.suite.p_detect, fx.suite.p_clean)


def test_warm_campaign_and_sweep_measure_no_pure_fixture(cold_steg, tmp_path,
                                                         monkeypatch):
    # regression guard: on a filled cache neither the steg calibration nor
    # the supplier's training accuracy is measured again
    _warm_copy(cold_steg, tmp_path, monkeypatch)
    _forbid(monkeypatch, "measure_roundtrip", runner, verifiers)
    _forbid(monkeypatch, "accuracy", runner, mlp)
    campaign = runner.run_scenario(cfgmod.validate_config(_steg_raw()))
    swept = _steg_sweep(_steg_raw("PartialCheat"))
    assert [_stable_json(r) for r in [campaign, *swept]] == cold_steg[1]


@pytest.mark.parametrize("path, value", [
    ("supplier.mac_key_hex", "ab" * 32),
    ("supplier.latency", {"base_ms": 9.0, "jitter_ms": 1.5, "seed": 5}),
    ("provider.latency", {"base_ms": 2.0, "jitter_ms": 0.0, "seed": 77}),
    ("provider.kind", "HonestPassthrough"),
    ("provider.cheat_rate", 0.3),
])
def test_calibration_entry_ignores_transport_and_provider_fields(
        cold_steg, tmp_path, monkeypatch, path, value):
    root = _warm_copy(cold_steg, tmp_path, monkeypatch)
    stored = sorted(root.glob("*.bin"))
    base = runner.build_fixtures(cfgmod.validate_config(_steg_raw()))
    raw = _steg_raw("PartialCheat" if path == "provider.cheat_rate" else
                    "SubstituteModel")
    section, field = path.split(".")
    raw[section][field] = value
    _forbid(monkeypatch, "measure_roundtrip", runner, verifiers)
    fx = runner.build_fixtures(cfgmod.validate_config(raw))
    assert (fx.suite.p_detect, fx.suite.p_clean) == (base.suite.p_detect,
                                                     base.suite.p_clean)
    assert sorted(root.glob("*.bin")) == stored  # a hit stores nothing


@pytest.mark.parametrize("field, value", [
    ("calibration_seed", 701),
    ("calibration_count", 149),
    ("beta", 0.5),
])
def test_calibration_entry_misses_on_a_calibration_input(
        cold_steg, tmp_path, monkeypatch, field, value):
    root = _warm_copy(cold_steg, tmp_path, monkeypatch)
    raw = _steg_raw()
    raw["steg"][field] = value
    calls = _counted(monkeypatch, "measure_roundtrip", runner, verifiers)
    cfg = cfgmod.validate_config(raw)
    runner.build_fixtures(cfg)
    assert len(calls) == 1
    assert len(_payload_entries(root, _CALIB_LEN)) == 2
    runner.build_fixtures(cfg)
    assert len(calls) == 1  # the new entry is a hit from then on


@pytest.mark.parametrize("length, damage", [
    (_CALIB_LEN, "flip"), (_CALIB_LEN, "nan"), (_CALIB_LEN, "short"),
    (_GATE_LEN, "flip"), (_GATE_LEN, "nan"), (_GATE_LEN, "short"),
])
def test_corrupt_calibration_or_gate_entry_is_recomputed(
        cold_steg, tmp_path, monkeypatch, length, damage):
    root = _warm_copy(cold_steg, tmp_path, monkeypatch)
    [path] = _payload_entries(root, length)
    good = path.read_bytes()
    if damage == "flip":  # fails its checksum
        bad = good[:-1] + bytes([good[-1] ^ 0x01])
    else:  # checksummed, but no tuple of finite floats of the right length
        payload = (struct.pack("<d", float("nan")) * (length // 8)
                   if damage == "nan" else good[32:-1])
        bad = hashlib.sha256(payload).digest() + payload
    path.write_bytes(bad)
    measured = (_counted(monkeypatch, "measure_roundtrip", runner, verifiers)
                if length == _CALIB_LEN else
                _counted(monkeypatch, "accuracy", runner, mlp))
    campaign = runner.run_scenario(cfgmod.validate_config(_steg_raw()))
    assert len(measured) == 1
    assert path.read_bytes() == good  # the rebuilt entry replaced it
    assert _stable_json(campaign) == cold_steg[1][0]


def test_stored_gate_accuracy_below_the_margin_still_exits_3(tmp_path, monkeypatch,
                                                             capsys):
    monkeypatch.setenv("VERIML_CACHE_DIR", str(tmp_path / "cache"))
    raw = cfgmod.builtin_config(cfgmod.PROBABILISTIC_BENCH, trials=1)
    config = tmp_path / "prob.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["run", "--config", str(config),
                     "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    [gate] = _payload_entries(tmp_path / "cache", _GATE_LEN)
    cache._cache_store(bytes.fromhex(gate.stem), struct.pack("<d", 0.4))
    _forbid(monkeypatch, "accuracy", runner, mlp)
    assert cli.main(["run", "--config", str(config)]) == cli.EXIT_FIXTURE
    assert "supplier training accuracy 0.400 does not beat chance" in \
        capsys.readouterr().err

import dataclasses

import numpy as np
import pytest

from veriml import cache, mlp, stats
from veriml.entities import (HONEST_PASSTHROUGH, SUBSTITUTE_MODEL, Provider,
                             provider_classify, supplier_classify)
from veriml.errors import ParameterError, ShapeError
from veriml.rng import uniform_array
from veriml.verifiers import (INCONCLUSIVE, LIKELY_FRAUDULENT, LIKELY_HONEST,
                              SPRT_ACCEPT_CHEAT, SPRT_ACCEPT_HONEST,
                              SPRT_CONTINUE, ProbePlan, Verdict, binomial_tail,
                              deterministic_benchmark, metaresult_verify,
                              probabilistic_benchmark, sprt_step, steg_probe)


def _honest(fx):
    return Provider(kind=HONEST_PASSTHROUGH, backend=fx.supplier)


def _queries(seed, n, dim):
    flat, _ = uniform_array(seed, n * dim)
    return flat.reshape(n, dim)


# -- verdict plumbing --------------------------------------------------------------


def test_verdict_validation_and_dict():
    v = Verdict("m", 3, 1.0, 0.25, 0.75, LIKELY_HONEST, "d")
    assert v.to_dict()["p_value"] == 0.25
    with pytest.raises(ParameterError):
        Verdict("m", 3, 1.0, 1.25, 0.0, LIKELY_HONEST, "d")
    with pytest.raises(ParameterError):
        Verdict("m", 3, 1.0, 0.25, -0.1, LIKELY_HONEST, "d")


def test_probe_plan_validation():
    plan = ProbePlan(k=50, frac_steg=0.5, seed=1, alpha=0.01)
    assert plan.n_steg == 25
    with pytest.raises(ParameterError):
        ProbePlan(k=0, frac_steg=0.5, seed=1)
    with pytest.raises(ParameterError):
        ProbePlan(k=50, frac_steg=0.0, seed=1)
    with pytest.raises(ParameterError):
        ProbePlan(k=50, frac_steg=0.5, seed=1, alpha=1.0)
    # a plan whose rounding leaves no clean probe is rejected
    with pytest.raises(ParameterError):
        ProbePlan(k=3, frac_steg=0.9, seed=1)


# -- steg probe --------------------------------------------------------------------


def test_steg_probe_honest_passes(steg_env):
    _, fx = steg_env
    plan = ProbePlan(k=50, frac_steg=0.5, seed=901, alpha=0.01)
    verdict = steg_probe(_honest(fx), fx.suite, fx.probe_covers, plan)
    assert verdict.decision == LIKELY_HONEST
    assert verdict.p_value >= plan.alpha
    assert verdict.n_probes == 50
    assert verdict.cheat_probability == pytest.approx(1.0 - verdict.p_value)


def test_steg_probe_catches_substitute(steg_env):
    _, fx = steg_env
    plan = ProbePlan(k=50, frac_steg=0.5, seed=902, alpha=0.01)
    verdict = steg_probe(fx.fresh_provider(), fx.suite, fx.probe_covers, plan)
    assert verdict.decision == LIKELY_FRAUDULENT
    assert verdict.p_value < plan.alpha
    assert verdict.statistic <= 2  # a blind substitute almost never hits


def test_steg_probe_flag_everything_is_inconclusive(steg_env):
    """A provider that answers 'message class' to every query would ace the
    container count; the clean-probe guard must refuse to call it honest."""
    _, fx = steg_env
    mc = fx.suite.reveal.message_class
    dim = fx.data.recipe.dim
    shill = mlp.init_mlp((dim, mc + 1), weight_seed=5)
    shill.biases[-1][mc] = 50.0
    provider = Provider(kind=SUBSTITUTE_MODEL, backend=fx.supplier,
                        cheap_model=shill)
    plan = ProbePlan(k=50, frac_steg=0.5, seed=903, alpha=0.01)
    verdict = steg_probe(provider, fx.suite, fx.probe_covers, plan)
    assert verdict.decision == INCONCLUSIVE
    assert verdict.statistic == plan.n_steg  # every container "detected"
    assert "guard" in verdict.detail


def test_steg_probe_needs_enough_covers(steg_env):
    _, fx = steg_env
    plan = ProbePlan(k=50, frac_steg=0.5, seed=904)
    with pytest.raises(ParameterError):
        steg_probe(_honest(fx), fx.suite, fx.probe_covers[:10], plan)


def test_steg_probe_deterministic_in_seed(steg_env):
    _, fx = steg_env
    plan = ProbePlan(k=20, frac_steg=0.5, seed=905, alpha=0.01)
    a = steg_probe(_honest(fx), fx.suite, fx.probe_covers, plan)
    b = steg_probe(_honest(fx), fx.suite, fx.probe_covers, plan)
    assert a == b


# -- deterministic benchmark -------------------------------------------------------


def test_deterministic_honest_bitwise(det_env):
    _, fx = det_env
    queries = _queries(31, 20, fx.data.recipe.dim)
    verdict = deterministic_benchmark(_honest(fx), fx.publication,
                                      fx.data.recipe, queries, rng=7)
    assert verdict.decision == LIKELY_HONEST
    assert verdict.statistic == 0.0
    assert verdict.p_value == 1.0
    assert verdict.n_probes == 20
    # the reference is the supplier's own cache entry
    pub, recipe = fx.publication, fx.data.recipe
    key = cache._model_cache_key(pub.architecture, pub.train_config, recipe,
                                 recipe.n_per_class, 1, 0.0)
    assert cache._cache_fetch(key) == mlp.save_model(fx.supplier.model)


def test_deterministic_reference_entry_with_flipped_bits_is_rebuilt(
        det_env, tmp_path, monkeypatch):
    _, fx = det_env
    monkeypatch.setenv("VERIML_CACHE_DIR", str(tmp_path))
    queries = _queries(33, 20, fx.data.recipe.dim)

    def verdict():
        return deterministic_benchmark(_honest(fx), fx.publication,
                                       fx.data.recipe, queries, rng=7)

    first = verdict()
    [path] = tmp_path.glob("*.bin")  # the reference retrain alone filled it
    good = path.read_bytes()
    blob = mlp.save_model(fx.supplier.model)
    assert good.endswith(blob)
    entry = bytearray(good)
    base = len(entry) - len(blob)
    for w in fx.supplier.model.weights:
        at = base + blob.index(w.tobytes())
        for i in range(w.size):
            entry[at + 8 * i + 7] ^= 0x40  # top exponent bit of each weight
    path.write_bytes(bytes(entry))

    assert verdict() == first
    assert first.decision == LIKELY_HONEST
    assert path.read_bytes() == good  # the rebuilt entry replaced it


def test_deterministic_convicts_substitute_on_first_divergence(det_env):
    _, fx = det_env
    queries = _queries(32, 20, fx.data.recipe.dim)
    verdict = deterministic_benchmark(fx.fresh_provider(), fx.publication,
                                      fx.data.recipe, queries, rng=7)
    assert verdict.decision == LIKELY_FRAUDULENT
    assert verdict.p_value == 0.0
    assert 1 <= verdict.n_probes <= 20


def test_deterministic_empty_queries_inconclusive(det_env):
    _, fx = det_env
    verdict = deterministic_benchmark(_honest(fx), fx.publication,
                                      fx.data.recipe, [])
    assert verdict.decision == INCONCLUSIVE
    assert verdict.n_probes == 0


def test_deterministic_rejects_width_mismatch(det_env):
    _, fx = det_env
    dim = fx.data.recipe.dim
    narrow = mlp.init_mlp((dim, 2), weight_seed=3)
    provider = Provider(kind=SUBSTITUTE_MODEL, backend=fx.supplier,
                        cheap_model=narrow)
    with pytest.raises(ShapeError):
        deterministic_benchmark(provider, fx.publication, fx.data.recipe,
                                _queries(33, 5, dim))


# -- probabilistic benchmark -------------------------------------------------------


def test_probabilistic_honest_is_a_coin_toss(prob_env):
    _, fx = prob_env
    verdict = probabilistic_benchmark(_honest(fx), fx.supplier, fx.data.held,
                                      k=100, alpha=0.05, rng=41)
    # identical answers on both sides: zero gap, z = 0, p = 0.5
    assert verdict.statistic == 0.0
    assert verdict.p_value == 0.5
    assert verdict.decision == LIKELY_HONEST


def test_probabilistic_catches_weak_substitute(prob_env):
    _, fx = prob_env
    verdict = probabilistic_benchmark(fx.fresh_provider(), fx.supplier,
                                      fx.data.held, k=200, alpha=0.05, rng=42)
    assert verdict.decision == LIKELY_FRAUDULENT
    assert verdict.statistic > 0.0
    assert verdict.p_value < 0.05


def test_probabilistic_validation(prob_env):
    _, fx = prob_env
    held = fx.data.held
    with pytest.raises(ParameterError):
        probabilistic_benchmark(_honest(fx), fx.supplier, held, 0, 0.05, 1)
    with pytest.raises(ParameterError):
        probabilistic_benchmark(_honest(fx), fx.supplier, held,
                                len(held) + 1, 0.05, 1)
    with pytest.raises(ParameterError):
        probabilistic_benchmark(_honest(fx), fx.supplier, held, 10, 0.0, 1)


# -- metaresult verification -------------------------------------------------------


def _signed_pairs(fx, n, seed):
    state = seed
    pairs = []
    for i in range(n):
        x, state = uniform_array(state, fx.data.recipe.dim)
        resp, state = supplier_classify(fx.supplier, x, state)
        pairs.append((x, resp))
    return pairs


def test_metaresult_accepts_valid_chain(meta_env):
    _, fx = meta_env
    pairs = _signed_pairs(fx, 30, 51)
    verdict = metaresult_verify(pairs, fx.supplier.mac_key)
    assert verdict.decision == LIKELY_HONEST
    assert verdict.n_probes == 30


def test_metaresult_convicts_tampered_probs(meta_env):
    _, fx = meta_env
    pairs = _signed_pairs(fx, 10, 52)
    x, resp = pairs[4]
    bent = resp.probs.copy()
    bent[0] += 1e-12
    pairs[4] = (x, dataclasses.replace(resp, probs=bent))
    verdict = metaresult_verify(pairs, fx.supplier.mac_key)
    assert verdict.decision == LIKELY_FRAUDULENT
    assert "4" in verdict.detail


def test_metaresult_convicts_missing_certificate(meta_env, det_env):
    _, fx = meta_env
    _, bare_fx = det_env  # that supplier holds no MAC key
    pairs = _signed_pairs(bare_fx, 3, 53)
    assert all(r.certificate is None for _, r in pairs)
    verdict = metaresult_verify(pairs, fx.supplier.mac_key)
    assert verdict.decision == LIKELY_FRAUDULENT


def test_metaresult_convicts_forged_substitute(meta_env):
    _, fx = meta_env
    provider = fx.fresh_provider()
    state = 54
    pairs = []
    for _ in range(5):
        x, state = uniform_array(state, fx.data.recipe.dim)
        resp, state = provider_classify(provider, x, state)
        pairs.append((x, resp))
    verdict = metaresult_verify(pairs, fx.supplier.mac_key)
    assert verdict.decision == LIKELY_FRAUDULENT
    assert verdict.detail.startswith("certificate 0")


def test_metaresult_empty_is_inconclusive(meta_env):
    _, fx = meta_env
    assert metaresult_verify([], fx.supplier.mac_key).decision == INCONCLUSIVE


# -- binomial tail + sequential wrapper --------------------------------------------


def test_binomial_tail_sides_match_stats():
    assert binomial_tail(3, 10, 0.4, "lower") == stats.binomial_tail_leq(3, 10, 0.4)
    assert binomial_tail(3, 10, 0.4, "upper") == stats.binomial_tail_geq(3, 10, 0.4)
    assert binomial_tail(0, 0, 0.4, "lower") == 1.0


def test_binomial_tail_validation():
    with pytest.raises(ParameterError):
        binomial_tail(11, 10, 0.4, "lower")
    with pytest.raises(ParameterError):
        binomial_tail(3, 10, 0.0, "lower")
    with pytest.raises(ParameterError):
        binomial_tail(3, 10, 0.4, "middle")


def test_sprt_all_detections_accepts_honest():
    state, decision = None, SPRT_CONTINUE
    steps = 0
    while decision == SPRT_CONTINUE:
        state, decision = sprt_step(state, True, 0.9, 0.2, 0.05, 0.05)
        steps += 1
        assert steps < 100
    assert decision == SPRT_ACCEPT_HONEST
    assert steps == 2  # log(0.2/0.9) per hit against threshold log(1/19)


def test_sprt_all_misses_accepts_cheat():
    state, decision = None, SPRT_CONTINUE
    steps = 0
    while decision == SPRT_CONTINUE:
        state, decision = sprt_step(state, False, 0.9, 0.2, 0.05, 0.05)
        steps += 1
        assert steps < 100
    assert decision == SPRT_ACCEPT_CHEAT
    assert steps == 2


def test_sprt_rejects_degenerate_rates():
    with pytest.raises(ParameterError):
        sprt_step(None, True, 0.2, 0.9, 0.05, 0.05)
    with pytest.raises(ParameterError):
        sprt_step(None, True, 0.9, 0.9, 0.05, 0.05)


def test_sprt_refuses_stepping_after_decision():
    state, decision = sprt_step(None, False, 0.9, 0.2, 0.05, 0.05)
    state, decision = sprt_step(state, False, 0.9, 0.2, 0.05, 0.05)
    assert decision == SPRT_ACCEPT_CHEAT
    with pytest.raises(ParameterError):
        sprt_step(state, False, 0.9, 0.2, 0.05, 0.05)

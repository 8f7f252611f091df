import dataclasses

import numpy as np
import pytest

from veriml import cache, canon, entities, mlp, runner, stats, steg, verifiers
from veriml.entities import (CACHED_REPLAY, HONEST_PASSTHROUGH, PROVIDER_KINDS,
                             SUBSTITUTE_MODEL, LatencyModel, Provider,
                             provider_classify, supplier_classify)
from veriml.errors import (FixtureError, GenerationFailureError,
                           ParameterError, ProbeSetupError, ShapeError)
from veriml.rng import derive_seed, sample_indices, uniform_array
from veriml.steg import RevealClassifier
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
    verdict = steg_probe(fx.provider, fx.suite, fx.probe_covers, plan)
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


# -- the container path against its plain definitions --------------------------
#
# draw_containers is checked against a round-by-round loop, draw_message_instance
# against the one-at-a-time loop, and steg_probe and measure_roundtrip against
# their definitions: containers drawn from derive_seed(seed, 1), then one
# provider_classify per query on the seed's stream (steg_probe) or each row
# labeled as supplier_classify labels it (measure_roundtrip).


@pytest.fixture()
def reject_third(monkeypatch):
    """Rejects about one container in three (those whose secret's first
    component is below 1/3) on every generation path, so draws resample."""
    real_batch = steg.generate_message_batch

    def every_third_rejected(steg_model, reveal, cheap, X, S):
        Z, flagged, kept = real_batch(steg_model, reveal, cheap, X, S)
        return Z, flagged & (np.asarray(S)[:, 0] >= 1 / 3), kept

    monkeypatch.setattr(steg, "generate_message_batch", every_third_rejected)


@pytest.fixture()
def sent_log(monkeypatch):
    """The bytes of every query `ask` answers and of its answers: the rows of
    each call, paired with the probability column the call returns."""
    log = []
    real_ask = entities.ask

    def ask(X, provider, rng, owners=None, replays=None):
        answers, rng = real_ask(X, provider, rng, owners, replays)
        log.extend((x.tobytes(), canon.vec(probs)) for x, probs in zip(
            np.asarray(X, dtype=np.float64), answers.probs))
        return answers, rng

    for module in (entities, verifiers):
        monkeypatch.setattr(module, "ask", ask)
    return log


@pytest.fixture()
def labeled_log(monkeypatch):
    """Every forward_batch the verifiers make: (model, rows' bytes, each
    row's argmax)."""
    log = []
    real_forward = verifiers.forward_batch

    def forward_batch(model, X):
        out = real_forward(model, X)
        log.append((model, np.asarray(X, dtype=np.float64).tobytes(),
                    out.argmax(axis=1).tolist()))
        return out

    monkeypatch.setattr(verifiers, "forward_batch", forward_batch)
    return log


def _jumpy(checker):
    # so sensitive that some containers change its argmax
    net = mlp.init_mlp(checker.layer_dims, weight_seed=7)
    for w in net.weights:
        w *= 40.0
    return net


def _rounds_reference(steg_model, reveal, cheap, X, state,
                      resamples=steg.MAX_SECRET_RESAMPLES):
    """Round by round, one row at a time: each round draws a secret for every
    cover still without a container, in row order."""
    out = [None] * len(X)
    secrets = [None] * len(X)
    for rounds in range(1, 2 + resamples):
        last = None
        for i, x in enumerate(X):
            if out[i] is not None:
                continue
            secret, state = steg.random_secret(state, steg_model.secret_dim)
            try:
                out[i] = steg.generate_message_instance(steg_model, reveal,
                                                        cheap, x, secret)
                secrets[i] = secret.values
            except GenerationFailureError as exc:
                last = last or exc
        if last is None:
            return np.stack(out), np.stack(secrets), state, rounds
    raise GenerationFailureError(
        f"no valid container in {1 + resamples} attempts: {last}")


def _one_at_a_time(steg_model, reveal, cheap, x, state,
                   resamples=steg.MAX_SECRET_RESAMPLES):
    last = None
    for _ in range(1 + resamples):
        secret, state = steg.random_secret(state, steg_model.secret_dim)
        try:
            return (steg.generate_message_instance(steg_model, reveal, cheap, x,
                                                   secret), secret, state)
        except GenerationFailureError as exc:
            last = exc
    raise GenerationFailureError(
        f"no valid container in {1 + resamples} attempts: {last}")


def test_draw_containers_equals_rounds(steg_env, reject_third, monkeypatch):
    _, fx = steg_env
    suite = fx.suite
    X = fx.probe_covers[:40]
    for cheap in (suite.checker, _jumpy(suite.checker)):
        for state in (0, 913, 2 ** 64 - 1):
            Zw, Sw, end, rounds = _rounds_reference(suite.steg, suite.reveal,
                                                    cheap, X, state)
            assert rounds >= 3  # several rounds ran
            Z, S, got_end = steg.draw_containers(suite.steg, suite.reveal,
                                                 cheap, X, state)
            assert Z.tobytes() == Zw.tobytes()
            assert S.tobytes() == Sw.tobytes()
            assert got_end == end
    # too few rounds for the jumpy checker: both fail with the same reason,
    # that of the first row still failing (at state 0 the first fails the
    # argmax check and later ones the reveal check)
    reasons = set()
    for state, resamples in ((0, 0), (5, 1)):
        with pytest.raises(GenerationFailureError) as want:
            _rounds_reference(suite.steg, suite.reveal, _jumpy(suite.checker),
                              X, state, resamples)
        monkeypatch.setattr(steg, "MAX_SECRET_RESAMPLES", resamples)
        with pytest.raises(GenerationFailureError) as got:
            steg.draw_containers(suite.steg, suite.reveal,
                                 _jumpy(suite.checker), X, state)
        assert str(got.value) == str(want.value)
        reasons.add(str(got.value).split(": ")[1])
    assert len(reasons) == 2


def test_draw_message_instance_equals_one_at_a_time(steg_env, reject_third,
                                                    monkeypatch):
    _, fx = steg_env
    suite = fx.suite
    jumpy = _jumpy(suite.checker)
    resampled = failed = 0
    counts = (0, 2, steg.MAX_SECRET_RESAMPLES)
    for cheap in (suite.checker, jumpy):
        for i, state in enumerate((0, 1, 1234, 2 ** 63, 2 ** 64 - 1)):
            x = fx.probe_covers[i]
            for resamples in counts:
                monkeypatch.setattr(steg, "MAX_SECRET_RESAMPLES", resamples)
                try:
                    zw, sw, end = _one_at_a_time(suite.steg, suite.reveal, cheap,
                                                 x, state, resamples)
                except GenerationFailureError as exc:
                    failed += 1
                    with pytest.raises(GenerationFailureError) as got:
                        steg.draw_message_instance(suite.steg, suite.reveal,
                                                   cheap, x, state)
                    assert str(got.value) == str(exc)
                    continue
                z, s, got_end = steg.draw_message_instance(
                    suite.steg, suite.reveal, cheap, x, state)
                assert z.tobytes() == zw.tobytes()
                assert s.values.tobytes() == sw.values.tobytes()
                assert got_end == end
                resampled += end != uniform_array(state, suite.steg.secret_dim)[1]
    assert resampled > 0 and failed > 0


def _kind_provider(fx, kind, mac):
    backend = fx.supplier
    if mac:
        backend = dataclasses.replace(backend, mac_key=bytes(range(32)))
    return Provider(kind=kind, backend=backend, cheap_model=fx.cheap_model,
                    cheat_rate=0.5, noise_sigma=0.05,
                    latency=LatencyModel(1.0, 2.0, 9))


def _same_store(got, want):
    """Two replay stores hold the same keys, in order, and each entry's
    probability bytes and certificate."""
    assert list(got) == list(want)
    for key, (probs, certificate, _) in want.items():
        assert canon.vec(got[key][0]) == canon.vec(probs)
        assert got[key][1] == certificate


def _plain_steg_probe(provider, suite, covers, plan, store):
    """steg_probe by its definition, asking on the replay store `store`;
    returns the verdict and the sent log."""
    state = plan.seed
    cover_idx, state = sample_indices(state, len(covers), plan.k)
    steg_pos, state = sample_indices(state, plan.k, plan.n_steg)
    steg_set = frozenset(steg_pos)
    rows = [covers[cover_idx[i]] for i in range(plan.k)]
    containers, _, _, _ = _rounds_reference(
        suite.steg, suite.reveal, suite.checker,
        [rows[i] for i in sorted(steg_set)], derive_seed(plan.seed, 1))
    containers = iter(containers)
    sent, hits, clean_ok = [], 0, 0
    mc = suite.reveal.message_class
    for i, x in enumerate(rows):
        query = next(containers) if i in steg_set else x
        resp, state = provider_classify(provider, query, state, store)
        sent.append((query.tobytes(), canon.vec(resp.probs)))
        flagged = int(np.argmax(resp.probs)) == mc
        if i in steg_set:
            hits += int(flagged)
        else:
            clean_ok += int(not flagged)
    n_clean = plan.k - plan.n_steg
    guard_p = stats.binomial_tail_leq(clean_ok, n_clean, suite.p_clean)
    p_value = stats.binomial_tail_leq(hits, plan.n_steg, suite.p_detect)
    detail = (f"k={plan.k} steg={plan.n_steg} hits={hits} "
              f"clean_ok={clean_ok}/{n_clean} p1={suite.p_detect:.4f} "
              f"p_value={p_value:.4g}")
    if guard_p < plan.alpha:
        return verifiers._verdict(
            verifiers.METHOD_STEG_PROBE, plan.k, float(hits), p_value,
            INCONCLUSIVE, detail + f"; clean guard tripped (tail {guard_p:.3g})"), sent
    decision = LIKELY_FRAUDULENT if p_value < plan.alpha else LIKELY_HONEST
    return verifiers._verdict(verifiers.METHOD_STEG_PROBE, plan.k, float(hits),
                              p_value, decision, detail), sent


@pytest.mark.parametrize("mac", [False, True])
@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_steg_probe_equals_its_definition(steg_env, reject_third, sent_log,
                                          kind, mac):
    """With resampled containers and, for CachedReplay, pre-filled replay
    entries that some clean covers hit without a draw."""
    _, fx = steg_env
    plan = ProbePlan(k=40, frac_steg=0.5, seed=911, alpha=0.01)
    cover_idx, state = sample_indices(plan.seed, len(fx.probe_covers), plan.k)
    steg_pos, _ = sample_indices(state, plan.k, plan.n_steg)
    stored = {}
    filler = _kind_provider(fx, CACHED_REPLAY, mac)
    state = 77
    for i in [i for i in range(plan.k) if i not in steg_pos][3::4]:
        _, state = provider_classify(filler, fx.probe_covers[cover_idx[i]],
                                     state, stored)
    assert len(stored) >= 4

    ref_cache, cache = dict(stored), dict(stored)
    want, want_sent = _plain_steg_probe(_kind_provider(fx, kind, mac),
                                        fx.suite, fx.probe_covers, plan,
                                        ref_cache)
    del sent_log[:]  # the one-query reference calls are blocks of one
    got = steg_probe(_kind_provider(fx, kind, mac), fx.suite,
                     fx.probe_covers, plan, cache)
    assert got == want
    assert sent_log == want_sent
    _same_store(cache, ref_cache)


def test_speculative_steg_probe_recovers_from_replay_hits(steg_env, sent_log):
    """Pre-filled replay entries make some clean covers hit and skip their
    rng draws; the containers come from their own stream, so every one of
    them is the same bytes as with an empty cache."""
    _, fx = steg_env
    plan = ProbePlan(k=40, frac_steg=0.5, seed=912, alpha=0.01)
    cover_idx, state = sample_indices(plan.seed, len(fx.probe_covers), plan.k)
    steg_pos, _ = sample_indices(state, plan.k, plan.n_steg)
    clean = [i for i in range(plan.k) if i not in steg_pos]
    stored = {}
    provider = _kind_provider(fx, CACHED_REPLAY, False)
    state = 77
    for i in clean[3::4]:
        _, state = provider_classify(provider, fx.probe_covers[cover_idx[i]],
                                     state, stored)
    assert len(stored) >= 4
    del sent_log[:]

    steg_probe(provider, fx.suite, fx.probe_covers, plan, {})
    cold_sent = list(sent_log)
    del sent_log[:]
    ref_cache, cache = dict(stored), dict(stored)
    want, want_sent = _plain_steg_probe(provider, fx.suite, fx.probe_covers,
                                        plan, ref_cache)
    del sent_log[:]
    got = steg_probe(provider, fx.suite, fx.probe_covers, plan, cache)
    assert got == want
    assert sent_log == want_sent
    assert len(sent_log) == len(cold_sent) == plan.k
    for i in sorted(steg_pos):
        assert sent_log[i][0] == cold_sent[i][0]
    _same_store(cache, ref_cache)


@pytest.mark.parametrize("mac", [False, True])
def test_calibration_equals_its_definition(steg_env, reject_third, sent_log,
                                           labeled_log, mac):
    """Each cover, as its container and then raw, is labeled as
    supplier_classify labels it, row by row, in one forward_batch of the
    supplier's answering model (its reveal head); nothing is asked."""
    _, fx = steg_env
    supplier = fx.supplier
    if mac:
        supplier = dataclasses.replace(supplier, mac_key=bytes(range(32)))
    suite = fx.suite
    covers = fx.data.held.inputs[:60]
    containers, _, _, rounds = _rounds_reference(
        suite.steg, suite.reveal, suite.checker, covers, derive_seed(700, 1))
    assert rounds >= 3
    state, rows, want_labels = 700, [], []
    for z, x in zip(containers, covers):
        for query in (z, x):
            resp, state = supplier_classify(supplier, query, state)
            rows.append(query)
            want_labels.append(int(resp.probs.argmax()))
    mc = suite.reveal.message_class
    detect = sum(label == mc for label in want_labels[0::2])
    clean = sum(label != mc for label in want_labels[1::2])
    n = len(covers)
    del sent_log[:], labeled_log[:]
    got = verifiers.measure_roundtrip(supplier, suite.steg, suite.reveal,
                                      suite.checker, covers, 700)
    assert got == ((detect + 1) / (n + 2), (clean + 1) / (n + 2))
    assert sent_log == []
    assert len(labeled_log) == 1
    model, sent, labels = labeled_log[0]
    assert model is supplier.answering_model is suite.reveal.model
    assert sent == np.array(rows).tobytes()
    assert labels == want_labels


def _blind_reveal(reveal):
    # a reveal head pinned to class 0 never flags a container
    net = mlp.init_mlp(reveal.model.layer_dims, weight_seed=7)
    net.biases[-1][:] = -50.0
    net.biases[-1][0] = 50.0
    return RevealClassifier(net, reveal.message_class)


def test_steg_probe_without_any_valid_container_is_a_setup_error(steg_env):
    _, fx = steg_env
    suite = dataclasses.replace(fx.suite, reveal=_blind_reveal(fx.suite.reveal))
    plan = ProbePlan(k=20, frac_steg=0.5, seed=913, alpha=0.01)
    with pytest.raises(ProbeSetupError, match="container generation failed"):
        steg_probe(_honest(fx), suite, fx.probe_covers, plan)


def test_calibration_without_any_valid_container_is_a_fixture_error(
        steg_env, tmp_path, monkeypatch):
    cfg, _ = steg_env
    # an empty cache of its own: the calibration steg_env stored would be a
    # hit, and the blinded reveal head would never be asked
    monkeypatch.setenv("VERIML_CACHE_DIR", str(tmp_path))
    real_pair = runner._steg_pair

    def blind_pair(raw, fx):
        steg_model, reveal = real_pair(raw, fx)
        return steg_model, _blind_reveal(reveal)

    monkeypatch.setattr(runner, "_steg_pair", blind_pair)
    with pytest.raises(FixtureError, match="steg calibration failed"):
        runner.build_fixtures(cfg)


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
        # as in a fresh process: the reference is not yet shared in memory
        cache._shared_models.clear()
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


def test_deterministic_reference_is_loaded_once_per_process(det_env,
                                                           monkeypatch):
    _, fx = det_env
    cache._shared_models.clear()
    fetched = []
    fetch = cache._cache_fetch
    monkeypatch.setattr(cache, "_cache_fetch",
                        lambda key: fetched.append(key) or fetch(key))
    queries = _queries(34, 20, fx.data.recipe.dim)

    def verdict():
        return deterministic_benchmark(_honest(fx), fx.publication,
                                       fx.data.recipe, queries, rng=7)

    first = verdict()
    assert len(fetched) == 1
    assert verdict() == first  # the second trial reads no cache file
    assert len(fetched) == 1
    assert first.decision == LIKELY_HONEST

    pub, recipe = fx.publication, fx.data.recipe
    reference = cache.shared_model(pub.architecture, pub.train_config, recipe,
                                   recipe.n_per_class)
    assert mlp.save_model(reference) == mlp.save_model(fx.supplier.model)
    for array in reference.weights + reference.biases:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert len(fetched) == 1


def test_deterministic_convicts_substitute_on_first_divergence(det_env):
    _, fx = det_env
    queries = _queries(32, 20, fx.data.recipe.dim)
    verdict = deterministic_benchmark(fx.provider, fx.publication,
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


def test_deterministic_convicts_a_narrower_substitute_at_query_0(det_env):
    # its answers are padded to the supplier's width, and a zero class
    # probability is never the reference's softmax
    _, fx = det_env
    dim = fx.data.recipe.dim
    narrow = mlp.init_mlp((dim, 2), weight_seed=3)
    provider = Provider(kind=SUBSTITUTE_MODEL, backend=fx.supplier,
                        cheap_model=narrow)
    verdict = deterministic_benchmark(provider, fx.publication,
                                      fx.data.recipe, _queries(33, 5, dim))
    assert verdict.decision == LIKELY_FRAUDULENT
    assert verdict.n_probes == 1 and "query 0 " in verdict.detail


def test_deterministic_rejects_width_mismatch(det_env):
    # a supplier answering through a reveal head (n + 1 classes), checked
    # against the publication of its n-class model
    _, fx = det_env
    dim, n = fx.data.recipe.dim, fx.supplier.model.n_out
    reveal = RevealClassifier(mlp.init_mlp((dim, n + 1), weight_seed=4), n)
    provider = Provider(kind=HONEST_PASSTHROUGH,
                        backend=dataclasses.replace(fx.supplier, reveal=reveal))
    with pytest.raises(ShapeError, match=f"response width {n + 1}"):
        deterministic_benchmark(provider, fx.publication, fx.data.recipe,
                                _queries(33, 5, dim))


def test_deterministic_takes_one_query_matrix(det_env):
    _, fx = det_env
    dim = fx.data.recipe.dim
    for queries in (_queries(35, 1, dim)[0], _queries(35, 4, dim + 1)):
        with pytest.raises(ShapeError, match="published input width"):
            deterministic_benchmark(_honest(fx), fx.publication,
                                    fx.data.recipe, queries)


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
    verdict = probabilistic_benchmark(fx.provider, fx.supplier,
                                      fx.data.held, k=200, alpha=0.05, rng=42)
    assert verdict.decision == LIKELY_FRAUDULENT
    assert verdict.statistic > 0.0
    assert verdict.p_value < 0.05


def _rows(responses):
    return [(canon.vec(r.probs), r.certificate and r.certificate.hex(),
             r.latency_ms) for r in responses]


@pytest.mark.parametrize("mac", [False, True])
@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_probabilistic_benchmark_equals_its_definition(prob_env, monkeypatch,
                                                       labeled_log, kind, mac):
    """The k inputs are picked on the seed's stream, and the provider, and
    only the provider, is asked them in one call from the stream's state
    after the pick; row by row its answers are provider_classify's from that
    state. The supplier's labels are supplier_classify's, row by row, read
    from one forward_batch of its answering model. The verdict is the z-test
    on the two label columns."""
    _, fx = prob_env
    held, k, seed, alpha = fx.data.held, 60, 23, 0.05
    provider, ref = _kind_provider(fx, kind, mac), _kind_provider(fx, kind, mac)
    store, ref_store = {}, {}
    supplier = provider.backend
    idx, state = sample_indices(seed, len(held), k)
    want_p, want_s, end_p, end_s = [], [], state, state
    for x in held.inputs[idx]:
        resp, end_p = provider_classify(ref, x, end_p, ref_store)
        want_p.append(resp)
        resp, end_s = supplier_classify(supplier, x, end_s)
        want_s.append(int(resp.probs.argmax()))

    calls, real_ask = [], entities.ask

    def ask(X, asked, rng, owners=None, replays=None):
        answers, end = real_ask(X, asked, rng, owners, replays)
        calls.append((asked, rng, end, answers, replays))
        return answers, end

    monkeypatch.setattr(verifiers, "ask", ask)
    del labeled_log[:]
    got = probabilistic_benchmark(provider, supplier, held, k, alpha, seed,
                                  store)
    assert [(rng, end) for _, rng, end, _, _ in calls] == [(state, end_p)]
    assert calls[0][0] is provider and calls[0][4] is store
    assert _rows(calls[0][3]) == _rows(want_p)
    assert store.keys() == ref_store.keys()
    assert len(labeled_log) == 1
    model, sent, labels = labeled_log[0]
    assert model is supplier.answering_model
    assert sent == held.inputs[idx].tobytes()
    assert labels == want_s

    y = held.labels[idx].tolist()
    correct_p = sum(int(r.probs.argmax()) == c for r, c in zip(want_p, y))
    correct_s = sum(label == c for label, c in zip(want_s, y))
    z, p_value = stats.two_proportion_z(correct_s, k, correct_p, k)
    assert got == verifiers._verdict(
        verifiers.METHOD_PROBABILISTIC, k, (correct_s - correct_p) / k, p_value,
        LIKELY_FRAUDULENT if p_value < alpha else LIKELY_HONEST,
        f"k={k} pairs: supplier {correct_s}/{k}, provider {correct_p}/{k}, "
        f"z={z:.4f}")


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
    provider = fx.provider
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

import math

import numpy as np
import pytest

from veriml import adversarial as adv
from veriml import mlp
from veriml.errors import ParameterError, ProtocolError, ShapeError
from veriml.rng import uniform_array
from veriml.verifiers import LIKELY_FRAUDULENT, LIKELY_HONEST

DIM = 6


@pytest.fixture(scope="module")
def victim(easy_data):
    """Small trained classifier the attacks run against."""
    cfg = mlp.TrainConfig(0.5, 12, 16, mlp.SeedConfig(21, 22, 11))
    return mlp.train_sgd(mlp.init_mlp((DIM, 10, 3), weight_seed=21),
                         easy_data, cfg)


def _bb(tau=0.75, step=0.1, max_queries=400, fd=1e-3):
    return adv.AttackConfig(tau, step, max_queries, fd, mode=adv.BLACKBOX)


def _wb(tau=0.75, step=0.1, max_queries=200):
    return adv.AttackConfig(tau, step, max_queries, mode=adv.WHITEBOX)


def _scorer(model):
    """The model's rows, in one forward_batch per call."""
    return lambda X, _owners: mlp.forward_batch(model, X)


def _row_by_row(one):
    """A scorer asking `one(x)` once per row, in row order."""
    return lambda X, _owners: np.array([one(x) for x in X])


# -- config / parameter validation -------------------------------------------------


def test_attack_config_validation():
    for bad in (dict(tau=0.0), dict(tau=1.0), dict(step_size=0.0),
                dict(max_queries=0), dict(fd_epsilon=0.0), dict(mode="Graybox")):
        kwargs = dict(tau=0.5, step_size=0.1, max_queries=10,
                      fd_epsilon=1e-3, mode=adv.BLACKBOX)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            adv.AttackConfig(**kwargs)


@pytest.mark.parametrize("bad", [dict(step_size=math.nan), dict(step_size=math.inf),
                                 dict(fd_epsilon=math.nan), dict(fd_epsilon=math.inf)],
                         ids=["step-nan", "step-inf", "eps-nan", "eps-inf"])
def test_attack_config_rejects_non_finite_steps(bad):
    # NaN compares false with every bound, so a `<= 0` check lets it through
    kwargs = {**dict(tau=0.5, step_size=0.1, max_queries=10, fd_epsilon=1e-3,
                     mode=adv.BLACKBOX), **bad}
    with pytest.raises(ParameterError, match="finite"):
        adv.AttackConfig(**kwargs)


def test_mode_mismatch_rejected(victim):
    x0 = np.full(DIM, 0.5)
    with pytest.raises(ParameterError):
        adv.whitebox_attack(victim, x0, 0, _bb())
    with pytest.raises(ParameterError):
        adv.blackbox_attack(_scorer(victim), DIM, x0, 0, _wb())


def test_tau_below_chance_rejected(victim):
    x0 = np.full(DIM, 0.5)
    with pytest.raises(ParameterError):
        adv.whitebox_attack(victim, x0, 0, _wb(tau=1.0 / 3))
    with pytest.raises(ParameterError):
        adv.blackbox_attack(_scorer(victim), DIM, x0, 0, _bb(tau=0.2))


def test_target_and_shape_validation(victim):
    with pytest.raises(ParameterError):
        adv.whitebox_attack(victim, np.full(DIM, 0.5), 3, _wb())
    with pytest.raises(ShapeError):
        adv.whitebox_attack(victim, np.full(DIM + 1, 0.5), 0, _wb())
    with pytest.raises(ShapeError):
        adv.blackbox_attack(_scorer(victim), DIM, np.full(DIM - 1, 0.5), 0,
                            _bb())


# -- whitebox ----------------------------------------------------------------------


def test_whitebox_succeeds_within_budget(victim):
    x0, _ = uniform_array(77, DIM)
    trace = adv.whitebox_attack(victim, x0, 2, _wb(tau=0.9, max_queries=200))
    assert trace.success
    assert trace.final_prob >= 0.9
    assert trace.queries_used <= 200
    assert np.array_equal(trace.start, x0)
    assert np.all((trace.final >= 0.0) & (trace.final <= 1.0))


def test_whitebox_immediate_success_costs_one_query():
    model = mlp.init_mlp((4, 3), weight_seed=9)
    model.biases[-1][1] = 10.0  # class 1 dominates everywhere
    trace = adv.whitebox_attack(model, np.full(4, 0.5), 1, _wb(tau=0.9))
    assert trace.success
    assert trace.queries_used == 1
    assert np.array_equal(trace.final, trace.start)


def test_whitebox_failure_exhausts_exact_budget():
    model = mlp.init_mlp((4, 3), weight_seed=9)
    model.biases[-1][1] = 10.0  # target class 0 is hopeless
    trace = adv.whitebox_attack(model, np.full(4, 0.5), 0,
                                _wb(tau=0.99, step=1e-9, max_queries=17))
    assert not trace.success
    assert trace.queries_used == 17


# -- blackbox ----------------------------------------------------------------------


def test_blackbox_external_count_matches_reported(victim):
    calls = [0]

    def scorer(X, owners):
        calls[0] += len(X)
        return mlp.forward_batch(victim, X)

    for seed, target in [(101, 0), (102, 1), (103, 2), (104, 0)]:
        calls[0] = 0
        x0, _ = uniform_array(seed, DIM)
        trace = adv.blackbox_attack(scorer, DIM, x0, target, _bb(max_queries=300))
        assert calls[0] == trace.queries_used
        assert (trace.queries_used - 1) % (2 * DIM + 1) == 0


def test_blackbox_step_only_begun_when_it_fits(victim):
    model = mlp.init_mlp((DIM, 3), weight_seed=9)
    model.biases[-1][1] = 10.0  # target 0 never reaches tau
    scorer = _scorer(model)
    step_cost = 2 * DIM + 1
    x0 = np.full(DIM, 0.5)
    # budget admits exactly one step
    trace = adv.blackbox_attack(scorer, DIM, x0, 0,
                                _bb(tau=0.99, step=1e-9, max_queries=1 + step_cost))
    assert trace.queries_used == 1 + step_cost
    # one query short of a step: only the initial evaluation happens
    trace = adv.blackbox_attack(scorer, DIM, x0, 0,
                                _bb(tau=0.99, step=1e-9, max_queries=step_cost))
    assert trace.queries_used == 1
    assert not trace.success


def test_blackbox_reaches_target_on_trained_model(victim):
    x0, _ = uniform_array(105, DIM)
    trace = adv.blackbox_attack(_scorer(victim), DIM, x0, 1,
                                _bb(tau=0.9, max_queries=600))
    assert trace.success
    assert trace.final_prob >= 0.9


def test_blackbox_rejects_malformed_scorers():
    x0 = np.full(3, 0.5)
    cases = [
        lambda x: np.array([[0.5, 0.5]]),          # wrong rank
        lambda x: np.array([1.0]),                 # single class
        lambda x: np.array([0.7, 0.6]),            # sum != 1
        lambda x: np.array([-0.1, 1.1]),           # negative entry
        lambda x: np.array([math.nan, 1.0]),       # non-finite
    ]
    for scorer in cases:
        with pytest.raises(ProtocolError):
            adv.blackbox_attack(_row_by_row(scorer), 3, x0, 0, _bb(tau=0.6))


def _reference_blackbox(query, dim, x0, target, cfg):
    """The black-box attack by its definition, one probe at a time."""
    x = np.asarray(x0, dtype=np.float64).copy()
    prob = float(query(x)[target])
    queries = 1
    while prob < cfg.tau and queries + 2 * dim + 1 <= cfg.max_queries:
        g = np.empty(dim)
        for j in range(dim):
            up, dn = x.copy(), x.copy()
            up[j] = min(1.0, x[j] + cfg.fd_epsilon)
            dn[j] = max(0.0, x[j] - cfg.fd_epsilon)
            g[j] = (float(query(up)[target]) - float(query(dn)[target])) \
                / (2.0 * cfg.fd_epsilon)
        x = np.clip(x + cfg.step_size * np.sign(g), 0.0, 1.0)
        prob = float(query(x)[target])
        queries += 2 * dim + 1
    return x, queries, prob


def test_row_scorer_attack_equals_one_row_attack(victim):
    """One scorer call per step for the 2*dim probes and one for the moved
    point, with the trace to the bit of the attack asking one-row forwards
    row by row, and both the trace of the attack's definition."""
    calls, rows = [0], [0]

    def batch(X, owners):
        calls[0] += 1
        rows[0] += len(X)
        return mlp.forward_batch(victim, X)

    steps_taken, outcomes = 0, set()
    for seed, target in [(101, 0), (102, 1), (103, 2), (104, 0), (105, 1)]:
        calls[0] = rows[0] = 0
        x0, _ = uniform_array(seed, DIM)
        cfg = _bb(tau=0.95, step=0.01, max_queries=150)
        want = adv.blackbox_attack(
            _row_by_row(lambda x: mlp.forward(victim, x)), DIM, x0, target, cfg)
        got = adv.blackbox_attack(batch, DIM, x0, target, cfg)
        x, queries, prob = _reference_blackbox(lambda x: mlp.forward(victim, x),
                                               DIM, x0, target, cfg)
        assert (want.final.tobytes(), want.queries_used, want.final_prob) \
            == (x.tobytes(), queries, prob)
        assert got.start.tobytes() == want.start.tobytes()
        assert got.final.tobytes() == want.final.tobytes()
        assert (got.target_class, got.queries_used, got.final_prob, got.success) \
            == (want.target_class, want.queries_used, want.final_prob, want.success)
        n_steps = (got.queries_used - 1) // (2 * DIM + 1)
        assert calls[0] == 1 + 2 * n_steps
        assert rows[0] == got.queries_used
        steps_taken += n_steps
        outcomes.add(got.success)
    assert steps_taken >= 20 and outcomes == {True, False}


def test_row_scorer_sees_the_one_row_points_in_order(victim):
    seen_rows, seen_one = [], []

    def batch(X, owners):
        seen_rows.extend(x.tobytes() for x in X)
        return mlp.forward_batch(victim, X)

    def one(x):
        seen_one.append(np.asarray(x).tobytes())
        return mlp.forward(victim, x)

    x0 = np.array([0.0, 1.0, 0.9995, 0.5, 0.0005, 1.0])  # probes clamp
    cfg = _bb(tau=0.95, max_queries=1 + 3 * (2 * DIM + 1))
    adv.blackbox_attack(batch, DIM, x0, 2, cfg)
    assert len(seen_rows) == 1 + 3 * (2 * DIM + 1)
    adv.blackbox_attack(_row_by_row(one), DIM, x0, 2, cfg)
    assert seen_one == seen_rows
    seen_one.clear()
    _reference_blackbox(one, DIM, x0, 2, cfg)
    assert seen_one == seen_rows


@pytest.mark.parametrize("fn", [
    lambda X, _: np.full(len(X), 0.5),                       # wrong rank
    lambda X, _: np.full((len(X) + 1, 2), 0.5),              # one row too many
    lambda X, _: np.full((max(len(X) - 1, 0), 2), 0.5),      # one row short
    lambda X, _: np.ones((len(X), 1)),                       # single class
    lambda X, _: np.tile([0.7, 0.6], (len(X), 1)),           # sum != 1
    lambda X, _: np.tile([-0.1, 1.1], (len(X), 1)),          # negative entry
    lambda X, _: np.tile([math.nan, 1.0], (len(X), 1)),      # non-finite
], ids=["rank", "extra-row", "short", "one-class", "sum", "negative", "nan"])
def test_blackbox_rejects_malformed_row_scorers(fn):
    with pytest.raises(ProtocolError):
        adv.blackbox_attack(fn, 3, np.full(3, 0.5), 0, _bb(tau=0.6))


def test_blackbox_rejects_a_bad_row_in_a_probe_batch(victim):
    """The start point is fine; one probe row of the first step is not."""
    def fn(X, owners):
        probs = mlp.forward_batch(victim, X)
        if len(X) > 1:
            probs[len(X) // 2] *= 1.5
        return probs

    with pytest.raises(ProtocolError, match="do not sum to 1"):
        adv.blackbox_attack(fn, DIM, np.full(DIM, 0.5), 0, _bb(tau=0.99))


# (seed of the start, target): an immediate success, successes after 3 to 9
# steps, and three attacks that run out of a 150-query budget after 11 steps
_LOCKSTEP = [(101, 0), (102, 1), (105, 0), (103, 0), (109, 2), (101, 1),
             (107, 0), (102, 2)]


def _lockstep_cfg():
    return _bb(tau=0.95, step=0.01, max_queries=150)


def test_lockstep_attacks_equal_one_at_a_time(victim):
    """Every trace equals its attack run alone, bit for bit, with a scorer of
    one forward_batch and with one asking row by row; each step makes one
    probe call of live*2*dim
    rows and one moved-point call of live rows, attack-major, and every row
    carries its attack's index and the point that attack asks alone."""
    cfg = _lockstep_cfg()
    starts = [uniform_array(seed, DIM)[0] for seed, _ in _LOCKSTEP]
    targets = [t for _, t in _LOCKSTEP]
    alone, alone_rows = [], []
    for x0, target in zip(starts, targets):
        rows = []

        def one_attack(X, owners, _rows=rows):
            assert owners.tolist() == [0] * len(X)
            _rows.extend(x.tobytes() for x in X)
            return mlp.forward_batch(victim, X)

        alone.append(adv.blackbox_attack(one_attack, DIM, x0, target, cfg))
        alone_rows.append(rows)
    steps = [(t.queries_used - 1) // (2 * DIM + 1) for t in alone]
    assert steps == [0, 6, 3, 11, 9, 11, 7, 11]
    assert [t.success for t in alone] == [True, True, True, False, True,
                                          False, True, False]

    calls = []

    def lockstep(X, owners):
        calls.append((X.copy(), owners.copy()))
        return mlp.forward_batch(victim, X)

    def plain(x):
        calls.append(None)
        return mlp.forward(victim, x)

    for scorer in (lockstep, _row_by_row(plain)):
        got = adv.blackbox_attacks(scorer, DIM, starts, targets, cfg)
        assert len(got) == len(alone)
        for g, w in zip(got, alone):
            assert g.start.tobytes() == w.start.tobytes()
            assert g.final.tobytes() == w.final.tobytes()
            assert (g.target_class, g.queries_used, g.final_prob, g.success) \
                == (w.target_class, w.queries_used, w.final_prob, w.success)
    assert len(calls) == 1 + 2 * max(steps) + sum(t.queries_used for t in alone)

    row_calls = calls[:1 + 2 * max(steps)]
    assert row_calls[0][1].tolist() == list(range(len(starts)))
    for s in range(max(steps)):
        live = [k for k, n in enumerate(steps) if n > s]
        (probes, probe_owners), (moved, moved_owners) = row_calls[1 + 2 * s:3 + 2 * s]
        assert probe_owners.tolist() == [k for k in live for _ in range(2 * DIM)]
        assert len(probes) == len(live) * 2 * DIM
        assert moved_owners.tolist() == live and len(moved) == len(live)
    seen = [[] for _ in starts]
    for X, owners in row_calls:
        for x, k in zip(X, owners.tolist()):
            seen[k].append(x.tobytes())
    assert seen == alone_rows


def test_lockstep_rejects_a_bad_row_in_one_attacks_block(victim):
    """One probe row of one attack's block, in the second step, breaks the
    sum; the whole call is rejected."""
    starts = [uniform_array(seed, DIM)[0] for seed, _ in _LOCKSTEP]
    targets = [t for _, t in _LOCKSTEP]
    probe_calls = [0]

    def fn(X, owners):
        probs = mlp.forward_batch(victim, X)
        if len(X) > len(set(owners.tolist())):
            probe_calls[0] += 1
            if probe_calls[0] == 2:
                probs[np.flatnonzero(owners == 4)[3]] *= 1.5
        return probs

    with pytest.raises(ProtocolError, match="do not sum to 1"):
        adv.blackbox_attacks(fn, DIM, starts, targets, _lockstep_cfg())
    assert probe_calls[0] == 2


def test_lockstep_validation(victim):
    scorer = _scorer(victim)
    starts = [np.full(DIM, 0.5), np.full(DIM, 0.25)]
    assert adv.blackbox_attacks(scorer, DIM, [], [], _bb()) == []
    with pytest.raises(ParameterError):
        adv.blackbox_attacks(scorer, DIM, starts, [0], _bb())
    with pytest.raises(ParameterError):
        adv.blackbox_attacks(scorer, DIM, starts, [0, 3], _bb())
    with pytest.raises(ShapeError):
        adv.blackbox_attacks(scorer, DIM, [starts[0], np.full(DIM + 1, 0.5)],
                             [0, 1], _bb())

    def widening(X, owners):  # a third class appears after the start call
        probs = mlp.forward_batch(victim, X)
        return probs if len(X) == 2 else np.hstack([probs, np.zeros((len(X), 1))])

    with pytest.raises(ProtocolError):
        adv.blackbox_attacks(widening, DIM, starts, [0, 1], _bb(tau=0.99))


# -- scoring -----------------------------------------------------------------------


def test_sigmoid_hand_values():
    params = adv.SigmoidParams(q0=100.0, s_scale=25.0)
    assert adv.robustness_score(100.0, params) == 0.5
    want = 1.0 / (1.0 + math.exp(-1.0))
    assert abs(adv.robustness_score(125.0, params) - want) < 1e-12
    assert abs(adv.robustness_score(75.0, params) - (1.0 - want)) < 1e-12


def test_sigmoid_validation():
    params = adv.SigmoidParams(100.0, 25.0)
    with pytest.raises(ParameterError):
        adv.robustness_score(-1.0, params)
    with pytest.raises(ParameterError):
        adv.SigmoidParams(0.0, 25.0)
    with pytest.raises(ParameterError):
        adv.SigmoidParams(100.0, -1.0)


def test_sigmoid_budget_defaults():
    params = adv.SigmoidParams.for_budget(400)
    assert (params.q0, params.s_scale) == (100.0, 25.0)


def test_benchmark_deterministic_and_failure_charging(victim):
    scorer = _scorer(victim)
    cfg = _bb(tau=0.9, max_queries=400)
    params = adv.SigmoidParams.for_budget(400)
    a = adv.robustness_benchmark(scorer, DIM, [0, 1, 2], 2, cfg, params, seed=9)
    b = adv.robustness_benchmark(scorer, DIM, [0, 1, 2], 2, cfg, params, seed=9)
    assert a == b
    assert [s.class_id for s in a] == [0, 1, 2]
    assert all(s.n_trials == 2 for s in a)

    # a budget too small for a single step: every attack that does not start
    # at tau fails and is charged the full budget
    hopeless = mlp.init_mlp((DIM, 3), weight_seed=9)
    hopeless.biases[-1][1] = 10.0
    tiny = _bb(tau=0.99, step=1e-9, max_queries=5)
    scores = adv.robustness_benchmark(_scorer(hopeless), DIM, [0], 3, tiny,
                                      adv.SigmoidParams.for_budget(5), seed=10)
    assert scores[0].n_failures == 3
    assert scores[0].mean_queries == 5.0


def test_benchmarks_of_several_seeds_equal_one_benchmark_per_seed(victim,
                                                                 monkeypatch):
    """Over a stateless scorer, each seed's scores are its one-seed
    benchmark's, repeated seeds included; all attacks run in one
    blackbox_attacks call, attack k of seed t as owner t * n + k."""
    scorer, cfg = _scorer(victim), _bb(tau=0.9, max_queries=400)
    params = adv.SigmoidParams.for_budget(400)
    seeds, classes, per_class = [9, 9, 4], [0, 1, 2], 2
    want = [adv.robustness_benchmark(scorer, DIM, classes, per_class, cfg,
                                     params, seed=s) for s in seeds]
    calls, owners, real = [], [], adv.blackbox_attacks

    def recorded(query, *args):
        calls.append(args)
        return real(lambda X, o: owners.append(list(o)) or query(X, o), *args)

    monkeypatch.setattr(adv, "blackbox_attacks", recorded)
    got = adv.robustness_benchmarks(scorer, DIM, classes, per_class, cfg,
                                    params, seeds)
    assert got == want
    assert len(calls) == 1
    n = len(classes) * per_class
    assert owners[0] == list(range(len(seeds) * n))
    assert adv.robustness_benchmarks(scorer, DIM, classes, per_class, cfg,
                                     params, []) == []


def test_benchmark_validation(victim):
    scorer = _scorer(victim)
    with pytest.raises(ParameterError):
        adv.robustness_benchmark(scorer, DIM, [0], 0, _bb(),
                                 adv.SigmoidParams.for_budget(400), seed=1)
    with pytest.raises(ParameterError, match="duplicate"):
        adv.robustness_benchmark(scorer, DIM, [0, 1, 0], 1, _bb(),
                                 adv.SigmoidParams.for_budget(400), seed=1)


# -- discriminator -----------------------------------------------------------------


def test_discriminator_hand_cases():
    true = [np.array([0.1]), np.array([0.2])]
    gen = [np.array([0.8]), np.array([0.9])]
    perfect = lambda x: 1.0 if x[0] < 0.5 else 0.0
    assert abs(adv.discriminator_error(perfect, true, gen) - 0.0) < 1e-12
    coin = lambda x: 0.5
    assert abs(adv.discriminator_error(coin, true, gen) - 1.0) < 1e-12
    soft = lambda x: 0.8 if x[0] < 0.5 else 0.2
    assert abs(adv.discriminator_error(soft, true, gen) - 0.4) < 1e-12
    inverted = lambda x: 0.0 if x[0] < 0.5 else 1.0
    assert abs(adv.discriminator_error(inverted, true, gen) - 2.0) < 1e-12


def test_discriminator_rejects_empty():
    with pytest.raises(ParameterError):
        adv.discriminator_error(lambda x: 0.5, [], [np.array([1.0])])
    with pytest.raises(ParameterError):
        adv.discriminator_error(lambda x: 0.5, [np.array([1.0])], [])


@pytest.mark.parametrize("q0,s_scale", [(math.nan, 25.0), (100.0, math.inf),
                                        (math.inf, 25.0), (100.0, math.nan)])
def test_sigmoid_rejects_non_finite_parameters(q0, s_scale):
    with pytest.raises(ParameterError, match="finite"):
        adv.SigmoidParams(q0, s_scale)


# -- claim check -------------------------------------------------------------------


def _score(cid, value):
    return adv.RobustnessScore(cid, 100.0, value, 3, 0)


def test_claim_check_honest_within_tolerance():
    measured = [_score(0, 0.80), _score(1, 0.905)]
    verdict = adv.claim_check(measured, [(0, 0.80), (1, 0.91)], tolerance=0.01)
    assert verdict.decision == LIKELY_HONEST
    assert verdict.p_value == 1.0


def test_claim_check_flags_shortfall_per_class():
    measured = [_score(0, 0.80), _score(1, 0.60)]
    verdict = adv.claim_check(measured, [(0, 0.80), (1, 0.75)], tolerance=0.01)
    assert verdict.decision == LIKELY_FRAUDULENT
    assert verdict.statistic == 1.0
    assert "class 1" in verdict.detail


def test_claim_check_overdelivery_is_honest():
    verdict = adv.claim_check([_score(0, 0.95)], [(0, 0.5)], tolerance=0.01)
    assert verdict.decision == LIKELY_HONEST


def test_claim_check_validation():
    with pytest.raises(ParameterError):
        adv.claim_check([_score(0, 0.8)], [(1, 0.8)], tolerance=0.01)
    with pytest.raises(ParameterError):
        adv.claim_check([_score(0, 0.8)], [(0, 0.8)], tolerance=-0.1)


@pytest.mark.parametrize("measured,claimed,tolerance", [
    (math.nan, 0.8, 0.01), (0.8, math.nan, 0.01), (math.inf, 0.8, 0.01),
    (0.8, 0.8, math.nan)], ids=["measured-nan", "claimed-nan", "measured-inf",
                                "tolerance-nan"])
def test_claim_check_rejects_non_finite_scores(measured, claimed, tolerance):
    # a NaN delta compares false with -tolerance, so it would read as honest
    with pytest.raises(ParameterError):
        adv.claim_check([_score(0, measured)], [(0, claimed)], tolerance=tolerance)


@pytest.mark.parametrize("measured", [[0.1, 0.99], [0.99, 0.1]])
def test_claim_check_rejects_duplicate_class_ids(measured):
    """A duplicate id would let list order pick the verdict."""
    with pytest.raises(ParameterError, match="duplicate"):
        adv.claim_check([_score(0, v) for v in measured], [(0, 0.99)],
                        tolerance=0.01)
    with pytest.raises(ParameterError, match="duplicate"):
        adv.claim_check([_score(0, 0.99)], [(0, v) for v in measured],
                        tolerance=0.01)

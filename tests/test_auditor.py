import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veriml import adversarial as adv
from veriml import auditor, cache, canon, mlp
from veriml.data import BlobRecipe
from veriml.errors import (AccessDeniedError, FundingError, ParameterError,
                           SpecIntegrityError, StateError)

CLIENT = auditor.identity("client-0")
ORACLE_IDS = [auditor.identity(f"oracle-{i}") for i in range(7)]


def _tiny_spec(metric=auditor.METRIC_ACCURACY, seed=3):
    """Cheapest possible spec: digest math is exact regardless of size."""
    sc = mlp.SeedConfig(1, 2, seed)
    tc = mlp.TrainConfig(0.5, 1, 4, sc)
    return auditor.make_model_spec((2, 4, 2), sc, tc,
                                   BlobRecipe(2, 5, 2, 0.1, seed), metric)


def _lazy(i, value):
    return auditor.OracleProfile(ORACLE_IDS[i], auditor.LAZY, stale_value=value)


def _funded_ledger(fee_budget=1000):
    balances = {CLIENT: fee_budget}
    balances.update({oid: 50 for oid in ORACLE_IDS})
    return auditor.Ledger(balances)


# -- identities and specs ----------------------------------------------------------


def test_identity_is_stable_and_distinct():
    assert len(CLIENT) == 32
    assert auditor.identity("client-0") == CLIENT
    assert auditor.identity("client-1") != CLIENT


def test_spec_digest_round_trip():
    spec = _tiny_spec()
    auditor.check_spec_digest(spec)  # no raise
    assert len(spec.spec_digest) == 32


def test_spec_digest_detects_any_field_tamper():
    spec = _tiny_spec()
    tampered = [
        dataclasses.replace(spec, architecture=(2, 5, 2)),
        dataclasses.replace(spec, metric_class=1),
        dataclasses.replace(spec, metric=auditor.METRIC_ROBUSTNESS),
        dataclasses.replace(spec, data_recipe=BlobRecipe(2, 5, 2, 0.1, 4)),
        dataclasses.replace(spec, spec_digest=bytes(32)),
    ]
    for bad in tampered:
        with pytest.raises(SpecIntegrityError):
            auditor.check_spec_digest(bad)


def test_make_model_spec_rejects_unknown_metric():
    sc = mlp.SeedConfig(1, 2, 3)
    tc = mlp.TrainConfig(0.5, 1, 4, sc)
    with pytest.raises(ParameterError):
        auditor.make_model_spec((2, 2), sc, tc, BlobRecipe(2, 5, 2, 0.1, 3),
                                metric="f1")


def test_model_spec_rejects_disagreeing_seed_configs():
    # the oracles retrain with the train config's seeds
    tc = mlp.TrainConfig(0.5, 1, 4, mlp.SeedConfig(1, 2, 3))
    with pytest.raises(ParameterError):
        auditor.make_model_spec((2, 2), mlp.SeedConfig(9, 2, 3), tc,
                                BlobRecipe(2, 5, 2, 0.1, 3))


def test_compute_metric_is_memoized_and_in_range():
    spec = _tiny_spec(seed=77)
    first = auditor.compute_metric(spec)
    assert 0.0 <= first <= 1.0
    assert auditor._METRIC_CACHE[spec.spec_digest] == first
    assert auditor.compute_metric(spec) == first


@pytest.mark.parametrize("metric_class", [0, 1])
def test_robustness_metric_equals_one_query_benchmark(metric_class):
    """The metric's row scorer keeps the bits of the benchmark driven by the
    one-row forward, one query at a time."""
    sc = mlp.SeedConfig(1, 2, 5)
    tc = mlp.TrainConfig(0.5, 16, 4, sc)
    recipe = BlobRecipe(2, 10, 2, 0.1, 5)
    spec = auditor.make_model_spec((2, 4, 2), sc, tc, recipe,
                                   auditor.METRIC_ROBUSTNESS, metric_class)
    got = auditor.compute_metric(spec)
    model = cache.trained_model(spec.architecture, tc, recipe, recipe.n_per_class)
    want = adv.robustness_benchmark(
        lambda x: mlp.forward(model, x), 2, [metric_class], 3,
        adv.AttackConfig(tau=0.9, step_size=0.05, max_queries=400),
        adv.SigmoidParams.for_budget(400),
        int.from_bytes(spec.spec_digest[:8], "little"))
    assert canon.f64(got) == canon.f64(want[0].score)
    # the attacks take steps and all three succeed within the budget
    assert want[0].n_failures == 0 and want[0].mean_queries > 10


def test_value_bucket_floors():
    assert auditor.value_bucket(0.0) == 0
    assert auditor.value_bucket(0.8955) == 89
    assert auditor.value_bucket(0.89) == 89
    assert auditor.value_bucket(0.889999) == 88
    assert auditor.value_bucket(1.0) == 100


def test_oracle_profile_validation():
    with pytest.raises(ParameterError):
        auditor.OracleProfile(b"short")
    with pytest.raises(ParameterError):
        auditor.OracleProfile(ORACLE_IDS[0], behavior="Chaotic")
    with pytest.raises(ParameterError):
        auditor.OracleProfile(ORACLE_IDS[0], auditor.LAZY, stale_value=1.5)


def test_oracle_behaviors():
    spec = _tiny_spec(seed=78)
    rid = b"\x05" * 32
    truth = auditor.compute_metric(spec)
    honest = auditor.oracle_evaluate(
        auditor.OracleProfile(ORACLE_IDS[0]), spec, rid)
    assert honest.value == truth
    assert honest.value_bucket == auditor.value_bucket(truth)
    lazy = auditor.oracle_evaluate(_lazy(1, 0.33), spec, rid)
    assert lazy.value == 0.33
    byz = auditor.oracle_evaluate(
        auditor.OracleProfile(ORACLE_IDS[2], auditor.BYZANTINE, offset=10.0),
        spec, rid)
    assert byz.value == 1.0  # clamped
    dip = auditor.oracle_evaluate(
        auditor.OracleProfile(ORACLE_IDS[3], auditor.BYZANTINE, offset=-0.25),
        spec, rid)
    assert dip.value == pytest.approx(max(0.0, truth - 0.25))


def test_oracle_evaluate_refuses_bad_spec():
    spec = dataclasses.replace(_tiny_spec(), spec_digest=bytes(32))
    with pytest.raises(SpecIntegrityError):
        auditor.oracle_evaluate(auditor.OracleProfile(ORACLE_IDS[0]), spec,
                                b"\x05" * 32)


# -- vote tally --------------------------------------------------------------------


def _report(i, value, rid=b"\x01" * 32):
    return auditor.MetricReport(rid, ORACLE_IDS[i], value,
                                auditor.value_bucket(value))


def test_tally_strict_majority_wins():
    reports = [_report(i, 0.42) for i in range(5)]
    reports += [_report(5, 0.90), _report(6, 0.10)]
    tally = auditor.tally_votes(reports, n_registered=7)
    assert tally is not None
    assert tally.bucket == 42
    assert tally.value == pytest.approx(0.42)
    assert tally.majority_oracle_ids == tuple(sorted(ORACLE_IDS[:5]))


def test_tally_value_is_mean_of_bucket_members():
    reports = [_report(0, 0.420), _report(1, 0.425), _report(2, 0.429)]
    tally = auditor.tally_votes(reports, n_registered=3)
    assert tally.value == pytest.approx((0.420 + 0.425 + 0.429) / 3)


def test_tally_no_majority_is_none():
    reports = [_report(0, 0.10), _report(1, 0.10), _report(2, 0.10),
               _report(3, 0.50), _report(4, 0.50), _report(5, 0.50),
               _report(6, 0.90)]
    assert auditor.tally_votes(reports, n_registered=7) is None


def test_tally_exact_half_is_not_majority():
    reports = [_report(0, 0.10), _report(1, 0.10),
               _report(2, 0.50), _report(3, 0.50)]
    assert auditor.tally_votes(reports, n_registered=4) is None


def test_tally_counts_against_registered_not_reporters():
    # 3 agreeing voters out of 7 registered: a majority of reporters,
    # not of the electorate
    reports = [_report(i, 0.42) for i in range(3)]
    assert auditor.tally_votes(reports, n_registered=7) is None
    assert auditor.tally_votes(reports, n_registered=5) is not None


def test_tally_edge_and_error_cases():
    assert auditor.tally_votes([], n_registered=5) is None
    with pytest.raises(ParameterError):
        auditor.tally_votes([_report(0, 0.1)], n_registered=0)
    mixed = [_report(0, 0.1, rid=b"\x01" * 32), _report(1, 0.1, rid=b"\x02" * 32)]
    with pytest.raises(ParameterError):
        auditor.tally_votes(mixed, n_registered=3)


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=7))
def test_tally_majority_property(bucket_choices):
    reports = [_report(i, b / 10.0 + 0.005) for i, b in enumerate(bucket_choices)]
    n = len(reports)
    tally = auditor.tally_votes(reports, n_registered=n)
    counts = {}
    for b in bucket_choices:
        counts[b * 10] = counts.get(b * 10, 0) + 1
    winners = [b for b, c in counts.items() if 2 * c > n]
    if winners:
        assert tally is not None
        assert tally.bucket == winners[0]
        members = [r.value for r in reports if r.value_bucket == tally.bucket]
        assert tally.value == pytest.approx(sum(members) / len(members))
        assert list(tally.majority_oracle_ids) == sorted(tally.majority_oracle_ids)
    else:
        assert tally is None


# -- ledger ------------------------------------------------------------------------


def test_genesis_block_shape():
    ledger = _funded_ledger()
    genesis = ledger.blocks[0]
    assert genesis.height == 0
    assert genesis.prev_hash == bytes(32)
    assert genesis.tx_list == ()
    assert ledger.verify_chain()
    assert ledger.conservation_holds()
    assert ledger.total_supply == 1000 + 7 * 50


def test_ledger_rejects_bad_identities():
    with pytest.raises(ParameterError):
        auditor.Ledger({b"short": 5})
    with pytest.raises(ParameterError):
        auditor.Ledger({CLIENT: -5})


def test_append_block_rejects_foreign_payloads():
    ledger = _funded_ledger()
    with pytest.raises(ParameterError):
        ledger.append_block(["not a payload"])


def test_gatekeeper_controls_submission():
    ledger = _funded_ledger()
    spec = _tiny_spec()
    outsider = auditor.identity("outsider")
    with pytest.raises(AccessDeniedError):
        ledger.submit_request(outsider, spec, 10)
    assert not ledger.gatekeeper_check(outsider)
    admitted = auditor.Ledger({outsider: 0})
    assert admitted.gatekeeper_check(outsider)
    with pytest.raises(FundingError):
        admitted.submit_request(outsider, spec, 10)  # admitted but unfunded


def test_submit_escrows_fee():
    ledger = _funded_ledger()
    spec = _tiny_spec()
    rid = ledger.submit_request(CLIENT, spec, 10)
    assert ledger.balance_of(CLIENT) == 990
    assert ledger.escrowed_total() == 10
    assert ledger.conservation_holds()
    assert rid in ledger.escrow
    with pytest.raises(FundingError):
        ledger.submit_request(CLIENT, spec, 0)
    with pytest.raises(FundingError):
        ledger.submit_request(CLIENT, spec, 10 ** 9)


def test_settle_splits_fee_with_remainder_to_lowest_id():
    ledger = _funded_ledger()
    spec = _tiny_spec()
    rid = ledger.submit_request(CLIENT, spec, 10)
    reports = [auditor.oracle_evaluate(_lazy(i, 0.42), spec, rid) for i in range(3)]
    ledger.record_reports(reports)
    tally = auditor.tally_votes(reports, n_registered=3)
    ledger.settle_request(rid, reports, tally)
    winners = sorted(ORACLE_IDS[:3])
    # 10 // 3 = 3 each, remainder 1 to the lowest id
    assert ledger.balance_of(winners[0]) == 50 + 4
    assert ledger.balance_of(winners[1]) == 50 + 3
    assert ledger.balance_of(winners[2]) == 50 + 3
    assert ledger.balance_of(CLIENT) == 990
    assert ledger.escrowed_total() == 0
    assert ledger.conservation_holds()
    assert ledger.verify_chain()
    assert rid not in ledger.escrow


def test_settle_without_consensus_refunds_client():
    ledger = _funded_ledger()
    spec = _tiny_spec()
    rid = ledger.submit_request(CLIENT, spec, 10)
    reports = [auditor.oracle_evaluate(_lazy(i, 0.1 * (i + 1)), spec, rid)
               for i in range(5)]
    ledger.record_reports(reports)
    assert auditor.tally_votes(reports, n_registered=5) is None
    ledger.settle_request(rid, reports, None)
    assert ledger.balance_of(CLIENT) == 1000
    assert ledger.conservation_holds()
    refund = ledger.blocks[-1].tx_list[0].payload
    assert refund.kind == "Reward"
    assert refund.oracle_id == CLIENT
    assert refund.amount == 10


def test_settle_guards():
    ledger = _funded_ledger()
    spec = _tiny_spec()
    rid = ledger.submit_request(CLIENT, spec, 10)
    reports = [auditor.oracle_evaluate(_lazy(i, 0.42), spec, rid) for i in range(3)]
    tally = auditor.tally_votes(reports, n_registered=3)
    phantom = auditor.TallyResult(0.42, 42, (auditor.identity("ghost"),))
    with pytest.raises(ParameterError):
        ledger.settle_request(rid, reports, phantom)
    ledger.settle_request(rid, reports, tally)
    with pytest.raises(StateError):
        ledger.settle_request(rid, reports, tally)
    with pytest.raises(StateError):
        ledger.settle_request(b"\x09" * 32, reports, tally)


def test_chain_tamper_detection():
    ledger = _funded_ledger()
    spec = _tiny_spec()
    rid = ledger.submit_request(CLIENT, spec, 10)
    reports = [auditor.oracle_evaluate(_lazy(i, 0.42), spec, rid) for i in range(3)]
    ledger.record_reports(reports)
    assert ledger.verify_chain()

    # flip the recorded fee inside a committed transaction
    block = ledger.blocks[1]
    old_tx = block.tx_list[0]
    forged_payload = dataclasses.replace(old_tx.payload, fee=99)
    forged = dataclasses.replace(
        block, tx_list=(dataclasses.replace(old_tx, payload=forged_payload),))
    ledger.blocks[1] = forged
    assert not ledger.verify_chain()
    ledger.blocks[1] = block
    assert ledger.verify_chain()

    # break a link instead
    ledger.blocks[2] = dataclasses.replace(ledger.blocks[2], prev_hash=bytes(32))
    assert not ledger.verify_chain()


def test_conservation_through_many_rounds():
    ledger = _funded_ledger(fee_budget=10_000)
    spec = _tiny_spec()
    for r in range(25):
        fee = 7 + r
        # rounds alternate between consensus (shared stale value) and stalemate
        if r % 2 == 0:
            oracles = [_lazy(i, 0.37) for i in range(5)]
        else:
            oracles = [_lazy(i, 0.1 + 0.11 * i) for i in range(5)]
        rid, tally = auditor.run_audit_round(ledger, CLIENT, spec, fee, oracles)
        assert (tally is not None) == (r % 2 == 0)
        assert ledger.conservation_holds()
        assert ledger.verify_chain()
    # 3 blocks per round (request, reports, settlement) on top of genesis
    assert len(ledger.blocks) == 1 + 3 * 25


def test_export_jsonl_is_reproducible_and_parseable():
    def drive():
        ledger = _funded_ledger()
        spec = _tiny_spec()
        rid = ledger.submit_request(CLIENT, spec, 10)
        reports = [auditor.oracle_evaluate(_lazy(i, 0.42), spec, rid)
                   for i in range(3)]
        ledger.record_reports(reports)
        ledger.settle_request(rid, reports,
                              auditor.tally_votes(reports, n_registered=3))
        return ledger.export_jsonl()

    a, b = drive(), drive()
    assert a == b
    lines = a.strip().split("\n")
    assert len(lines) == 4  # genesis + request + reports + settlement
    kinds = []
    for line in lines:
        block = json.loads(line)
        assert set(block) == {"height", "prev_hash", "block_hash", "txs"}
        kinds += [tx["kind"] for tx in block["txs"]]
    assert kinds == ["VerificationRequest", "MetricReport", "MetricReport",
                     "MetricReport", "ConsensusResult", "Reward", "Reward",
                     "Reward"]


# -- full round with real oracles --------------------------------------------------


def test_audit_round_with_computed_metric(auditor_env):
    _, fx = auditor_env
    spec = fx.model_spec
    truth = auditor.compute_metric(spec)
    ledger = _funded_ledger()
    oracles = [auditor.OracleProfile(ORACLE_IDS[i]) for i in range(5)]
    oracles += [auditor.OracleProfile(ORACLE_IDS[5], auditor.BYZANTINE, offset=0.15),
                auditor.OracleProfile(ORACLE_IDS[6], auditor.BYZANTINE, offset=-0.15)]
    rid, tally = auditor.run_audit_round(ledger, CLIENT, spec, 100, oracles)
    assert tally is not None
    assert tally.value == truth  # mean of five identical honest votes
    assert tally.majority_oracle_ids == tuple(sorted(ORACLE_IDS[:5]))
    assert ledger.conservation_holds()
    assert ledger.verify_chain()
    assert ledger.balance_of(CLIENT) == 900

import dataclasses
import hmac
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veriml import canon, entities, mlp
from veriml.errors import ParameterError, ShapeError
from veriml.rng import (_CROSSOVER, MASK64, rng_advance, rng_bytes, rng_gauss,
                        rng_uniform, uniform_array)
from veriml.steg import RevealClassifier

KEY = bytes(range(32))


@pytest.fixture(scope="module")
def supplier_pair(steg_env):
    """(supplier with reveal head + MAC key, substitute provider template)."""
    _, fx = steg_env
    supplier = entities.Supplier(model=fx.supplier.model,
                                 reveal=fx.supplier.reveal, mac_key=KEY,
                                 latency=entities.LatencyModel(3.0, 1.0, 5))
    return supplier, fx


def _x(seed, dim=16):
    x, _ = uniform_array(seed, dim)
    return x


def _cheap_answer(p, x):
    """The cheap model's probabilities for x in a zero block of the
    supplier's answering width: what a provider's cheat route answers."""
    probs = np.zeros(p.backend.answering_model.n_out)
    probs[:p.cheap_model.n_out] = mlp.forward(p.cheap_model, x)
    return probs


# -- HMAC / certificates ----------------------------------------------------------


def test_hmac_rfc_vector_case_one():
    tag = entities.hmac_sha256(b"\x0b" * 20, b"Hi There")
    assert tag.hex() == ("b0344c61d8db38535ca8afceaf0bf12b"
                         "881dc200c9833da726e9376c2e32cff7")


def test_hmac_rfc_vector_long_key():
    # keys longer than the block size are hashed first
    tag = entities.hmac_sha256(b"\xaa" * 131,
                               b"Test Using Larger Than Block-Size Key - "
                               b"Hash Key First")
    assert tag.hex() == ("60e431591ee0b67f0d8a26aacbf5b77f"
                         "8e0bc6213728c5140546040f0ee37f54")


def test_certificate_round_trip():
    x = _x(1, 5)
    probs = np.array([0.2, 0.3, 0.5])
    cert = entities.issue_certificate(KEY, x, probs, nonce=b"\x07" * 16)
    assert entities.verify_certificate(KEY, x, probs, cert)


def test_certificate_rejects_any_field_change():
    x = _x(2, 5)
    probs = np.array([0.2, 0.3, 0.5])
    cert = entities.issue_certificate(KEY, x, probs, nonce=b"\x07" * 16)
    x2 = x.copy()
    x2[0] += 1e-12
    assert not entities.verify_certificate(KEY, x2, probs, cert)
    probs2 = probs.copy()
    probs2[1], probs2[2] = probs2[2], probs2[1]
    assert not entities.verify_certificate(KEY, x, probs2, cert)
    bad_nonce = entities.Certificate(b"\x08" * 16, cert.tag)
    assert not entities.verify_certificate(KEY, x, probs, bad_nonce)
    bad_tag = entities.Certificate(cert.nonce, bytes(32))
    assert not entities.verify_certificate(KEY, x, probs, bad_tag)
    assert not entities.verify_certificate(KEY, x, probs, None)
    assert not entities.verify_certificate(bytes(32), x, probs, cert)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=47), st.integers(min_value=0, max_value=7))
def test_certificate_single_bit_tampers_fail(byte_index, bit):
    x = np.array([0.25, 0.75])
    probs = np.array([0.5, 0.5])
    cert = entities.issue_certificate(KEY, x, probs, nonce=b"\x01" * 16)
    blob = bytearray(cert.nonce + cert.tag)
    blob[byte_index] ^= 1 << bit
    tampered = entities.Certificate(bytes(blob[:16]), bytes(blob[16:]))
    assert not entities.verify_certificate(KEY, x, probs, tampered)


def test_certificate_field_validation():
    with pytest.raises(ParameterError):
        entities.Certificate(b"\x01" * 15, bytes(32))
    with pytest.raises(ParameterError):
        entities.Certificate(b"\x01" * 16, bytes(31))


_TWO_MESSAGES = [b"Hi There", b"what do ya want for nothing?"]


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=200), st.binary(max_size=200),
       st.lists(st.binary(max_size=300), min_size=1, max_size=4))
@example(b"", b"\x01" * 64, _TWO_MESSAGES)
@example(b"\x0b" * 63, b"\x0b" * 64, _TWO_MESSAGES)
@example(b"\x0b" * 64, b"\x0b" * 65, _TWO_MESSAGES)
@example(b"\xaa" * 65, b"\xaa" * 131, _TWO_MESSAGES)
@example(b"\xaa" * 131, b"", [b"", b"\x00" * 300])
def test_hmac_sha256_equals_hmac_digest(key, other, messages):
    """Every key length around the 64-byte block, long keys hashed first,
    and two keys in turn over several messages: a key schedule that is
    reused without a copy, or shared across keys, gives other tags."""
    want = {k: [hmac.digest(k, m, "sha256") for m in messages]
            for k in (key, other)}
    schedules = {k: entities._key_schedule(k) for k in (key, other)}
    for k in (key, other, key):
        assert [entities._tag(schedules[k], m) for m in messages] == want[k]
        assert [entities.hmac_sha256(k, m) for m in messages] == want[k]


def _reference_valid(key, x, probs, cert) -> bool:
    """A certificate check by its definition, on the standard library's HMAC."""
    if cert is None:
        return False
    message = canon.vec(x) + canon.vec(probs) + cert.nonce
    return hmac.compare_digest(hmac.digest(key, message, "sha256"), cert.tag)


_FIELDS = ("x", "probs", "nonce", "tag", "missing")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.booleans(),
       st.lists(st.tuples(st.integers(min_value=0, max_value=19),
                          st.sampled_from(_FIELDS),
                          st.integers(min_value=0, max_value=47),
                          st.integers(min_value=0, max_value=7)), max_size=3),
       st.integers(min_value=0, max_value=2 ** 32))
def test_block_checker_finds_the_first_bad_row(m, ragged, tampers, seed):
    """The block checker names the same first bad row as per-row
    verify_certificate and as the standard library's HMAC, after single-bit
    tampers of x, probs, nonce or tag and dropped certificates, with every
    row one width (a matrix, and as rows) or widths that differ by row."""
    flat, state = uniform_array(seed, m * 5)
    X = flat.reshape(m, 5)
    widths = [2 + (i % 3 if ragged else 1) for i in range(m)]
    probs = []
    for w in widths:
        p, state = uniform_array(state, w)
        probs.append(p)
    certs = []
    for i in range(m):
        nonce, state = rng_bytes(state, 16)
        certs.append(entities.issue_certificate(KEY, X[i], probs[i], nonce))
    for row, where, at, bit in tampers:
        i = row % m
        if where == "missing":
            certs[i] = None
        elif where == "x":
            X[i].view(np.uint8)[at % 40] ^= 1 << bit
        elif where == "probs":
            probs[i].view(np.uint8)[at % (8 * widths[i])] ^= 1 << bit
        elif certs[i] is not None:
            blob = bytearray(certs[i].nonce + certs[i].tag)
            blob[at % 16 + 16 * (where == "tag")] ^= 1 << bit
            certs[i] = entities.Certificate(bytes(blob[:16]), bytes(blob[16:]))
    rows = [i for i in range(m)
            if not entities.verify_certificate(KEY, X[i], probs[i], certs[i])]
    assert rows == [i for i in range(m)
                    if not _reference_valid(KEY, X[i], probs[i], certs[i])]
    want = rows[0] if rows else None
    shapes = [(X, probs), (list(X), probs)]
    if not ragged:
        shapes.append((X, np.array(probs)))
    for block_x, block_probs in shapes:
        assert entities.first_invalid_certificate(KEY, block_x, block_probs,
                                                  certs) == want


def test_block_checker_rejects_columns_of_other_lengths():
    x, probs = _x(3, 5), np.array([0.5, 0.5])
    cert = entities.issue_certificate(KEY, x, probs, b"\x02" * 16)
    with pytest.raises(ShapeError):
        entities.first_invalid_certificate(KEY, [x, x], [probs], [cert, cert])


# -- latency ---------------------------------------------------------------------


def test_latency_bounds_and_determinism():
    lm = entities.LatencyModel(base_ms=5.0, jitter_ms=2.0, seed=3)
    v1, s1 = lm.sample(100)
    v2, s2 = lm.sample(100)
    assert (v1, s1) == (v2, s2)
    assert 5.0 <= v1 <= 7.0
    assert s1 != 100


def test_latency_models_decorrelate_on_shared_stream():
    a = entities.LatencyModel(0.0, 1.0, seed=1)
    b = entities.LatencyModel(0.0, 1.0, seed=2)
    va, _ = a.sample(42)
    vb, _ = b.sample(42)
    assert va != vb


def test_latency_validation():
    with pytest.raises(ParameterError):
        entities.LatencyModel(-1.0, 0.0, 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_latencies_rejected(bad):
    with pytest.raises(ParameterError, match="finite"):
        entities.LatencyModel(bad, 1.0, 0)
    with pytest.raises(ParameterError, match="finite"):
        entities.LatencyModel(1.0, bad, 0)
    with pytest.raises(ParameterError, match="finite"):
        entities.Response(np.array([0.5, 0.5]), None, bad)


# -- suppliers -------------------------------------------------------------------


def test_supplier_answers_with_model_probs(supplier_pair):
    supplier, _ = supplier_pair
    x = _x(3)
    resp, rng_out = entities.supplier_classify(supplier, x, 7)
    assert rng_out != 7
    assert resp.probs.shape[0] == supplier.reveal.model.n_out
    assert abs(resp.probs.sum() - 1.0) < 1e-9
    assert resp.certificate is not None
    assert entities.verify_certificate(KEY, x, resp.probs, resp.certificate)


def test_supplier_without_reveal_uses_base_model(steg_env):
    _, fx = steg_env
    bare = entities.Supplier(model=fx.supplier.model)
    x = _x(4)
    resp, _ = entities.supplier_classify(bare, x, 7)
    assert resp.probs.shape[0] == fx.supplier.model.n_out
    assert np.array_equal(resp.probs, mlp.forward(fx.supplier.model, x))
    assert resp.certificate is None


def test_answering_model_is_the_honest_route_model(supplier_pair, steg_env):
    # the reveal head when there is one, the plain model otherwise; it is the
    # model of every honest pass-through's route
    supplier, _ = supplier_pair
    bare = entities.Supplier(model=steg_env[1].supplier.model)
    assert supplier.answering_model is supplier.reveal.model
    assert bare.answering_model is bare.model
    for s in (supplier, bare):
        p = entities.Provider(entities.HONEST_PASSTHROUGH, s)
        assert p._honest.model is s.answering_model


def test_supplier_reveal_head_mismatch_rejected(steg_env):
    _, fx = steg_env
    wrong = mlp.init_mlp((16, 4, 5), weight_seed=1)
    with pytest.raises(ParameterError):
        entities.Supplier(model=fx.supplier.model,
                          reveal=RevealClassifier(wrong, 4))


def test_seed_publication_requires_consistent_seeds():
    sc = mlp.SeedConfig(1, 2, 3)
    tc = mlp.TrainConfig(0.1, 2, 4, sc)
    entities.SeedPublication(sc, tc, (4, 5, 2))
    with pytest.raises(ParameterError):
        entities.SeedPublication(mlp.SeedConfig(9, 2, 3), tc, (4, 5, 2))


# -- providers -------------------------------------------------------------------


def test_honest_passthrough_is_verbatim(supplier_pair):
    supplier, fx = supplier_pair
    p = entities.Provider(kind=entities.HONEST_PASSTHROUGH, backend=supplier)
    x = _x(5)
    direct, _ = entities.supplier_classify(supplier, x, 11)
    via, _ = entities.provider_classify(p, x, 11)
    assert np.array_equal(direct.probs, via.probs)
    assert direct.certificate.tag == via.certificate.tag
    assert direct.latency_ms == via.latency_ms


def test_substitute_answers_from_cheap_model(supplier_pair):
    supplier, fx = supplier_pair
    p = entities.Provider(kind=entities.SUBSTITUTE_MODEL, backend=supplier,
                          cheap_model=fx.cheap_model)
    x = _x(6)
    resp, _ = entities.provider_classify(p, x, 11)
    # padded to the reveal head's width: the message class gets 0
    assert len(resp.probs) == supplier.reveal.model.n_out > fx.cheap_model.n_out
    assert np.array_equal(resp.probs, _cheap_answer(p, x))
    assert resp.probs[supplier.reveal.message_class] == 0.0
    # forged certificate cannot verify
    assert resp.certificate is not None
    assert not entities.verify_certificate(KEY, x, resp.probs, resp.certificate)


def test_substitute_requires_cheap_model(supplier_pair):
    supplier, _ = supplier_pair
    with pytest.raises(ParameterError):
        entities.Provider(kind=entities.SUBSTITUTE_MODEL, backend=supplier)


def test_partial_cheat_rate_extremes(supplier_pair):
    supplier, fx = supplier_pair
    x = _x(7)
    honest_resp, _ = entities.supplier_classify(supplier, x, 50)
    never = entities.Provider(kind=entities.PARTIAL_CHEAT, backend=supplier,
                              cheap_model=fx.cheap_model, cheat_rate=0.0)
    resp, _ = entities.provider_classify(never, x, 50)
    assert np.array_equal(resp.probs, honest_resp.probs)
    always = entities.Provider(kind=entities.PARTIAL_CHEAT, backend=supplier,
                               cheap_model=fx.cheap_model, cheat_rate=1.0)
    resp, _ = entities.provider_classify(always, x, 50)
    assert np.array_equal(resp.probs, _cheap_answer(always, x))


def test_partial_cheat_mixes_at_half(supplier_pair):
    supplier, fx = supplier_pair
    p = entities.Provider(kind=entities.PARTIAL_CHEAT, backend=supplier,
                          cheap_model=fx.cheap_model, cheat_rate=0.5)
    rng = 123
    cheap_hits = 0
    n = 200
    for i in range(n):
        x = _x(1000 + i)
        resp, rng = entities.provider_classify(p, x, rng)
        cheap_hits += np.array_equal(resp.probs, _cheap_answer(p, x))
    assert 60 <= cheap_hits <= 140  # ~Bin(200, 0.5)


def test_provider_rejects_a_cheap_model_it_cannot_answer_with(supplier_pair):
    # every row answers in the supplier's answering width, so a substitute
    # must be a softmax classifier no wider than it
    supplier, _ = supplier_pair
    width = supplier.answering_model.n_out
    wide = mlp.init_mlp((16, width + 1), weight_seed=3)
    with pytest.raises(ParameterError, match="softmax classifier of at most"):
        entities.Provider(entities.SUBSTITUTE_MODEL, supplier, cheap_model=wide)
    linear = mlp.init_mlp((16, width - 1), weight_seed=3, output_kind=mlp.LINEAR)
    with pytest.raises(ParameterError, match="softmax classifier of at most"):
        entities.Provider(entities.PARTIAL_CHEAT, supplier, cheap_model=linear,
                          cheat_rate=0.5)


@settings(max_examples=40, deadline=None)
@given(n_out=st.integers(2, 6), extra=st.integers(0, 3), rows=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32))
def test_a_padded_block_labels_as_the_cheap_model(n_out, extra, rows, seed):
    dim = 5
    supplier = entities.Supplier(mlp.init_mlp((dim, n_out + extra), seed))
    cheap = mlp.init_mlp((dim, 4, n_out), seed + 1)
    p = entities.Provider(entities.SUBSTITUTE_MODEL, supplier, cheap_model=cheap)
    X = uniform_array(seed, rows * dim)[0].reshape(rows, dim)
    answers, _ = entities.ask(X, p, seed)
    P = mlp.forward_batch(cheap, X)
    assert answers.matrix.shape == (rows, n_out + extra)
    assert answers.matrix[:, :n_out].tobytes() == P.tobytes()
    assert not answers.matrix[:, n_out:].any()
    assert answers.labels.tolist() == P.argmax(axis=1).tolist()


def test_partial_cheat_rate_validation(supplier_pair):
    supplier, fx = supplier_pair
    with pytest.raises(ParameterError):
        entities.Provider(kind=entities.PARTIAL_CHEAT, backend=supplier,
                          cheap_model=fx.cheap_model, cheat_rate=1.5)


def test_cached_replay_returns_first_answer(supplier_pair):
    supplier, fx = supplier_pair
    p = entities.Provider(kind=entities.CACHED_REPLAY, backend=supplier)
    x, store = _x(8), {}
    first, rng = entities.provider_classify(p, x, 60, store)
    second, rng2 = entities.provider_classify(p, x, rng, store)
    _same_response(second, first)
    assert rng2 == rng  # replay consumes no randomness
    other, rng3 = entities.provider_classify(p, _x(9), rng2, store)
    assert rng3 != rng2 and len(store) == 2  # a miss, answered afresh
    assert other.certificate.nonce != first.certificate.nonce


def test_noisy_passthrough_stays_normalized(supplier_pair):
    supplier, fx = supplier_pair
    p = entities.Provider(kind=entities.NOISY_PASSTHROUGH, backend=supplier,
                          noise_sigma=0.05)
    x = _x(10)
    clean, _ = entities.supplier_classify(supplier, x, 70)
    noisy, _ = entities.provider_classify(p, x, 70)
    assert abs(noisy.probs.sum() - 1.0) < 1e-9
    assert np.all(noisy.probs >= 0)
    assert not np.array_equal(noisy.probs, clean.probs)
    # passthrough keeps the supplier's certificate even though probs moved
    assert noisy.certificate is not None
    assert not entities.verify_certificate(KEY, x, noisy.probs, noisy.certificate)


def test_noisy_requires_positive_sigma(supplier_pair):
    supplier, _ = supplier_pair
    with pytest.raises(ParameterError):
        entities.Provider(kind=entities.NOISY_PASSTHROUGH, backend=supplier)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_noisy_requires_finite_sigma(supplier_pair, sigma):
    # a NaN sigma would pass a `<= 0` check and answer NaN probabilities
    supplier, _ = supplier_pair
    with pytest.raises(ParameterError, match="finite"):
        entities.Provider(kind=entities.NOISY_PASSTHROUGH, backend=supplier,
                          noise_sigma=sigma)


def test_unknown_provider_kind_rejected(supplier_pair):
    supplier, _ = supplier_pair
    with pytest.raises(ParameterError):
        entities.Provider(kind="Sneaky", backend=supplier)


# -- block queries: one ask answers like one query at a time -------------------


def _query_rows():
    """Distinct rows with repeats, so CachedReplay replays within a block."""
    rows = [_x(2000 + i) for i in range(10)]
    return rows + [rows[2], rows[5], rows[2], _x(2010), rows[9]]


def _variant(steg_env, kind, mac, reveal):
    _, fx = steg_env
    supplier = entities.Supplier(
        model=fx.supplier.model, reveal=fx.supplier.reveal if reveal else None,
        mac_key=KEY if mac else None, latency=entities.LatencyModel(3.0, 1.0, 5))

    def provider():
        return entities.Provider(
            kind=kind, backend=supplier, cheap_model=fx.cheap_model,
            cheat_rate=0.5,
            noise_sigma=0.05 if kind == entities.NOISY_PASSTHROUGH else 0.0,
            latency=entities.LatencyModel(2.0, 4.0, 9))
    return supplier, provider


def _same_response(a, b):
    assert a.probs.tobytes() == b.probs.tobytes()
    assert a.latency_ms == b.latency_ms
    if a.certificate is None:
        assert b.certificate is None
    else:
        assert (a.certificate.nonce, a.certificate.tag) == \
            (b.certificate.nonce, b.certificate.tag)


def _answered(r):
    """What a row answers: its probability bytes, certificate and latency."""
    return r.probs.tobytes(), r.certificate, r.latency_ms


def _same_answers(seq, got):
    got = list(got)  # an Answers builds a fresh Response for every row
    assert len(seq) == len(got)
    for a, b in zip(seq, got):
        _same_response(a, b)
    # replays answer what was answered first, one call at a time or not
    assert [[j for j, o in enumerate(seq) if _answered(o) == _answered(a)]
            for a in seq] == \
        [[j for j, o in enumerate(got) if _answered(o) == _answered(b)]
         for b in got]


def _same_cache(a, b):
    """Two replay stores hold the same keys, in order, and entries."""
    assert list(a) == list(b)
    for key in a:
        _same_response(entities.Response(*a[key]), entities.Response(*b[key]))


@pytest.mark.parametrize("reveal", [False, True], ids=["plain", "reveal"])
@pytest.mark.parametrize("mac", [False, True], ids=["nomac", "mac"])
@pytest.mark.parametrize("kind", entities.PROVIDER_KINDS)
def test_query_batch_equals_provider_calls(steg_env, kind, mac, reveal):
    _, provider = _variant(steg_env, kind, mac, reveal)
    rows = _query_rows()
    one, one_store, rng = provider(), {}, 99
    seq = []
    for x in rows:
        resp, rng = entities.provider_classify(one, x, rng, one_store)
        seq.append(resp)

    # two calls: the second replays entries the first committed
    many, many_store, rng_b, got = provider(), {}, 99, []
    for part in (rows[:7], rows[7:]):
        answers, rng_b = entities.ask(np.array(part), many, rng_b,
                                      replays=many_store)
        got += answers
    assert rng_b == rng
    _same_answers(seq, got)
    _same_cache(one_store, many_store)
    if kind == entities.CACHED_REPLAY:
        assert len(many_store) == 11


# -- columnar batches: one uint64 pass equals one query at a time ---------------


def _reference_classify(p, x, rng, store=None):
    """One provider query by its plain definition: the path's draws in order
    on the stream (coin, nonce or forged tag, latency, noise), the model's
    forward on x (the cheap model's padded to the answering width), the
    certificate over the un-noised probabilities. CachedReplay answers from
    `store`, keyed on x's canonical bytes, or answers as the supplier and
    stores (probabilities, certificate, latency) there."""
    s = p.backend

    def supplier(rng, sigma=0.0):
        probs = mlp.forward(s.reveal.model if s.reveal is not None else s.model, x)
        cert = None
        if s.mac_key is not None:
            nonce, rng = rng_bytes(rng, 16)
            cert = entities.issue_certificate(s.mac_key, x, probs, nonce)
        latency, rng = s.latency.sample(rng)
        if sigma:
            g = np.empty(len(probs))
            for i in range(len(g)):
                g[i], rng = rng_gauss(rng)
            noisy = np.clip(probs + sigma * g, 0.0, 1.0)
            total = noisy.sum()
            probs = (noisy / total if total > 0
                     else np.full(len(noisy), 1.0 / len(noisy)))
        return entities.Response(probs, cert, latency), rng

    def cheat(rng):
        cert = None
        if s.mac_key is not None:
            nonce, rng = rng_bytes(rng, 16)
            tag, rng = rng_bytes(rng, 32)
            cert = entities.Certificate(nonce, tag)
        latency, rng = p.latency.sample(rng)
        return entities.Response(_cheap_answer(p, x), cert, latency), rng

    if p.kind == entities.SUBSTITUTE_MODEL:
        return cheat(rng)
    if p.kind == entities.PARTIAL_CHEAT:
        u, rng = rng_uniform(rng)
        return cheat(rng) if u < p.cheat_rate else supplier(rng)
    if p.kind == entities.NOISY_PASSTHROUGH:
        return supplier(rng, p.noise_sigma)
    if p.kind == entities.CACHED_REPLAY:
        key = canon.vec(x)
        if key not in store:
            resp, rng = supplier(rng)
            store[key] = (resp.probs, resp.certificate, resp.latency_ms)
        return entities.Response(*store[key]), rng
    return supplier(rng)


def _wide_variant(steg_env, kind, mac, reveal):
    """`_variant` with latency seeds outside [0, 2**63) (the API takes any
    int) and noise wide enough that some rows clip to all zeros."""
    _, fx = steg_env
    supplier = entities.Supplier(
        model=fx.supplier.model, reveal=fx.supplier.reveal if reveal else None,
        mac_key=KEY if mac else None,
        latency=entities.LatencyModel(3.0, 1.0, 3 * 2 ** 63 + 5))

    def provider():
        return entities.Provider(
            kind=kind, backend=supplier, cheap_model=fx.cheap_model,
            cheat_rate=0.5,
            noise_sigma=3.3 if kind == entities.NOISY_PASSTHROUGH else 0.0,
            latency=entities.LatencyModel(2.0, 4.0, -(2 ** 40 + 7)))
    return provider


def _two_batches(n):
    """Batch one: n distinct rows. Batch two: n rows that start with batch
    one's first row and ask one new row twice (second and last)."""
    rows = [_x(5000 + i) for i in range(2 * n)]
    if n < 3:
        return rows[:n], rows[:1] * n
    return rows[:n], [rows[0], rows[n]] + rows[n + 1:2 * n - 2] + [rows[n]]


# a route's rows take their draws in one uint64 pass from _CROSSOVER draws
# on: 3 rows are below it on a 3-draw route (a nonce) and above it on a
# route of 7 or more (a forged tag, noise); 16 and 17 rows straddle it on a
# 1-draw route; PartialCheat's coin splits 23 or 24 rows about evenly, and
# its halves take Python ints at one draw a row and the pass at three or more
_COLUMNAR_SIZES = [1, 3, _CROSSOVER - 1, _CROSSOVER, 23, 24, 200]

_GRID = pytest.mark.parametrize("kind,mac,reveal", [
    (kind, mac, reveal) for kind in entities.PROVIDER_KINDS
    for mac in (False, True) for reveal in (False, True)])


@_GRID
def test_provider_classify_is_the_plain_definition(steg_env, kind, mac, reveal):
    provider = _wide_variant(steg_env, kind, mac, reveal)
    first, second = _two_batches(12)
    one, one_store, rng, seq = provider(), {}, 5, []
    ref, ref_store, rng_r, want = provider(), {}, 5, []
    for x in first + second:
        resp, rng = entities.provider_classify(one, x, rng, one_store)
        seq.append(resp)
        resp, rng_r = _reference_classify(ref, x, rng_r, ref_store)
        want.append(resp)
    assert rng == rng_r
    _same_answers(want, seq)
    _same_cache(ref_store, one_store)


@pytest.mark.parametrize("n", _COLUMNAR_SIZES)
@_GRID
def test_columnar_batch_equals_one_at_a_time(steg_env, monkeypatch, kind, mac,
                                             reveal, n):
    provider = _wide_variant(steg_env, kind, mac, reveal)
    first, second = _two_batches(n)
    one, one_store, rng, seq = provider(), {}, 99, []
    for x in first + second:
        resp, rng = entities.provider_classify(one, x, rng, one_store)
        seq.append(resp)

    passes = []
    array_draws = entities._array_draws

    def counted(route, starts):
        passes.append(len(starts))
        return array_draws(route, starts)

    blocks = []
    answer_block = entities._answer_block

    def block(route, starts, X):
        blocks.append((len(starts), route.count))
        return answer_block(route, starts, X)

    monkeypatch.setattr(entities, "_array_draws", counted)
    monkeypatch.setattr(entities, "_answer_block", block)
    many, many_store, rng_b, got, ends = provider(), {}, 99, [], []
    for part in (first, second):
        begin, at = len(passes), len(blocks)
        answers, rng_b = entities.ask(np.array(part), many, rng_b,
                                      replays=many_store)
        got += answers
        ends.append(len(passes))
        # the rows that draw, one block per route: one uint64 pass for each
        # block of at least _CROSSOVER draws, and none for the others
        assert sorted(passes[begin:]) == sorted(
            k for k, count in blocks[at:] if k * count >= _CROSSOVER)
    assert rng_b == rng
    _same_answers(seq, got)
    _same_cache(one_store, many_store)
    # the first batch's n rows all draw (a cheat row is the cheap model's)
    cheats = sum(np.array_equal(r.probs, _cheap_answer(many, x))
                 for r, x in zip(got[:n], first))
    big = sorted(k for k, route in ((cheats, many._cheat),
                                    (n - cheats, many._honest))
                 if k * route.count >= _CROSSOVER)
    assert sorted(passes[:ends[0]]) == big
    if kind == entities.PARTIAL_CHEAT and n == 200:
        assert len(big) == 2 and sum(big) == n
    if kind == entities.NOISY_PASSTHROUGH and n == 200:
        # clipped to all zeros, renormalized to uniform, in the array pass
        assert any(np.all(r.probs == 1.0 / len(r.probs)) for r in got[:n])


@pytest.mark.parametrize("state", [2 ** 64 + 99, -99])
@pytest.mark.parametrize("kind", entities.PROVIDER_KINDS)
def test_columnar_batch_takes_any_int_state(steg_env, kind, state):
    # rng_next reduces any int mod 2**64; the uint64 pass must do the same.
    # With a MAC key every route takes 3 or more draws a row, so a route
    # with 6 or more of the rows takes the pass
    provider = _wide_variant(steg_env, kind, True, True)
    rows, _ = _two_batches(_CROSSOVER)
    one, one_store, rng, seq = provider(), {}, state, []
    for x in rows:
        resp, rng = entities.provider_classify(one, x, rng, one_store)
        seq.append(resp)
    answers, rng_b = entities.ask(np.array(rows), provider(), state,
                                  replays={})
    assert rng_b == rng
    _same_answers(seq, answers)


def test_query_batch_rejects_wrong_width_while_planning(supplier_pair):
    supplier, _ = supplier_pair
    p, store = entities.Provider(entities.CACHED_REPLAY, supplier), {}
    with pytest.raises(ShapeError):
        entities.ask(np.zeros((1, 5)), p, 1, replays=store)
    with pytest.raises(ShapeError, match="3 owners for 2 rows"):
        entities.ask(np.zeros((2, 16)), p, [1], [0, 0, 0], [store])
    assert store == {}


def test_partial_cheat_batch_mixes_scalar_and_array_routes(steg_env, monkeypatch):
    # one route below the crossover of draws takes Python ints, the other
    # one uint64 pass, in the same batch: with no MAC key each route takes
    # one draw a row, and a fifth of 40 rows cheat
    wide = _wide_variant(steg_env, entities.PARTIAL_CHEAT, False, True)

    def provider():
        return dataclasses.replace(wide(), cheat_rate=0.2)
    rows = [_x(7000 + i) for i in range(40)]
    one, rng, seq = provider(), 11, []
    for x in rows:
        resp, rng = entities.provider_classify(one, x, rng)
        seq.append(resp)

    calls = []
    for name in ("_scalar_draws", "_array_draws"):
        def counted(route, starts, name=name, draws=getattr(entities, name)):
            calls.append((name, len(starts) * route.count))
            return draws(route, starts)
        monkeypatch.setattr(entities, name, counted)
    answers, rng_b = entities.ask(np.array(rows), provider(), 11)
    assert rng_b == rng
    _same_answers(seq, answers)
    draws_of = dict(calls)
    assert len(calls) == 2 and sum(draws_of.values()) == len(rows)
    assert draws_of["_scalar_draws"] < _CROSSOVER <= draws_of["_array_draws"]


# -- block plans: a block of rows equals asking one query at a time -------------


def _reference_walk(p, x, state, store):
    """One query walked by its definition: the route from the kind (the
    coin with rng_uniform, the lookup in the replay store), the start state,
    the draws skipped with rng_advance, and the answer by
    `_reference_classify`. Returns (response, start state, end state)."""
    route, after = p._honest, state
    if p.kind == entities.CACHED_REPLAY:
        if canon.vec(x) in store:
            route = None
    elif p.kind == entities.PARTIAL_CHEAT:
        u, after = rng_uniform(state)
        route = p._cheat if u < p.cheat_rate else p._honest
    elif p.kind == entities.SUBSTITUTE_MODEL:
        route = p._cheat
    start = after & MASK64
    end = after if route is None else rng_advance(after, route.count)
    resp, rng = _reference_classify(p, x, state, store)
    assert rng == end
    return resp, start, end


def _same_columns(want, answers):
    """An Answers' columns against reference responses, row by row."""
    assert answers.labels.tolist() == [int(r.probs.argmax()) for r in want]
    assert answers.latencies == [r.latency_ms for r in want]
    assert [c is None for c in answers.certificates] == \
        [r.certificate is None for r in want]
    assert [canon.vec(v) for v in answers.probs] == [canon.vec(r.probs) for r in want]
    assert answers.matrix.tobytes() == b"".join(canon.vec(r.probs) for r in want)


_POOL = [_x(9000 + i) for i in range(6)]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(entities.PROVIDER_KINDS), mac=st.booleans(),
       reveal=st.booleans(), rate=st.sampled_from([0.0, 0.37, 1.0]),
       picks=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=24),
       shared=st.booleans(), data=st.data())
def test_block_plan_equals_one_query_at_a_time(steg_env, kind, mac, reveal, rate,
                                               picks, shared, data):
    """The first `early` rows asked in one call on one stream and store,
    then the rest split into runs of random lengths, each run owned by
    another owner, in one call on the owners' streams and stores: every
    answer, draw start, end state and replay-store entry equals each run
    asked alone on its owner's stream and store, one query at a time, in
    order. CachedReplay inputs repeat within a run, across runs and from
    the earlier call. The owners share the first call's store, as one
    trial's owners do, or each holds one of its own, as trials do."""
    _, variant = _variant(steg_env, kind, mac, reveal)

    def provider():
        return dataclasses.replace(variant(), cheat_rate=rate)
    rows = np.array([_POOL[i] for i in picks])
    early = data.draw(st.integers(0, len(rows) - 1), "early")
    later = rows[early:]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(later) - 1)), "cuts")
                  if len(later) > 1 else set())
    runs = list(zip([0, *cuts], [*cuts, len(later)]))
    order = data.draw(st.permutations(range(len(runs))), "owners")
    owners = np.repeat(order, [b - a for a, b in runs])
    streams = [rng_advance(99, 1000 * k + 1) for k in range(len(runs))]

    one, many = provider(), provider()
    if shared:
        one_stores, many_stores = [{}] * (len(runs) + 1), [{}] * (len(runs) + 1)
    else:
        one_stores = [{} for _ in range(len(runs) + 1)]
        many_stores = [{} for _ in range(len(runs) + 1)]
    want, want_starts = [], []

    def walk(xs, state, store):
        for x in xs:
            resp, start, end = _reference_walk(one, x, state, store)
            want.append(resp)
            if end != start:  # a replay takes no draws
                want_starts.append(start)
            state = end
        return state

    # the first call's store is the last; owner k's is store k
    ref_end, ref_streams = walk(rows[:early], 99, one_stores[-1]), list(streams)
    for (a, b), k in zip(runs, order):
        ref_streams[k] = walk(later[a:b], ref_streams[k], one_stores[k])

    starts, answer_block = [], entities._answer_block

    def block(route, route_starts, X):
        starts.extend(route_starts)
        return answer_block(route, route_starts, X)

    with mock.patch.object(entities, "_answer_block", block):
        first, end = entities.ask(rows[:early], many, 99,
                                  replays=many_stores[-1])
        second, ends = entities.ask(later, many, streams, owners,
                                    many_stores[:-1])
    assert end == ref_end
    assert ends == ref_streams and ends is not streams
    assert sorted(starts) == sorted(want_starts)
    _same_answers(want, [*first, *second])
    _same_columns(want[:early], first)
    _same_columns(want[early:], second)
    for one_store, many_store in zip(one_stores, many_stores):
        _same_cache(one_store, many_store)


# -- what the column path guarantees ----------------------------------------------


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_latency_is_rejected_from_a_block_and_one_query(supplier_pair):
    # base + jitter * u overflows to inf once u > 0.797...: the block's
    # latency check raises what Response's own check raises, from the uint64
    # pass (40 rows) and from the one-query path
    supplier, _ = supplier_pair
    huge = dataclasses.replace(supplier, latency=entities.LatencyModel(1e308, 1e308))
    p = entities.Provider(entities.HONEST_PASSTHROUGH, huge)
    with pytest.raises(ParameterError, match="latency_ms must be finite"):
        entities.ask(np.array([_x(8000 + i) for i in range(40)]), p, 3)
    # a start state whose latency draw (after the nonce) overflows
    state = next(s for s in range(64) if not math.isfinite(
        huge.latency.sample(rng_advance(s, p._honest.latency_at))[0]))
    with pytest.raises(ParameterError, match="latency_ms must be finite"):
        entities.provider_classify(p, _x(8100), state)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_failed_call_leaves_the_replay_cache_as_it_found_it(supplier_pair):
    # a 40-row CachedReplay block whose latency overflows raises; none of its
    # misses enters the store, so a later query of the same input, from a
    # provider with finite latency on the same store, is a plain miss
    supplier, _ = supplier_pair
    huge = dataclasses.replace(supplier, latency=entities.LatencyModel(1e308, 1e308))
    p, store = entities.Provider(entities.CACHED_REPLAY, huge), {}
    rows = np.array([_x(8200 + i) for i in range(40)])
    with pytest.raises(ParameterError, match="latency_ms must be finite"):
        entities.ask(rows, p, 3, replays=store)
    assert store == {}
    sane = entities.Provider(entities.CACHED_REPLAY, supplier)
    resp, _ = entities.provider_classify(sane, rows[0], 3, store)
    assert [_answered(entities.Response(*e)) for e in store.values()] == \
        [_answered(resp)]
    _same_response(resp, _reference_classify(
        entities.Provider(entities.CACHED_REPLAY, supplier), rows[0], 3, {})[0])


def test_an_ask_of_replays_alone_has_the_answering_width(supplier_pair):
    # no row of the second call is answered by a route block, and its
    # matrix still has the supplier's width
    supplier, fx = supplier_pair
    p = entities.Provider(entities.CACHED_REPLAY, supplier,
                          cheap_model=fx.cheap_model)
    rows, store = np.array([_x(8300 + i) for i in range(3)]), {}
    first, rng = entities.ask(rows, p, 5, replays=store)
    again, end = entities.ask(rows[::-1], p, rng, replays=store)
    assert end == rng  # a replay takes no draw
    assert again.matrix.shape == (3, supplier.answering_model.n_out)
    assert again.matrix.tobytes() == first.matrix[::-1].tobytes()
    for i in range(3):
        _same_response(again[i], first[2 - i])


def test_the_answer_matrix_is_read_only_so_no_replay_is_rewritten(supplier_pair):
    # a replay-store entry is a row view of the matrix it was answered in
    supplier, _ = supplier_pair
    p, store = entities.Provider(entities.CACHED_REPLAY, supplier), {}
    x = _x(8400)
    answers, rng = entities.ask(x[None], p, 3, replays=store)
    want = answers.matrix.tobytes()
    one_hot = np.eye(supplier.answering_model.n_out)[0]
    for row in (answers.matrix, answers.matrix[0], answers.probs[0],
                answers[0].probs, next(iter(store.values()))[0]):
        with pytest.raises(ValueError, match="read-only"):
            row[...] = one_hot
    replay, _ = entities.ask(x[None], p, rng, replays=store)
    assert replay.matrix.tobytes() == want
    assert entities.verify_certificate(KEY, x, replay.matrix[0],
                                       replay.certificates[0])


def test_actors_are_frozen(supplier_pair):
    supplier, fx = supplier_pair
    provider = entities.Provider(entities.PARTIAL_CHEAT, supplier,
                                 cheap_model=fx.cheap_model, cheat_rate=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        provider.cheat_rate = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        supplier.mac_key = None


def test_replace_rebuilds_routes_and_the_provider_holds_no_state(supplier_pair):
    # a query fills the caller's replay store and leaves every field of the
    # provider as it was
    supplier, fx = supplier_pair
    provider = entities.Provider(entities.CACHED_REPLAY, supplier,
                                 cheap_model=fx.cheap_model)
    names = [f.name for f in dataclasses.fields(provider)]
    before = [getattr(provider, name) for name in names]
    store = {}
    entities.provider_classify(provider, _x(41), 3, store)
    assert len(store) == 1
    assert all(getattr(provider, n) is v for n, v in zip(names, before))
    assert not any(isinstance(v, (dict, list, set)) for v in before)
    fresh = dataclasses.replace(provider)
    assert fresh == provider
    assert fresh._honest == provider._honest and fresh._cheat == provider._cheat


def test_cached_replay_without_a_store_raises(supplier_pair):
    # its replays live in a store the caller holds; without one it fails
    # loudly, and the other kinds take none
    supplier, fx = supplier_pair
    x = _x(8500)
    replay = entities.Provider(entities.CACHED_REPLAY, supplier)
    with pytest.raises(ParameterError, match="replay store"):
        entities.ask(x[None], replay, 3)
    with pytest.raises(ParameterError, match="replay store"):
        entities.ask(np.array([x, x]), replay, [3], [0, 0])
    with pytest.raises(ParameterError, match="replay store"):
        entities.provider_classify(replay, x, 3)
    for kind in entities.PROVIDER_KINDS:
        if kind != entities.CACHED_REPLAY:
            p = entities.Provider(kind, supplier, cheap_model=fx.cheap_model,
                                  cheat_rate=0.5, noise_sigma=0.05)
            assert len(entities.ask(x[None], p, 3)[0]) == 1


def _with_bits(row, at, bits):
    row = np.array(row, dtype=np.float64)
    row[at] = np.array([bits], dtype=np.uint64).view(np.float64)[0]
    return row


_QUIET_NAN = 0x7FF8000000000000


@settings(max_examples=60, deadline=None)
@given(base=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       at=st.integers(0, 3), nan=st.booleans(),
       payloads=st.lists(st.integers(0, 2 ** 51 - 1), min_size=2, max_size=2,
                         unique=True),
       state=st.integers(0, 2 ** 64 - 1))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_replay_keys_are_each_rows_canonical_bytes(base, at, nan, payloads,
                                                   state):
    """Rows that differ only in the sign of a zero, or only in a NaN's
    payload, compare equal (or unequal) as floats but are distinct keys; a
    row asked again, within the call or in a later call on the same store,
    replays its first answer's bytes, certificate and latency, and takes no
    draw."""
    supplier = entities.Supplier(mlp.init_mlp((4, 3), weight_seed=at + 1),
                                 mac_key=KEY,
                                 latency=entities.LatencyModel(1.0, 2.0, 3))
    p, store = entities.Provider(entities.CACHED_REPLAY, supplier), {}
    if nan:
        a, b = (_with_bits(base, at, _QUIET_NAN | q) for q in payloads)
    else:
        a, b = _with_bits(base, at, 0), _with_bits(base, at, 1 << 63)
        assert (a == b).all()
    assert a.tobytes() != b.tobytes()
    first, end = entities.ask(np.array([a, b, a, b]), p, state, replays=store)
    assert list(store) == [canon.vec(a), canon.vec(b)]
    # two misses take their draws, the two repeats none
    assert end == rng_advance(state, 2 * p._honest.count)
    assert first[0].certificate.nonce != first[1].certificate.nonce
    for i in (0, 1):
        _same_response(first[i + 2], first[i])
        _same_response(entities.Response(*store[canon.vec((a, b)[i])]), first[i])
    again, after = entities.ask(np.array([b, a]), p, end, replays=store)
    assert after == end
    _same_response(again[0], first[1])
    _same_response(again[1], first[0])
    assert len(store) == 2

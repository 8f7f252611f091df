"""Layer-level timings of the keyed certificates, kept out of the test suite
(pytest collects only `tests/` by default):

    python -m pytest bench/test_mac.py -q -p no:cacheprovider --benchmark-only

`hmac_sha256` on a certificate-sized message; one `supplier_classify` query
with and without a MAC key, for a supplier of the built-in shape (8, 24, 3);
a block of 1, 4 or 100 rows signed (`entities._sign_block`, as `ask` signs
a route's rows) and checked (`first_invalid_certificate`, every row
valid, so every tag is computed); and the tags of 1, 4 or 100 messages from
one `entities._key_schedule`, against the standard library's per-key state
(`hmac.new` once, `.copy()` per message). The cost of one HMAC depends on
the OpenSSL build, so a `BENCH_*.json` file recording medians from this
harness names `ssl.OPENSSL_VERSION`."""

import hmac

import numpy as np
import pytest

from veriml import entities
from veriml.entities import (LatencyModel, Supplier, first_invalid_certificate,
                             hmac_sha256, supplier_classify)
from veriml.mlp import forward_batch, init_mlp
from veriml.rng import rng_bytes, uniform_array

KEY = bytes(range(32))
_MODEL = init_mlp((8, 24, 3), weight_seed=7)
SUPPLIERS = {
    "mac": Supplier(_MODEL, mac_key=KEY, latency=LatencyModel(2.0, 1.0, 3)),
    "no-mac": Supplier(_MODEL, latency=LatencyModel(2.0, 1.0, 3)),
}


def _block(rows):
    """rows queries of the built-in width, their answers and nonces."""
    flat, state = uniform_array(11, rows * 8)
    X = flat.reshape(rows, 8)
    nonces = []
    for _ in range(rows):
        nonce, state = rng_bytes(state, 16)
        nonces.append(nonce)
    return X, forward_batch(_MODEL, X), nonces


def test_hmac_sha256(benchmark):
    message = bytes(range(104))  # 8 + 3 float64s and a 16-byte nonce
    assert len(benchmark(hmac_sha256, KEY, message)) == 32


@pytest.mark.parametrize("mac", SUPPLIERS)
def test_supplier_classify(benchmark, mac):
    x, _ = uniform_array(11, 8)
    resp, _ = benchmark(supplier_classify, SUPPLIERS[mac], x, 5)
    assert (resp.certificate is None) == (mac == "no-mac")


@pytest.mark.parametrize("rows", [1, 4, 100])
def test_sign_block(benchmark, rows):
    X, P, nonces = _block(rows)
    certs = benchmark(entities._sign_block, KEY, X, P, nonces)
    assert len(certs) == rows


@pytest.mark.parametrize("rows", [1, 4, 100])
def test_check_block(benchmark, rows):
    X, P, nonces = _block(rows)
    certs = entities._sign_block(KEY, X, P, nonces)
    assert benchmark(first_invalid_certificate, KEY, X, P, certs) is None


def _schedule_tags(key, messages):
    schedule = entities._key_schedule(key)
    return [entities._tag(schedule, m) for m in messages]


def _hmac_copy_tags(key, messages):
    base = hmac.new(key, digestmod="sha256")
    tags = []
    for m in messages:
        h = base.copy()
        h.update(m)
        tags.append(h.digest())
    return tags


@pytest.mark.parametrize("tags", [_schedule_tags, _hmac_copy_tags],
                         ids=["schedule", "hmac-copy"])
@pytest.mark.parametrize("rows", [1, 4, 100])
def test_block_tags(benchmark, tags, rows):
    messages = [bytes([i]) * 104 for i in range(rows)]
    want = [hmac.digest(KEY, m, "sha256") for m in messages]
    assert benchmark(tags, KEY, messages) == want

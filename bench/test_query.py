"""Layer-level timings of the query path, kept out of the test suite
(pytest collects only `tests/` by default):

    python -m pytest bench/test_query.py -q -p no:cacheprovider --benchmark-only

One `entities.ask` of a block of 1, 4, 16 or 256 rows on one stream, and
one Robustness step's scorer call (6 attacks' runs of 16 probe rows or of 1
moved point, each run on its attack's own stream, in one `ask`), for four
provider kinds over a supplier of the built-in shape (8, 24, 3) with
jittered latency and no MAC key; and one `verifiers.probabilistic_benchmark`
of the built-in k = 200 labeled rows for each of the five kinds. A
CachedReplay provider starts each call with an empty replay cache, so every
row misses. `BENCH_*.json` files at the
repository root record medians from this harness."""

import numpy as np
import pytest

from veriml.data import make_blobs
from veriml.entities import (CACHED_REPLAY, HONEST_PASSTHROUGH,
                             NOISY_PASSTHROUGH, PARTIAL_CHEAT, SUBSTITUTE_MODEL,
                             LatencyModel, Provider, Supplier, ask)
from veriml.mlp import init_mlp
from veriml.rng import derive_seed, uniform_array
from veriml.verifiers import probabilistic_benchmark

_SUPPLIER = Supplier(init_mlp((8, 24, 3), weight_seed=7),
                     latency=LatencyModel(2.0, 1.0, 3))
_CHEAP = init_mlp((8, 3, 3), weight_seed=8)
PROVIDERS = {
    "HonestPassthrough": Provider(HONEST_PASSTHROUGH, _SUPPLIER),
    "PartialCheat-0.5": Provider(PARTIAL_CHEAT, _SUPPLIER, cheap_model=_CHEAP,
                                 cheat_rate=0.5,
                                 latency=LatencyModel(1.0, 0.5, 4)),
    "CachedReplay": Provider(CACHED_REPLAY, _SUPPLIER),
    "NoisyPassthrough": Provider(NOISY_PASSTHROUGH, _SUPPLIER, noise_sigma=0.05),
}


ATTACKS = 6
STREAMS = [derive_seed(5, k) for k in range(ATTACKS)]


def _ask_and_answer(provider: Provider, X: np.ndarray):
    provider.cache.clear()
    return ask(X, provider, 5)[0]


def _robustness_step(provider: Provider, X: np.ndarray, owners: np.ndarray):
    provider.cache.clear()
    return ask(X, provider, STREAMS, owners)[0]


@pytest.mark.parametrize("rows", [1, 4, 16, 256])
@pytest.mark.parametrize("kind", PROVIDERS)
def test_ask_and_answer(benchmark, kind, rows):
    flat, _ = uniform_array(11, rows * 8)
    answers = benchmark(_ask_and_answer, PROVIDERS[kind], flat.reshape(rows, 8))
    assert len(answers) == rows


@pytest.mark.parametrize("rows", [1, 16])
@pytest.mark.parametrize("kind", PROVIDERS)
def test_robustness_step(benchmark, kind, rows):
    flat, _ = uniform_array(13, ATTACKS * rows * 8)
    owners = np.repeat(np.arange(ATTACKS), rows)
    answers = benchmark(_robustness_step, PROVIDERS[kind],
                        flat.reshape(ATTACKS * rows, 8), owners)
    assert len(answers) == ATTACKS * rows


HELD = make_blobs(3, 100, 8, 0.15, seed=9)
KINDS = {**PROVIDERS, "SubstituteModel": Provider(SUBSTITUTE_MODEL, _SUPPLIER,
                                                  cheap_model=_CHEAP)}


def _probabilistic_benchmark(provider: Provider):
    provider.cache.clear()
    return probabilistic_benchmark(provider, _SUPPLIER, HELD, 200, 0.05, 17)


@pytest.mark.parametrize("kind", KINDS)
def test_probabilistic_benchmark(benchmark, kind):
    verdict = benchmark(_probabilistic_benchmark, KINDS[kind])
    assert verdict.n_probes == 200

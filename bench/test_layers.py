"""Layer-level timings of the building blocks under every campaign, kept out
of the test suite (pytest collects only `tests/` by default):

    python -m pytest bench/test_layers.py -q -p no:cacheprovider --benchmark-only

splitmix64 draws (`uniform_array` of 16 draws, the last count on the
Python-int path, of 17, the first on the uint64 pass, and of 4,096);
`make_blobs` of the StegProbe built-in's data recipe; `init_mlp` of its
(16, 16, 3) supplier; the exact binomial tails at n = 50 and 200; and a
ledger of 100 blocks, built by `Ledger.append_block` and checked by
`verify_chain`. `BENCH_*.json` files at the repository root record medians
from this harness."""

import pytest

from veriml import config, stats
from veriml.auditor import Ledger, MetricReport, identity
from veriml.data import make_blobs
from veriml.mlp import init_mlp
from veriml.rng import uniform_array

_RECIPE = config.builtin_config(config.STEG_PROBE)["supplier"]["data"]
_ORACLE = identity("oracle-0")
BLOCKS = 100
# one metric report per block, made once so the append is what is timed
_PAYLOADS = [[MetricReport(identity(f"request-{i}"), _ORACLE, 0.5 + i / 1000,
                           i % 10)] for i in range(BLOCKS)]


@pytest.mark.parametrize("count", [16, 17, 4096])
def test_uniform_array(benchmark, count):
    values, _ = benchmark(uniform_array, 5, count)
    assert len(values) == count


def test_make_blobs(benchmark):
    r = _RECIPE
    data = benchmark(make_blobs, r["n_classes"], r["n_per_class"], r["dim"],
                     r["spread"], r["seed"])
    assert len(data) == r["n_classes"] * r["n_per_class"]


def test_init_mlp(benchmark):
    assert benchmark(init_mlp, (16, 16, 3), 601).layer_dims == (16, 16, 3)


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("tail", [stats.binomial_tail_leq, stats.binomial_tail_geq],
                         ids=["leq", "geq"])
def test_binomial_tail(benchmark, tail, n):
    # a steg probe's count: about 4 in 5 of n containers flagged at p 0.9
    assert 0.0 < benchmark(tail, 4 * n // 5, n, 0.9) <= 1.0


def _chain() -> Ledger:
    """A new ledger with the BLOCKS blocks appended after genesis."""
    ledger = Ledger({_ORACLE: 0})
    for payloads in _PAYLOADS:
        ledger.append_block(payloads)
    return ledger


def test_ledger_append_block(benchmark):
    assert len(benchmark(_chain).blocks) == BLOCKS + 1


def test_ledger_verify_chain(benchmark):
    assert benchmark(_chain().verify_chain)

"""Layer-level timings of the forward kernel, kept out of the test suite
(pytest collects only `tests/` by default):

    python -m pytest bench -q -p no:cacheprovider --benchmark-only

`forward` on one row and `forward_batch` on 16, 64 and 200 rows, for every
network shape the built-in scenarios evaluate. Add
`--benchmark-json=PATH` to keep the numbers; `BENCH_*.json` files at the
repository root record medians from this harness."""

import numpy as np
import pytest

from veriml.mlp import LINEAR, SOFTMAX, forward, forward_batch, init_mlp
from veriml.rng import uniform_array

# the built-in configs' suppliers and cheap models, then the StegProbe steg
# nets (prep, hide, reveal, decoder)
NETS = {
    "8-24-3": ((8, 24, 3), SOFTMAX),
    "8-16-2": ((8, 16, 2), SOFTMAX),
    "16-16-3": ((16, 16, 3), SOFTMAX),
    "8-3-3": ((8, 3, 3), SOFTMAX),
    "16-4-3": ((16, 4, 3), SOFTMAX),
    "4-32-8-linear": ((4, 32, 8), LINEAR),
    "24-32-16-linear": ((24, 32, 16), LINEAR),
    "16-32-4": ((16, 32, 4), SOFTMAX),
    "16-32-4-linear": ((16, 32, 4), LINEAR),
}


def _net_and_rows(name, rows):
    dims, kind = NETS[name]
    model = init_mlp(dims, weight_seed=7, output_kind=kind)
    flat, _ = uniform_array(11, rows * dims[0])
    return model, flat.reshape(rows, dims[0])


@pytest.mark.parametrize("net", NETS)
def test_forward_one_row(benchmark, net):
    model, X = _net_and_rows(net, 1)
    out = benchmark(forward, model, X[0])
    assert out.shape == (model.n_out,)


@pytest.mark.parametrize("rows", [16, 64, 200])
@pytest.mark.parametrize("net", NETS)
def test_forward_batch(benchmark, net, rows):
    model, X = _net_and_rows(net, rows)
    out = benchmark(forward_batch, model, X)
    assert np.isfinite(out).all() and out.shape == (rows, model.n_out)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from veriml import rng
from veriml.errors import ParameterError

SEEDS = st.integers(min_value=0, max_value=2 ** 64 - 1)


def test_reference_sequence_from_zero():
    # first outputs of the splitmix64 stream seeded with 0, from the
    # published reference implementation
    state = 0
    values = []
    for _ in range(3):
        v, state = rng.rng_next(state)
        values.append(v)
    assert values == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@given(SEEDS)
def test_outputs_are_64_bit(seed):
    v, nxt = rng.rng_next(seed)
    assert 0 <= v < 2 ** 64
    assert 0 <= nxt < 2 ** 64


@given(SEEDS)
def test_stream_is_pure(seed):
    assert rng.rng_next(seed) == rng.rng_next(seed)
    assert rng.rng_uniform(seed) == rng.rng_uniform(seed)


@given(SEEDS)
def test_uniform_range(seed):
    u, _ = rng.rng_uniform(seed)
    assert 0.0 <= u < 1.0


@given(SEEDS)
def test_gauss_is_finite(seed):
    g, _ = rng.rng_gauss(seed)
    assert np.isfinite(g)


def test_gauss_moments():
    state = 99
    draws = []
    for _ in range(4000):
        g, state = rng.rng_gauss(state)
        draws.append(g)
    arr = np.array(draws)
    assert abs(arr.mean()) < 0.08
    assert abs(arr.std() - 1.0) < 0.08


@given(SEEDS, st.integers(min_value=1, max_value=1000))
def test_below_in_range(seed, n):
    v, _ = rng.rng_below(seed, n)
    assert 0 <= v < n


def test_below_rejects_nonpositive():
    with pytest.raises(ParameterError):
        rng.rng_below(1, 0)


def test_below_is_roughly_uniform():
    counts = [0] * 5
    state = 7
    for _ in range(5000):
        v, state = rng.rng_below(state, 5)
        counts[v] += 1
    assert min(counts) > 800  # expected 1000 each


@given(SEEDS, st.integers(min_value=0, max_value=64))
def test_bytes_length(seed, n):
    b, _ = rng.rng_bytes(seed, n)
    assert isinstance(b, bytes) and len(b) == n


def test_bytes_prefix_consistency():
    # the byte stream is generated word at a time from the same state walk
    b8, s8 = rng.rng_bytes(5, 8)
    b16, _ = rng.rng_bytes(5, 16)
    assert b16[:8] == b8
    _, s_direct = rng.rng_next(5)
    assert s8 == s_direct


@given(SEEDS, st.integers(min_value=0, max_value=2 ** 32))
def test_derive_seed_deterministic(master, index):
    assert rng.derive_seed(master, index) == rng.derive_seed(master, index)
    assert 0 <= rng.derive_seed(master, index) < 2 ** 64


def test_derive_seed_spreads():
    master = 42
    seeds = {rng.derive_seed(master, i) for i in range(10000)}
    assert len(seeds) == 10000


def test_uniform_array_matches_scalar_walk():
    arr, end = rng.uniform_array(31, 5)
    state = 31
    expect = []
    for _ in range(5):
        u, state = rng.rng_uniform(state)
        expect.append(u)
    assert arr.tolist() == expect
    assert end == state


@given(SEEDS, st.integers(min_value=0, max_value=40))
def test_shuffled_indices_is_permutation(seed, n):
    order, _ = rng.shuffled_indices(seed, n)
    assert sorted(order) == list(range(n))


@given(SEEDS, st.integers(min_value=1, max_value=30), st.data())
def test_sample_indices_without_replacement(seed, n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    picks, _ = rng.sample_indices(seed, n, k)
    assert len(picks) == k
    assert len(set(picks)) == k
    assert all(0 <= i < n for i in picks)


def test_sample_indices_rejects_oversample():
    with pytest.raises(ParameterError):
        rng.sample_indices(1, 3, 4)
    with pytest.raises(ParameterError):
        rng.sample_indices(1, 3, -1)


# -- vector streams against their scalar definitions --------------------------------

FIXED_SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]
# either side of the count where uniform_array leaves its Python-int walk
SIZES = [0, 1, 2, 4, rng._CROSSOVER - 1, rng._CROSSOVER, rng._CROSSOVER + 1, 900]


def _scalar_uniforms(state, count):
    out = []
    for _ in range(count):
        u, state = rng.rng_uniform(state)
        out.append(u)
    return out, state


def _scalar_shuffle(state, n):
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j, state = rng.rng_below(state, i + 1)
        order[i], order[j] = order[j], order[i]
    return order, state


def _scalar_sample(state, n, k):
    pool, picked = list(range(n)), []
    for i in range(k):
        j, state = rng.rng_below(state, n - i)
        picked.append(pool[j])
        pool[j] = pool[n - 1 - i]
    return picked, state


def _check_streams(seed, n):
    arr, end = rng.uniform_array(seed, n)
    want, state = _scalar_uniforms(seed, n)
    assert arr.dtype == np.float64 and arr.shape == (n,)
    assert arr.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert end == state
    assert rng.shuffled_indices(seed, n) == _scalar_shuffle(seed, n)
    for k in (0, n // 2, n):
        assert rng.sample_indices(seed, n, k) == _scalar_sample(seed, n, k)


@pytest.mark.parametrize("seed", FIXED_SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_vector_streams_are_the_scalar_streams_at_fixed_seeds(seed, n):
    _check_streams(seed, n)


@given(SEEDS, st.sampled_from(SIZES))
def test_vector_streams_are_the_scalar_streams(seed, n):
    _check_streams(seed, n)


def test_uniform_array_rejects_negative_count():
    with pytest.raises(ParameterError):
        rng.uniform_array(1, -1)


@pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
def test_uniform_array_masks_the_incoming_state(seed):
    arr, end = rng.uniform_array(seed, 3)
    for alias in (seed + 2 ** 64, seed - 2 ** 64):
        got, got_end = rng.uniform_array(alias, 3)
        assert got.tobytes() == arr.tobytes() and got_end == end
    assert 0 <= end < 2 ** 64
    assert rng.uniform_array(seed + 2 ** 64, 0)[1] == seed

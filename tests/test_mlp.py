import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veriml import mlp
from veriml.data import make_blobs
from veriml.errors import ParameterError, ShapeError
from veriml.rng import rng_uniform, uniform_array

SC = mlp.SeedConfig(1, 2, 3)


def _same(a, b):
    """Bit-for-bit parameter equality."""
    return (a.layer_dims == b.layer_dims
            and [w.tobytes() for w in a.weights + a.biases]
            == [w.tobytes() for w in b.weights + b.biases])


def tiny_cfg(epochs=3, lr=0.3, batch=8, seeds=SC):
    return mlp.TrainConfig(lr, epochs, batch, seeds)


def test_init_shapes_and_determinism():
    a = mlp.init_mlp((4, 7, 3), weight_seed=9)
    b = mlp.init_mlp((4, 7, 3), weight_seed=9)
    c = mlp.init_mlp((4, 7, 3), weight_seed=10)
    assert [w.shape for w in a.weights] == [(7, 4), (3, 7)]
    assert [bb.shape for bb in a.biases] == [(7,), (3,)]
    assert _same(a, b)
    assert not _same(a, c)
    assert all(np.all(bi == 0.0) for bi in a.biases)


def test_init_scale_bound():
    m = mlp.init_mlp((9, 5, 2), weight_seed=1)
    assert np.abs(m.weights[0]).max() <= 1.0 / np.sqrt(9) + 1e-12
    assert np.abs(m.weights[1]).max() <= 1.0 / np.sqrt(5) + 1e-12


def test_forward_is_distribution():
    m = mlp.init_mlp((5, 6, 4), weight_seed=3)
    x, _ = uniform_array(77, 5)
    probs = m and mlp.forward(m, x)
    assert probs.shape == (4,)
    assert np.all(probs > 0)
    assert abs(probs.sum() - 1.0) <= 1e-12


# -- batch invariance: forward_batch rows are forward's bytes ------------------


def _random_model(data, min_fan_in=1, min_out=1):
    """A model with random dims, output kind, weights and nonzero biases."""
    n_in = data.draw(st.integers(min_fan_in, 20), label="n_in")
    hidden = data.draw(st.lists(st.integers(1, 40), max_size=2), label="hidden")
    n_out = data.draw(st.integers(min_out, 12), label="n_out")
    kind = data.draw(st.sampled_from([mlp.SOFTMAX, mlp.LINEAR]), label="kind")
    seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
    model = mlp.init_mlp((n_in, *hidden, n_out), weight_seed=seed, output_kind=kind)
    state = seed
    for i, b in enumerate(model.biases):
        u, state = uniform_array(state, len(b))
        model.biases[i] = u - 0.5
    return model


def _inputs(data, model, n):
    flat, _ = uniform_array(data.draw(st.integers(0, 2 ** 64 - 1), label="xs"),
                            n * model.n_in)
    return flat.reshape(n, model.n_in) * 6.0 - 3.0


WIDE = dict(min_fan_in=8, min_out=8)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([{}, WIDE]))
def test_forward_batch_matches_singles(data, dims):
    model = _random_model(data, **dims)
    X = _inputs(data, model, data.draw(st.integers(1, 80), label="rows"))
    batch = mlp.forward_batch(model, X)
    assert batch.shape == (len(X), model.n_out)
    for i, x in enumerate(X):
        assert batch[i].tobytes() == mlp.forward(model, x).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([{}, WIDE]),
       st.sampled_from([1, 2, 63, 64, 65, 129, 200]))
def test_forward_batch_is_chunking_invariant(data, dims, n):
    model = _random_model(data, **dims)
    X = _inputs(data, model, n)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6), label="cuts")
                  if n > 1 else [])
    bounds = [0, *cuts, n]
    chunked = np.concatenate([mlp.forward_batch(model, X[a:b])
                              for a, b in zip(bounds, bounds[1:])])
    assert chunked.tobytes() == mlp.forward_batch(model, X).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([{}, WIDE]), st.sampled_from([5, 64, 65, 130]))
def test_forward_batch_ignores_memory_layout(data, dims, n):
    model = _random_model(data, **dims)
    wide = _inputs(data, model, 2 * n)
    strided = wide[::2]
    assert not strided.flags.c_contiguous
    want = mlp.forward_batch(model, np.ascontiguousarray(strided)).tobytes()
    assert mlp.forward_batch(model, strided).tobytes() == want
    fortran = np.asfortranarray(strided)
    assert mlp.forward_batch(model, fortran).tobytes() == want
    rows = b"".join(mlp.forward(model, x).tobytes() for x in fortran)
    assert rows == want


def _running_sum_forward(model, a):
    """The kernel's definition: per layer, the products summed by a running
    sum along fan_in, then the bias, tanh on hidden layers, softmax last."""
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        if l:
            a = np.tanh(a)
        a = np.add.accumulate(w * a[..., None, :], -1)[..., -1] + b
    if model.output_kind == mlp.SOFTMAX:
        e = np.exp(a - np.maximum.accumulate(a, -1)[..., -1:])
        a = e / np.add.accumulate(e, -1)[..., -1:]
    return a


_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308,
                      1e150, -1e150, 1e300])


def _sprinkled(values, state, rate):
    """`values` with about `rate` of its entries swapped for signed zeros,
    subnormals and huge values."""
    hit, state = uniform_array(state, values.size)
    pick, state = uniform_array(state, values.size)
    out = values.ravel().copy()
    mask = hit < rate
    out[mask] = _SPECIALS[(pick[mask] * len(_SPECIALS)).astype(int)]
    return out.reshape(values.shape), state


_WIDTH = st.one_of(st.sampled_from([1, 8, 40]), st.integers(1, 40))


@settings(max_examples=120, deadline=None)
@given(n_in=_WIDTH, hidden=st.lists(_WIDTH, max_size=2), n_out=_WIDTH,
       kind=st.sampled_from([mlp.SOFTMAX, mlp.LINEAR]),
       rows=st.sampled_from([None, 1, 2, 63, 64, 65, 200]),
       layout=st.sampled_from(["C", "F", "reversed"]),
       seed=st.integers(0, 2 ** 64 - 1), rate=st.sampled_from([0.0, 0.05, 0.5]))
# one row through a one-unit layer of fan_in >= 8: the block numpy would sum
# pairwise
@example(n_in=9, hidden=[], n_out=1, kind=mlp.LINEAR, rows=1, layout="C",
         seed=1, rate=0.0)
@example(n_in=40, hidden=[1], n_out=3, kind=mlp.SOFTMAX, rows=None,
         layout="C", seed=2, rate=0.0)
@example(n_in=3, hidden=[17], n_out=1, kind=mlp.LINEAR, rows=1,
         layout="F", seed=3, rate=0.05)
# -0.0 products under a -0.0 bias: a sum that starts from +0.0 ends +0.0
@example(n_in=1, hidden=[], n_out=1, kind=mlp.LINEAR, rows=63, layout="C",
         seed=3, rate=0.5)
# one row of logits with a NaN made from infinities: numpy's reduction of
# one vector returns a NaN of its own sign, the running max keeps the row's
@example(n_in=40, hidden=[], n_out=9, kind=mlp.SOFTMAX, rows=None, layout="C",
         seed=21646305, rate=0.5)
def test_kernel_equals_the_running_sum_definition(n_in, hidden, n_out, kind,
                                                  rows, layout, seed, rate):
    model = mlp.init_mlp((n_in, *hidden, n_out), weight_seed=seed,
                         output_kind=kind)
    state = seed
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        u, state = uniform_array(state, len(b))
        model.weights[i], state = _sprinkled(w, state, rate / 4)
        model.biases[i], state = _sprinkled(u - 0.5, state, rate)
    flat, state = uniform_array(state, (rows or 1) * n_in)
    X, _ = _sprinkled(flat.reshape(-1, n_in) * 6.0 - 3.0, state, rate)
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "reversed":
        X = np.ascontiguousarray(X[::-1, ::-1])[::-1, ::-1]
    with np.errstate(over="ignore", invalid="ignore"):  # huge values overflow
        want = _running_sum_forward(model, np.ascontiguousarray(X))
        if rows is None:
            x = X[0]
            assert mlp.forward(model, x).tobytes() == want[0].tobytes()
            assert mlp._infer(model, x).tobytes() == want[0].tobytes()
        else:
            assert mlp.forward_batch(model, X).tobytes() == want.tobytes()
            assert mlp._infer(model, X).tobytes() == want.tobytes()


def test_forward_rejects_wrong_width():
    m = mlp.init_mlp((5, 6, 4), weight_seed=3)
    with pytest.raises(ShapeError):
        mlp.forward(m, np.zeros(6))


@pytest.mark.parametrize("shape", [(1, 5), (3, 5), (), (5, 1)])
def test_forward_rejects_anything_but_one_input(shape):
    # a batch used to come back as its first row's answer, silently
    m = mlp.init_mlp((5, 6, 4), weight_seed=3)
    with pytest.raises(ShapeError):
        mlp.forward(m, np.zeros(shape))


def test_linear_output_kind_is_raw():
    m = mlp.init_mlp((4, 5, 3), weight_seed=2, output_kind=mlp.LINEAR)
    x, _ = uniform_array(5, 4)
    out = mlp.forward(m, x)
    assert not np.isclose(out.sum(), 1.0) or np.any(out < 0)


def test_train_is_deterministic_and_functional():
    data = make_blobs(2, 30, 4, 0.1, seed=6)
    init = mlp.init_mlp((4, 6, 2), weight_seed=8)
    before = mlp.load_model(mlp.save_model(init))
    m1 = mlp.train_sgd(init, data, tiny_cfg())
    m2 = mlp.train_sgd(init, data, tiny_cfg())
    assert _same(m1, m2)
    assert _same(init, before)  # input model untouched
    assert not _same(m1, init)


def test_training_learns_easy_blobs(easy_data):
    model = mlp.train_sgd(mlp.init_mlp((6, 8, 3), weight_seed=4), easy_data,
                          mlp.TrainConfig(0.5, 20, 16, SC))
    assert mlp.accuracy(model, easy_data) >= 0.95


def test_accuracy_against_sklearn_reference(easy_data):
    # an off-the-shelf learner confirms the dataset is as easy as our
    # accuracy numbers claim
    sklearn = pytest.importorskip("sklearn.linear_model")
    clf = sklearn.LogisticRegression(max_iter=2000)
    clf.fit(easy_data.inputs, easy_data.labels)
    assert clf.score(easy_data.inputs, easy_data.labels) >= 0.95


def test_shuffle_seed_changes_trajectory():
    data = make_blobs(2, 30, 4, 0.1, seed=6)
    init = mlp.init_mlp((4, 6, 2), weight_seed=8)
    m1 = mlp.train_sgd(init, data, tiny_cfg(seeds=mlp.SeedConfig(1, 2, 3)))
    m2 = mlp.train_sgd(init, data, tiny_cfg(seeds=mlp.SeedConfig(1, 99, 3)))
    assert not _same(m1, m2)


def test_adversarial_epsilon_changes_model():
    data = make_blobs(2, 30, 4, 0.1, seed=6)
    init = mlp.init_mlp((4, 6, 2), weight_seed=8)
    plain = mlp.train_sgd(init, data, tiny_cfg())
    hard = mlp.train_sgd(init, data, tiny_cfg(), adversarial_epsilon=0.1)
    assert not _same(plain, hard)


def test_gradient_matches_finite_differences():
    m = mlp.init_mlp((3, 5, 2), weight_seed=12)
    x, _ = uniform_array(13, 3)
    label = 1
    grads = mlp.gradient(m, x, label)
    h = 1e-6

    def loss(model):
        return -np.log(mlp.forward(model, x)[label])

    for li in range(len(m.weights)):
        w = m.weights[li]
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                up, dn = (mlp.load_model(mlp.save_model(m)) for _ in "ud")
                up.weights[li][r, c] += h
                dn.weights[li][r, c] -= h
                fd = (loss(up) - loss(dn)) / (2 * h)
                assert grads.weights[li][r, c] == pytest.approx(fd, rel=1e-4,
                                                                abs=1e-8)


def test_input_gradient_matches_finite_differences():
    m = mlp.init_mlp((4, 6, 3), weight_seed=14)
    x, _ = uniform_array(15, 4)
    target = 2
    g = mlp.input_gradient(m, x, target)
    h = 1e-6
    for i in range(4):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        fd = (np.log(mlp.forward(m, up)[target])
              - np.log(mlp.forward(m, dn)[target])) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=8),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=2 ** 32))
def test_save_load_round_trip(n_in, hidden, n_out, seed):
    m = mlp.init_mlp((n_in, hidden, n_out), weight_seed=seed)
    back = mlp.load_model(mlp.save_model(m))
    assert _same(m, back)
    assert back.layer_dims == m.layer_dims
    assert back.output_kind == m.output_kind


def test_load_rejects_garbage():
    with pytest.raises(Exception):
        mlp.load_model(b"not a model")
    blob = bytearray(mlp.save_model(mlp.init_mlp((2, 3, 2), weight_seed=1)))
    blob[0] ^= 0xFF  # break the magic
    with pytest.raises(Exception):
        mlp.load_model(bytes(blob))


def test_train_config_validation():
    with pytest.raises(ParameterError):
        mlp.TrainConfig(-0.1, 5, 8, SC)
    with pytest.raises(ParameterError):
        mlp.TrainConfig(0.1, 0, 8, SC)
    with pytest.raises(ParameterError):
        mlp.TrainConfig(0.1, 5, 0, SC)


def test_canonical_bytes_distinguish_configs():
    base = mlp.TrainConfig(0.1, 5, 8, SC).canonical_bytes()
    assert base != mlp.TrainConfig(0.2, 5, 8, SC).canonical_bytes()
    assert base != mlp.TrainConfig(0.1, 6, 8, SC).canonical_bytes()
    assert base != mlp.TrainConfig(0.1, 5, 9, SC).canonical_bytes()
    assert base != mlp.TrainConfig(0.1, 5, 8, mlp.SeedConfig(9, 2, 3)).canonical_bytes()


def _scalar_init_weights(dims, seed):
    state, weights = seed, []
    for l in range(len(dims) - 1):
        bound = 1.0 / np.sqrt(dims[l])
        w = np.empty((dims[l + 1], dims[l]))
        for r in range(dims[l + 1]):
            for c in range(dims[l]):
                u, state = rng_uniform(state)
                w[r, c] = (2.0 * u - 1.0) * bound
        weights.append(w)
    return weights


INIT_DIMS = [(1, 1), (2, 4), (4, 7, 3), (30, 30, 2), (16, 12, 8, 3)]


def _check_init(seed, dims):
    model = mlp.init_mlp(dims, weight_seed=seed)
    want = _scalar_init_weights(dims, seed)
    assert [w.tobytes() for w in model.weights] == [w.tobytes() for w in want]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1])
@pytest.mark.parametrize("dims", INIT_DIMS)
def test_init_mlp_is_the_scalar_draw_order_at_fixed_seeds(seed, dims):
    _check_init(seed, dims)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1), st.sampled_from(INIT_DIMS))
def test_init_mlp_is_the_scalar_draw_order(seed, dims):
    _check_init(seed, dims)

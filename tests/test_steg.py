import numpy as np
import pytest

from veriml import mlp, steg
from veriml.data import make_blobs
from veriml.rng import uniform_array
from veriml.errors import (GenerationFailureError, ParameterError, ShapeError,
                           TrainingFailureError)


@pytest.fixture(scope="module")
def trained(steg_env):
    """(steg model, reveal classifier, checker, held covers) from the
    session fixture campaign."""
    _, fx = steg_env
    return fx.suite.steg, fx.suite.reveal, fx.suite.checker, fx.data.held.inputs


def test_secret_message_validation():
    steg.SecretMessage(np.array([0.1, 0.9]))
    with pytest.raises(ShapeError):
        steg.SecretMessage(np.array([[0.1]]))
    with pytest.raises(ParameterError):
        steg.SecretMessage(np.array([1.5]))


def test_random_secret_in_range():
    s, state = steg.random_secret(3, 6)
    assert s.dim == 6
    assert np.all((s.values >= 0) & (s.values <= 1))
    s2, _ = steg.random_secret(3, 6)
    assert np.array_equal(s.values, s2.values)
    assert state != 3


def test_embed_stays_in_unit_cube(trained):
    model, reveal, _, covers = trained
    state = 400
    for x in covers[:25]:
        secret, state = steg.random_secret(state, model.secret_dim)
        z = steg.embed(model, x, secret)
        assert z.shape == x.shape
        assert z.min() >= 0.0 and z.max() <= 1.0


def test_embed_distortion_is_bounded(trained):
    model, _, _, covers = trained
    dim = covers.shape[1]
    limit = steg.DISTORTION_FACTOR * np.sqrt(dim)
    state = 500
    dists = []
    for x in covers[:50]:
        secret, state = steg.random_secret(state, model.secret_dim)
        dists.append(np.linalg.norm(steg.embed(model, x, secret) - x))
    assert np.mean(dists) <= limit


def test_round_trip_rates_on_held_out(trained):
    model, reveal, _, covers = trained
    state = 600
    flagged_container = flagged_cover = 0
    n = 100
    for x in covers[:n]:
        secret, state = steg.random_secret(state, model.secret_dim)
        flagged_container += steg.reveal_detect(reveal, steg.embed(model, x, secret))
        flagged_cover += steg.reveal_detect(reveal, x)
    assert flagged_container / n >= steg.DETECT_THRESHOLD
    assert flagged_cover / n <= steg.FALSE_DETECT_THRESHOLD


def test_training_failure_carries_metrics():
    data = make_blobs(3, 40, 6, 0.06, seed=21)
    weak = mlp.TrainConfig(1e-6, 1, 8, mlp.SeedConfig(31, 32, 33))
    with pytest.raises(TrainingFailureError) as exc:
        steg.train_steg_joint(data, 3, 1.0, weak)
    metrics = exc.value.metrics
    assert {"detect_rate", "false_detect_rate", "mean_distortion"} <= set(metrics)


def test_empty_dataset_is_rejected():
    empty = make_blobs(3, 40, 6, 0.06, seed=21).subset([])
    cfg = mlp.TrainConfig(0.05, 2, 8, mlp.SeedConfig(31, 32, 33))
    with pytest.raises(ParameterError):
        steg.train_steg_joint(empty, 3, 1.0, cfg)


def test_nan_metric_fails_the_thresholds(monkeypatch):
    """A NaN distortion fails, though every comparison with NaN is False."""
    embed = steg.embed_batch

    def nan_embed(model, X, S):
        Z = embed(model, X, S)
        Z[0, 0] = np.nan
        return Z

    monkeypatch.setattr(steg, "embed_batch", nan_embed)
    monkeypatch.setattr(steg, "DETECT_THRESHOLD", 0.0)
    monkeypatch.setattr(steg, "FALSE_DETECT_THRESHOLD", 1.0)
    data = make_blobs(3, 10, 6, 0.06, seed=21)
    cfg = mlp.TrainConfig(0.05, 2, 8, mlp.SeedConfig(31, 32, 33))
    with pytest.raises(TrainingFailureError) as exc:
        steg.train_steg_joint(data, 3, 1.0, cfg)
    assert np.isnan(exc.value.metrics["mean_distortion"])


def test_generate_rejects_blind_reveal(trained):
    # a reveal head pinned to class 0 never flags any container, so every
    # generation attempt (and the resampling wrapper) must fail
    model, reveal, checker, covers = trained
    blind_net = mlp.init_mlp(reveal.model.layer_dims, weight_seed=7)
    blind_net.biases[-1][:] = -50.0
    blind_net.biases[-1][0] = 50.0
    blind = steg.RevealClassifier(blind_net, reveal.message_class)
    secret, _ = steg.random_secret(55, model.secret_dim)
    with pytest.raises(GenerationFailureError):
        steg.generate_message_instance(model, blind, checker, covers[0], secret)
    with pytest.raises(GenerationFailureError):
        steg.draw_message_instance(model, blind, checker, covers[0], 55)


def test_generate_rejects_argmax_change(trained):
    # a checker that separates cover from container by construction: it
    # keys on the exact cover row, so any perturbed container flips it
    model, reveal, checker, covers = trained
    x = covers[0]
    secret, _ = steg.random_secret(56, model.secret_dim)
    z = steg.embed(model, x, secret)
    assert not np.array_equal(z, x)

    probe = mlp.init_mlp((covers.shape[1], 4, checker.n_out), weight_seed=3)
    diff = z - x
    # one linear unit along the embedding direction separates x from z
    probe.weights[0][0, :] = diff / (np.linalg.norm(diff) ** 2)
    probe.biases[0][0] = -float(probe.weights[0][0, :] @ x) - 0.5
    probe.weights[1][:, :] = 0.0
    probe.weights[1][0, 0] = -40.0
    probe.weights[1][1, 0] = 40.0
    probe.biases[1][:] = 0.0
    got_x = int(np.argmax(mlp.forward(probe, x)))
    got_z = int(np.argmax(mlp.forward(probe, z)))
    assert got_x != got_z
    with pytest.raises(GenerationFailureError):
        steg.generate_message_instance(model, reveal, probe, x, secret)


def test_generate_batch_rows_equal_one_row_calls(trained):
    # draw_containers rests on this: a row's container and
    # verdicts do not depend on the rows beside it
    model, reveal, checker, covers = trained
    X = covers[:9]
    flat, _ = uniform_array(57, 9 * model.secret_dim)
    S = flat.reshape(9, model.secret_dim)
    jumpy = mlp.init_mlp(checker.layer_dims, weight_seed=7)
    for w in jumpy.weights:
        w *= 40.0  # so sensitive that some containers change its argmax
    for cheap in (checker, jumpy):
        Z, flagged, kept = steg.generate_message_batch(model, reveal, cheap, X, S)
        assert Z.tobytes() == steg.embed_batch(model, X, S).tobytes()
        for i in range(9):
            z1, f1, k1 = steg.generate_message_batch(model, reveal, cheap,
                                                     X[i:i + 1], S[i:i + 1])
            assert z1[0].tobytes() == Z[i].tobytes()
            assert (f1[0], k1[0]) == (flagged[i], kept[i])
            assert f1[0] == steg.reveal_detect(reveal, Z[i])
    assert not kept.all() and kept.any()
    with pytest.raises(ShapeError):
        steg.generate_message_batch(model, reveal, checker, X[:, 1:], S)
    with pytest.raises(ShapeError):
        steg.generate_message_batch(model, reveal, checker, X, S[:4])


def test_draw_message_instance_deterministic(trained):
    model, reveal, checker, covers = trained
    x = covers[3]
    z1, s1, st1 = steg.draw_message_instance(model, reveal, checker, x, 1234)
    z2, s2, st2 = steg.draw_message_instance(model, reveal, checker, x, 1234)
    assert np.array_equal(z1, z2)
    assert np.array_equal(s1.values, s2.values)
    assert st1 == st2
    assert steg.reveal_detect(reveal, z1)


def test_reveal_validation():
    net = mlp.init_mlp((4, 5, 3), weight_seed=2)
    with pytest.raises(ShapeError):
        steg.RevealClassifier(net, message_class=3)  # needs n_out == mc+1


def test_bundle_save_load_round_trip(trained):
    model, reveal, _, covers = trained
    blob = steg.save_steg_bundle(model, reveal)
    model2, reveal2 = steg.load_steg_bundle(blob)
    assert reveal2.message_class == reveal.message_class
    assert model2.beta == model.beta
    x = covers[0]
    secret, _ = steg.random_secret(31, model.secret_dim)
    assert np.array_equal(steg.embed(model, x, secret),
                          steg.embed(model2, x, secret))
    z = steg.embed(model, x, secret)
    assert steg.reveal_detect(reveal, z) == steg.reveal_detect(reveal2, z)


def test_bundle_rejects_corruption(trained):
    model, reveal, _, _ = trained
    blob = bytearray(steg.save_steg_bundle(model, reveal))
    blob[1] ^= 0xFF
    with pytest.raises(Exception):
        steg.load_steg_bundle(bytes(blob))

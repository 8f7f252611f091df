"""Feature-space steganography: hide a short secret inside an object-class
instance so that a cooperating reveal classifier flags the container as the
reserved message class while ordinary classifiers still see the cover class.

Prep/hide/reveal networks are optimized jointly, by SGD on one parameter
buffer per net, so containers stay close to their covers (L2), carry a
recoverable secret, and are flagged by the reveal net but not by
object-class models.

Containers are made by one generator, `generate_message_batch`, a pure
function of (cover, secret) per row: building a container alone or in a
batch of any size gives the same bytes and the same validity.
`draw_containers` resamples around it in rounds, one batch per round, on a
stream of its own; the verifiers call it once per probe or calibration.
`generate_message_instance` and `draw_message_instance` are the one-row
cases of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import canon
from .data import Dataset
from .errors import (GenerationFailureError, ParameterError, ShapeError,
                     TrainingFailureError)
from .mlp import (LINEAR, SOFTMAX, MlpModel, TrainConfig, Trainable, backward,
                  forward, forward_batch, forward_cached, flat_buffer, init_mlp,
                  load_model, save_model)
from .rng import derive_seed, shuffled_indices, uniform_array

_STEG_MAGIC = b"VSTG"
_STEG_VERSION = 1

# architecture knobs (identical every run: the joint model must be
# reproducible from seeds alone)
_HIDDEN = 32
_ENC_DIM = 8

# convergence thresholds checked by train_steg_joint on its training covers
DETECT_THRESHOLD = 0.9
FALSE_DETECT_THRESHOLD = 0.1
DISTORTION_FACTOR = 0.15  # mean L2 distortion allowed per sqrt(dim)


@dataclass(frozen=True)
class SecretMessage:
    """Fixed-length payload with components in [0,1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or len(v) == 0:
            raise ShapeError("secret must be a nonempty vector")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ParameterError("secret components must lie in [0,1]")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return len(self.values)


def random_secret(state: int, dim: int) -> tuple[SecretMessage, int]:
    vals, state = uniform_array(state, dim)
    return SecretMessage(vals), state


@dataclass
class StegModel:
    """prep_net: secret -> encoding; hide_net: cover ⊕ encoding -> container."""

    prep_net: MlpModel
    hide_net: MlpModel
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ParameterError("beta must be positive")
        if self.hide_net.n_out != self.cover_dim:
            raise ShapeError("hide net must map back to cover dimension")
        if self.hide_net.n_in != self.cover_dim + self.prep_net.n_out:
            raise ShapeError("hide net input must be cover dim + encoding dim")

    @property
    def secret_dim(self) -> int:
        return self.prep_net.n_in

    @property
    def cover_dim(self) -> int:
        return self.hide_net.n_out


@dataclass
class RevealClassifier:
    """n+1-way classifier; index message_class == n is 'container detected'."""

    model: MlpModel
    message_class: int

    def __post_init__(self):
        if self.model.n_out != self.message_class + 1:
            raise ShapeError("reveal output width must be message_class + 1")
        if self.message_class < 2:
            raise ParameterError("need at least two object classes")


def reveal_detect(reveal: RevealClassifier, x) -> bool:
    """True when the message class wins the argmax."""
    probs = forward(reveal.model, x)
    return int(np.argmax(probs)) == reveal.message_class


def embed_batch(steg: StegModel, X: np.ndarray, S: np.ndarray) -> np.ndarray:
    enc = forward_batch(steg.prep_net, S)
    return np.clip(forward_batch(steg.hide_net, np.concatenate([X, enc], axis=1)),
                   0.0, 1.0)


def embed(steg: StegModel, cover, secret: SecretMessage) -> np.ndarray:
    """container = clamp(hide(cover ⊕ prep(secret)), [0,1])."""
    cover = np.asarray(cover, dtype=np.float64)
    if cover.ndim != 1 or len(cover) != steg.cover_dim:
        raise ShapeError(f"cover must have dim {steg.cover_dim}")
    if secret.dim != steg.secret_dim:
        raise ShapeError(f"secret must have dim {steg.secret_dim}")
    return embed_batch(steg, cover[None, :], secret.values[None, :])[0]


def _norm_grad(diff: np.ndarray, scale: float) -> np.ndarray:
    """Row-wise gradient of mean ||diff_i||_2, guarded near zero, written
    over diff. The row norm is np.linalg.norm's expression for real input."""
    norms = np.sqrt(np.add.reduce(diff * diff, 1, keepdims=True))
    diff *= scale
    diff /= np.maximum(norms, 1e-12, out=norms)
    return diff


def train_steg_joint(object_data: Dataset, secret_dim: int, beta: float,
                     cfg: TrainConfig) -> tuple[StegModel, RevealClassifier]:
    """Jointly train prep, hide, and reveal (plus a training-time secret
    decoder head) by SGD on:

        mean ||c - c'||_2  +  beta * mean ||s - s'||_2
        + CE(reveal(c') -> message class)  +  CE(reveal(c) -> true label)

    where c' is the raw hide-net output and s' the decoder's reconstruction
    of the secret from c'. Secrets are drawn fresh for every row from the
    data_seed uniform stream, one draw per epoch in batch order, so the whole
    run is a pure function of (object_data, secret_dim, beta, cfg). Each net
    is a `Trainable`; reveal's two gradient halves are one buffer add.

    After the final epoch the detection/false-detection/distortion metrics
    are measured with the real clamped embed on the training covers; if any
    misses its threshold, or is NaN, a training-failure error carrying those
    metrics is raised instead of returning weak artifacts.
    """
    if object_data.n_classes < 2:
        raise ParameterError("need at least two object classes")
    if len(object_data) == 0:
        raise ParameterError("empty dataset")
    if secret_dim < 1:
        raise ParameterError("secret_dim must be >= 1")
    if beta <= 0:
        raise ParameterError("beta must be positive")

    n = object_data.n_classes
    dim = object_data.dim
    ws = cfg.seed_config.weight_seed
    prep = init_mlp((secret_dim, _HIDDEN, _ENC_DIM), derive_seed(ws, 0), LINEAR)
    hide = init_mlp((dim + _ENC_DIM, _HIDDEN, dim), derive_seed(ws, 1), LINEAR)
    reveal = init_mlp((dim, _HIDDEN, n + 1), derive_seed(ws, 2), SOFTMAX)
    decoder = init_mlp((dim, _HIDDEN, secret_dim), derive_seed(ws, 3), LINEAR)
    nets = [Trainable(m) for m in (prep, hide, reveal, decoder)]
    prep, hide, reveal, decoder = nets
    cover_grad, cover_grads = flat_buffer(reveal.model)

    count = len(object_data)
    bs = cfg.batch_size
    shuffle_state = cfg.seed_config.shuffle_seed
    secret_state = cfg.seed_config.data_seed

    for _ in range(cfg.epochs):
        order, shuffle_state = shuffled_indices(shuffle_state, count)
        inputs, labels = object_data.inputs[order], object_data.labels[order]
        # counter-based: the same values and end state as a draw per batch
        flat, secret_state = uniform_array(secret_state, count * secret_dim)
        secrets = flat.reshape(count, secret_dim)
        for start in range(0, count, bs):
            X, y = inputs[start:start + bs], labels[start:start + bs]
            S = secrets[start:start + bs]
            b = len(X)

            enc, acts_p = forward_cached(prep.model, S)
            Z, acts_h = forward_cached(hide.model,
                                       np.concatenate([X, enc], axis=1))
            S_hat, acts_d = forward_cached(decoder.model, Z)
            dlog_z, acts_rz = forward_cached(reveal.model, Z)
            dlog_x, acts_rx = forward_cached(reveal.model, X)

            # reveal: containers -> message class n, covers -> true label
            dlog_z[:, n] -= 1.0
            dlog_z /= b
            dZ_rev = backward(reveal.model, acts_rz, dlog_z, reveal.grads, True)
            dlog_x[np.arange(b), y] -= 1.0
            dlog_x /= b
            backward(reveal.model, acts_rx, dlog_x, cover_grads)
            reveal.grad += cover_grad

            # decoder: beta-weighted secret reconstruction
            dZ_dec = backward(decoder.model, acts_d, _norm_grad(S_hat - S, beta / b),
                              decoder.grads, True)

            # hide: reconstruction pull plus everything flowing back into Z
            dZ = _norm_grad(Z - X, 1.0 / b) + dZ_rev + dZ_dec
            dXE = backward(hide.model, acts_h, dZ, hide.grads, True)
            backward(prep.model, acts_p, dXE[:, dim:], prep.grads)

            for net in nets:
                net.step(cfg.learning_rate)

    steg = StegModel(prep.model, hide.model, beta)
    reveal_clf = RevealClassifier(reveal.model, message_class=n)

    flat, secret_state = uniform_array(secret_state, count * secret_dim)
    S = flat.reshape(count, secret_dim)
    containers = embed_batch(steg, object_data.inputs, S)
    pred_z = np.argmax(forward_batch(reveal.model, containers), axis=1)
    pred_x = np.argmax(forward_batch(reveal.model, object_data.inputs), axis=1)
    metrics = {
        "detect_rate": float(np.mean(pred_z == n)),
        "false_detect_rate": float(np.mean(pred_x == n)),
        "mean_distortion": float(np.mean(
            np.linalg.norm(containers - object_data.inputs, axis=1))),
    }
    limit = DISTORTION_FACTOR * math.sqrt(dim)
    if not (metrics["detect_rate"] >= DETECT_THRESHOLD
            and metrics["false_detect_rate"] <= FALSE_DETECT_THRESHOLD
            and metrics["mean_distortion"] <= limit):
        raise TrainingFailureError(
            f"joint training missed thresholds (detect >= {DETECT_THRESHOLD}, "
            f"false <= {FALSE_DETECT_THRESHOLD}, distortion <= {limit:.3f})",
            metrics)
    return steg, reveal_clf


def generate_message_batch(steg: StegModel, reveal: RevealClassifier,
                           cheap: MlpModel, X, S
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generator m over rows: container i hides secret S[i] in cover X[i].
    Returns (containers, flagged, kept): `flagged` where reveal puts the
    container in the message class, `kept` where the object classifier
    `cheap` gives container and cover the same argmax. A container is valid
    when both hold. One embed_batch, one reveal forward_batch and one checker
    forward_batch over [Z; X]; the kernel is batch-invariant, so row i's bytes
    and verdicts do not depend on the other rows."""
    X = np.asarray(X, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != steg.cover_dim:
        raise ShapeError(f"cover must have dim {steg.cover_dim}")
    if S.shape != (len(X), steg.secret_dim):
        raise ShapeError(f"secret must have dim {steg.secret_dim}")
    Z = embed_batch(steg, X, S)
    flagged = (np.argmax(forward_batch(reveal.model, Z), axis=1)
               == reveal.message_class)
    pred = np.argmax(forward_batch(cheap, np.concatenate([Z, X])), axis=1)
    return Z, flagged, pred[:len(X)] == pred[len(X):]


def generate_message_instance(steg: StegModel, reveal: RevealClassifier,
                              cheap: MlpModel, x, secret: SecretMessage) -> np.ndarray:
    """Generator m on one cover: embed, then verify the dual property —
    reveal flags the container while the object classifier `cheap` keeps the
    cover's argmax. A single attempt; raises a generation-failure error for
    the caller to resample the secret."""
    x = np.asarray(x, dtype=np.float64)
    Z, flagged, kept = generate_message_batch(steg, reveal, cheap, x[None, :],
                                              secret.values[None, :])
    if not (flagged[0] and kept[0]):
        raise GenerationFailureError(_failure(flagged[0]))
    return Z[0]


def _failure(flagged: bool) -> str:
    """Why a container is invalid; the reveal check comes first."""
    return ("reveal does not flag the container" if not flagged
            else "container changed the object-class argmax")


MAX_SECRET_RESAMPLES = 16


def draw_containers(steg: StegModel, reveal: RevealClassifier,
                    cheap: MlpModel, X, state: int
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """One valid container per cover row of X, drawn in rounds from `state`:
    each round draws a candidate secret for every row still without a
    container, in row order, and checks them all with one
    generate_message_batch. Returns (containers, secrets, state). After
    1 + MAX_SECRET_RESAMPLES rounds it raises a generation failure naming
    the last reason, that of the first row still failing."""
    X = np.asarray(X, dtype=np.float64)
    dim = steg.secret_dim
    Z = np.empty_like(X)
    S = np.empty((len(X), dim))
    pending = np.arange(len(X))
    for _ in range(1 + MAX_SECRET_RESAMPLES):
        flat, state = uniform_array(state, len(pending) * dim)
        secrets = flat.reshape(len(pending), dim)
        Zr, flagged, kept = generate_message_batch(steg, reveal, cheap,
                                                   X[pending], secrets)
        ok = flagged & kept
        Z[pending[ok]], S[pending[ok]] = Zr[ok], secrets[ok]
        if ok.all():
            return Z, S, state
        last = _failure(flagged[np.flatnonzero(~ok)[0]])
        pending = pending[~ok]
    raise GenerationFailureError(
        f"no valid container in {1 + MAX_SECRET_RESAMPLES} attempts: {last}")


def draw_message_instance(steg: StegModel, reveal: RevealClassifier,
                          cheap: MlpModel, x, state: int
                          ) -> tuple[np.ndarray, SecretMessage, int]:
    """draw_containers on one cover: draws secrets from `state` until the
    dual property holds, at most 1 + MAX_SECRET_RESAMPLES attempts."""
    x = np.asarray(x, dtype=np.float64)
    Z, S, state = draw_containers(steg, reveal, cheap, x[None, :], state)
    return Z[0], SecretMessage(S[0]), state


# -- serialization -------------------------------------------------------------
#
# "VSTG" | u16 version | f64 beta | u32 secret_dim | u32 message_class |
# u32 block count (3) | length-prefixed model blobs: prep, hide, reveal.


def save_steg_bundle(steg: StegModel, reveal: RevealClassifier) -> bytes:
    parts = [_STEG_MAGIC, canon.u16(_STEG_VERSION), canon.f64(steg.beta),
             canon.u32(steg.secret_dim), canon.u32(reveal.message_class),
             canon.u32(3)]
    for net in (steg.prep_net, steg.hide_net, reveal.model):
        parts.append(canon.lp_bytes(save_model(net)))
    return b"".join(parts)


def load_steg_bundle(blob: bytes) -> tuple[StegModel, RevealClassifier]:
    if blob[:4] != _STEG_MAGIC:
        raise ParameterError("not a steg bundle (bad magic)")
    version = int.from_bytes(blob[4:6], "little")
    if version != _STEG_VERSION:
        raise ParameterError(f"unsupported steg bundle version {version}")
    beta = np.frombuffer(blob[6:14], dtype="<f8")[0]
    off = 14
    secret_dim = int.from_bytes(blob[off:off + 4], "little"); off += 4
    message_class = int.from_bytes(blob[off:off + 4], "little"); off += 4
    n_blocks = int.from_bytes(blob[off:off + 4], "little"); off += 4
    if n_blocks != 3:
        raise ParameterError(f"expected 3 model blocks, found {n_blocks}")
    nets = []
    for kind in (LINEAR, LINEAR, SOFTMAX):
        ln = int.from_bytes(blob[off:off + 4], "little"); off += 4
        nets.append(load_model(blob[off:off + ln], output_kind=kind))
        off += ln
    if off != len(blob):
        raise ParameterError("trailing bytes in steg bundle")
    if secret_dim != nets[0].n_in:
        raise ParameterError("secret_dim header disagrees with prep net")
    return (StegModel(nets[0], nets[1], float(beta)),
            RevealClassifier(nets[2], message_class))

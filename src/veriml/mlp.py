"""Seeded multilayer perceptron: tanh hidden layers, softmax or linear output.

Everything here is a pure function of its arguments. Weight initialization,
shuffling, and SGD all draw from explicit splitmix64 streams in a fixed
iteration order, so identical (architecture, data, config) reproduce
bit-identical parameter arrays on a given platform. Training is
single-threaded by contract and runs on BLAS matrix products, whose fixed
batch shapes make it deterministic.

Inference (`forward`, `forward_batch`) has a stricter contract: it is
batch-invariant, so a row's output bytes do not depend on which other rows
share its call. Each layer multiplies weights and inputs elementwise, sums
the products strictly left to right over fan_in (`np.add.accumulate`, no
BLAS and no pairwise reduction), then adds the bias; hidden layers apply
tanh. Softmax subtracts the row max, exponentiates and divides by a row sum
that is accumulated left to right the same way. One row, a batch, any
chunking of a batch and any memory layout of the input give the same bytes,
which is what lets the verifiers batch their queries and still compare
answers bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import canon
from .data import Dataset
from .errors import ParameterError, ShapeError
from .rng import shuffled_indices, uniform_array

SOFTMAX = "softmax"
LINEAR = "linear"

_MODEL_MAGIC = b"VMLM"
_MODEL_VERSION = 1


@dataclass(frozen=True)
class SeedConfig:
    """The published seed triple that makes training exactly reproducible."""

    weight_seed: int
    shuffle_seed: int
    data_seed: int

    def canonical_bytes(self) -> bytes:
        return (canon.u64(self.weight_seed) + canon.u64(self.shuffle_seed)
                + canon.u64(self.data_seed))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed_config: SeedConfig

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ParameterError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")

    def canonical_bytes(self) -> bytes:
        return (canon.f64(self.learning_rate) + canon.u64(self.epochs)
                + canon.u64(self.batch_size) + self.seed_config.canonical_bytes())


@dataclass
class MlpModel:
    """Fully-connected net. weights[l] has shape (dims[l+1], dims[l])."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_kind: str = SOFTMAX

    @property
    def n_in(self) -> int:
        return self.layer_dims[0]

    @property
    def n_out(self) -> int:
        return self.layer_dims[-1]


@dataclass
class Grads:
    """Parameter gradients, shaped exactly like the model's parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_mlp(layer_dims, weight_seed: int, output_kind: str = SOFTMAX) -> MlpModel:
    """Seeded init: weights uniform in (-1/sqrt(fan_in), +1/sqrt(fan_in))
    drawn in (layer, row, column) order; biases start at zero."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ParameterError("need at least an input and an output layer")
    if any(d < 1 for d in dims):
        raise ParameterError("layer dims must be positive")
    if output_kind not in (SOFTMAX, LINEAR):
        raise ParameterError(f"unknown output kind {output_kind!r}")

    state = weight_seed
    weights, biases = [], []
    for l in range(len(dims) - 1):
        fan_in = dims[l]
        bound = 1.0 / math.sqrt(fan_in)
        u, state = uniform_array(state, dims[l + 1] * fan_in)
        weights.append(((2.0 * u - 1.0) * bound).reshape(dims[l + 1], fan_in))
        biases.append(np.zeros(dims[l + 1]))
    return MlpModel(dims, weights, biases, output_kind)


def clone_model(model: MlpModel) -> MlpModel:
    return MlpModel(model.layer_dims,
                    [w.copy() for w in model.weights],
                    [b.copy() for b in model.biases],
                    model.output_kind)


def _as_batch(model: MlpModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.n_in:
        raise ShapeError(f"input shape {X.shape} does not match model input "
                         f"{model.n_in}")
    return X


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward_cached(model: MlpModel, X: np.ndarray):
    """Batch forward pass keeping per-layer activations for backprop.

    Returns (out, activations); ``out`` is class probabilities for softmax
    models and the raw last-layer output for linear ones. activations[0] is
    the input batch, activations[l] the l-th hidden tanh output.
    """
    X = _as_batch(model, X)
    acts = [X]
    a = X
    last = len(model.weights) - 1
    for l in range(last):
        a = np.tanh(a @ model.weights[l].T + model.biases[l])
        acts.append(a)
    out = a @ model.weights[last].T + model.biases[last]
    if model.output_kind == SOFTMAX:
        out = _softmax_rows(out)
    return out, acts


def backward(model: MlpModel, acts, d_last: np.ndarray):
    """Backpropagate through cached activations.

    ``d_last`` is the gradient at the last layer's pre-activation: for
    softmax models that is logit space (softmax+loss gradients are the
    caller's job, e.g. probs - onehot for cross-entropy); for linear models
    it is simply the gradient of the output. Returns (Grads, d_input).
    """
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    d = d_last
    for l in range(len(model.weights) - 1, -1, -1):
        gw[l] = d.T @ acts[l]
        gb[l] = d.sum(axis=0)
        if l > 0:
            d = (d @ model.weights[l]) * (1.0 - acts[l] ** 2)
        else:
            d = d @ model.weights[l]
    return Grads(gw, gb), d


# rows per evaluation block: bounds the (rows, n_out, n_in) product array;
# batch invariance keeps it out of the output bits
_BLOCK_ROWS = 64


def _infer(model: MlpModel, a: np.ndarray) -> np.ndarray:
    """The batch-invariant kernel on (..., n_in) input."""
    for l, w in enumerate(model.weights):
        if l:
            a = np.tanh(a)
        a = np.add.accumulate(w * a[..., None, :], -1)[..., -1] + model.biases[l]
    if model.output_kind == SOFTMAX:
        # the row max is exact in any order; maximum.accumulate is the
        # cheaper call on one row
        e = np.exp(a - np.maximum.accumulate(a, -1)[..., -1:])
        a = e / np.add.accumulate(e, -1)[..., -1:]
    return a


def forward_batch(model: MlpModel, X) -> np.ndarray:
    """Rows of X -> rows of outputs; row i equals forward(model, X[i])
    byte for byte."""
    X = _as_batch(model, X)
    if len(X) <= _BLOCK_ROWS:
        return _infer(model, X)
    return np.concatenate([_infer(model, X[i:i + _BLOCK_ROWS])
                           for i in range(0, len(X), _BLOCK_ROWS)])


def forward(model: MlpModel, x) -> np.ndarray:
    """Single input -> probability vector (softmax) or raw output (linear)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_in,):
        raise ShapeError(f"forward takes one input of dim {model.n_in}, "
                         f"got shape {x.shape}")
    return _infer(model, x)


def _onehot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def gradient(model: MlpModel, x, label: int) -> Grads:
    """Exact gradient of -log(probs[label]) w.r.t. every weight and bias."""
    if model.output_kind != SOFTMAX:
        raise ParameterError("cross-entropy gradient needs a softmax model")
    if not 0 <= label < model.n_out:
        raise ParameterError(f"label {label} out of range for {model.n_out} classes")
    probs, acts = forward_cached(model, x)
    dlogits = probs.copy()
    dlogits[0, label] -= 1.0
    grads, _ = backward(model, acts, dlogits)
    return grads


def input_gradient(model: MlpModel, x, target: int) -> np.ndarray:
    """Exact gradient of log(probs[target]) w.r.t. the input vector."""
    if model.output_kind != SOFTMAX:
        raise ParameterError("input gradient is defined on softmax models")
    if not 0 <= target < model.n_out:
        raise ParameterError(f"target {target} out of range for {model.n_out} classes")
    probs, acts = forward_cached(model, x)
    dlogits = -probs.copy()
    dlogits[0, target] += 1.0
    _, dx = backward(model, acts, dlogits)
    return dx[0]


def apply_sgd(model: MlpModel, grads: Grads, lr: float) -> None:
    """In-place plain SGD step."""
    for w, gw in zip(model.weights, grads.weights):
        w -= lr * gw
    for b, gb in zip(model.biases, grads.biases):
        b -= lr * gb


def train_sgd(model: MlpModel, data: Dataset, cfg: TrainConfig,
              adversarial_epsilon: float = 0.0) -> MlpModel:
    """Mini-batch SGD on mean cross-entropy; returns a new trained model.

    The shuffle order comes from cfg.seed_config.shuffle_seed and batches are
    consumed in that order, so the result is bit-reproducible. With
    adversarial_epsilon > 0 each batch is replaced by its FGSM perturbation
    (x + eps * sign(d loss/d x), clamped to [0,1]) before the update, which
    hardens the model against the gradient-sign attacks in the robustness
    benchmark.
    """
    if model.output_kind != SOFTMAX:
        raise ParameterError("train_sgd trains softmax classifiers")
    if data.dim != model.n_in:
        raise ShapeError(f"data dim {data.dim} != model input {model.n_in}")
    if data.n_classes != model.n_out:
        raise ShapeError(f"{data.n_classes} classes != model output {model.n_out}")
    if len(data) == 0:
        raise ParameterError("empty dataset")

    out = clone_model(model)
    n = len(data)
    state = cfg.seed_config.shuffle_seed
    for _ in range(cfg.epochs):
        order, state = shuffled_indices(state, n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            X = data.inputs[batch]
            y = data.labels[batch]
            if adversarial_epsilon > 0.0:
                probs, acts = forward_cached(out, X)
                dlogits = (probs - _onehot(y, out.n_out)) / len(batch)
                _, dx = backward(out, acts, dlogits)
                X = np.clip(X + adversarial_epsilon * np.sign(dx), 0.0, 1.0)
            probs, acts = forward_cached(out, X)
            dlogits = (probs - _onehot(y, out.n_out)) / len(batch)
            grads, _ = backward(out, acts, dlogits)
            apply_sgd(out, grads, cfg.learning_rate)
    return out


def accuracy(model: MlpModel, data: Dataset) -> float:
    """Fraction of samples whose argmax matches the label. np.argmax breaks
    ties toward the lowest class index."""
    if len(data) == 0:
        raise ParameterError("accuracy of an empty dataset is undefined")
    probs = forward_batch(model, data.inputs)
    pred = np.argmax(probs, axis=1)
    return float(np.mean(pred == data.labels))


# -- serialization ------------------------------------------------------------
#
# Layout: magic "VMLM", u16 version, u16 layer count, u32 per dim, then per
# layer the weight matrix in (row, column) order followed by the bias vector,
# all little-endian binary64. The output kind is contextual: standalone
# models are classifiers; the steg container format restores its linear nets.


def save_model(model: MlpModel) -> bytes:
    parts = [_MODEL_MAGIC, canon.u16(_MODEL_VERSION), canon.u16(len(model.layer_dims))]
    parts += [canon.u32(d) for d in model.layer_dims]
    for w, b in zip(model.weights, model.biases):
        parts.append(canon.vec(w))
        parts.append(canon.vec(b))
    return b"".join(parts)


def load_model(blob: bytes, output_kind: str = SOFTMAX) -> MlpModel:
    if blob[:4] != _MODEL_MAGIC:
        raise ParameterError("not a model blob (bad magic)")
    version = int.from_bytes(blob[4:6], "little")
    if version != _MODEL_VERSION:
        raise ParameterError(f"unsupported model version {version}")
    n_layers = int.from_bytes(blob[6:8], "little")
    off = 8
    dims = []
    for _ in range(n_layers):
        dims.append(int.from_bytes(blob[off:off + 4], "little"))
        off += 4
    dims = tuple(dims)
    weights, biases = [], []
    for l in range(len(dims) - 1):
        wn = dims[l + 1] * dims[l] * 8
        w = np.frombuffer(blob[off:off + wn], dtype="<f8").reshape(dims[l + 1], dims[l])
        off += wn
        bn = dims[l + 1] * 8
        b = np.frombuffer(blob[off:off + bn], dtype="<f8")
        off += bn
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    if off != len(blob):
        raise ParameterError("trailing bytes in model blob")
    return MlpModel(dims, weights, biases, output_kind)

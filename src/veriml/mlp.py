"""Seeded multilayer perceptron: tanh hidden layers, softmax or linear output.

Everything here is a pure function of its arguments. Weight initialization,
shuffling, and SGD all draw from explicit splitmix64 streams in a fixed
iteration order, so identical (architecture, data, config) reproduce
bit-identical parameter arrays on a given platform. Training is
single-threaded by contract and runs on BLAS matrix products, whose fixed
batch shapes make it deterministic; a net under training keeps its
parameters and its gradients in one flat buffer each (`Trainable`).

Inference (`forward`, `forward_batch`) has a stricter contract: it is
batch-invariant, so a row's output bytes do not depend on which other rows
share its call. Each layer multiplies weights and inputs elementwise into a
C-ordered product array with fan_in as its outer axis, and `np.add.reduce`
over that axis adds the products strictly left to right, one elementwise
add per input (no BLAS and no pairwise reduction); then it adds the bias,
and hidden layers apply tanh. Softmax subtracts the row max, exponentiates
and divides by a row sum accumulated left to right (`np.add.accumulate`).
One row, a batch, any chunking of a batch and any memory layout of the input
give the same bytes, which is what lets the verifiers batch their queries
and still compare answers bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

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


def _as_batch(model: MlpModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.n_in:
        raise ShapeError(f"input shape {X.shape} does not match model input "
                         f"{model.n_in}")
    return X


def forward_cached(model: MlpModel, X: np.ndarray):
    """Batch forward pass keeping per-layer activations for backprop, on a
    checked (rows, n_in) float64 batch; bias, tanh and softmax work in place.

    Returns (out, activations); ``out`` is class probabilities for softmax
    models and the raw last-layer output for linear ones. activations[0] is
    the input batch, activations[l] the l-th hidden tanh output.
    """
    acts = [X]
    a = X
    last = len(model.weights) - 1
    for l in range(last):
        a = a @ model.weights[l].T
        a += model.biases[l]
        acts.append(np.tanh(a, out=a))
    out = a @ model.weights[last].T
    out += model.biases[last]
    if model.output_kind == SOFTMAX:
        out -= out.max(axis=1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=1, keepdims=True)
    return out, acts


def backward(model: MlpModel, acts, d_last: np.ndarray,
             grads: Grads | None = None, input_grad: bool = False):
    """Backpropagate through cached activations.

    ``d_last`` is the gradient at the last layer's pre-activation: for
    softmax models that is logit space (softmax+loss gradients are the
    caller's job, e.g. probs - onehot for cross-entropy); for linear models
    it is simply the gradient of the output. Writes the parameter gradients
    into ``grads`` unless it is None; returns the input's gradient if
    ``input_grad``, else None.
    """
    d = d_last
    for l in range(len(model.weights) - 1, -1, -1):
        if grads is not None:
            np.dot(d.T, acts[l], out=grads.weights[l])
            np.add.reduce(d, 0, out=grads.biases[l])
        if l:
            d = d @ model.weights[l]
            d *= 1.0 - np.square(acts[l])
        elif input_grad:
            return d @ model.weights[0]
    return None


def flat_buffer(model: MlpModel) -> tuple[np.ndarray, Grads]:
    """An uninitialised float64 buffer of the model's size, and views into
    it shaped like its weights, then its biases."""
    arrays = model.weights + model.biases
    ends = list(accumulate(a.size for a in arrays))
    buf = np.empty(ends[-1])
    views = [buf[e - a.size:e].reshape(a.shape) for a, e in zip(arrays, ends)]
    return buf, Grads(views[:len(model.weights)], views[len(model.weights):])


class Trainable:
    """A copy of a net under training. Its weights and biases are views into
    one flat buffer, ``params``; ``grads`` are views into ``grad``, a buffer
    with the same layout, which `backward` fills."""

    def __init__(self, model: MlpModel):
        self.params, p = flat_buffer(model)
        for view, a in zip(p.weights + p.biases, model.weights + model.biases):
            view[...] = a
        self.model = replace(model, weights=p.weights, biases=p.biases)
        self.grad, self.grads = flat_buffer(model)

    def step(self, lr: float) -> None:
        """Plain SGD, two ufuncs over the buffers. IEEE multiplication
        commutes, so each parameter gets the bits of w -= lr * g."""
        self.grad *= lr
        self.params -= self.grad


# rows per evaluation block: bounds the product array, whose outer axis is
# fan_in and whose two inner axes are the block's rows and the layer's
# outputs; batch invariance keeps it out of the output bits
_BLOCK_ROWS = 256


def _sum_inputs(P: np.ndarray) -> np.ndarray:
    """P summed over its outer axis, strictly left to right: for a C-ordered
    P, numpy's reduction is one elementwise add per outer index."""
    if P.size == len(P):
        # a single-element block: numpy would fold this reduction into its
        # pairwise inner-loop sum, so take the running sum instead
        return np.add.accumulate(P, 0)[-1]
    # numpy starts an add reduction from +0.0, which turns a sum of -0.0
    # products into +0.0; -0.0 is the exact identity
    return np.add.reduce(P, 0, initial=-0.0)


def _infer(model: MlpModel, a: np.ndarray) -> np.ndarray:
    """The batch-invariant kernel on (rows, n_in) input, or on (n_in,) input,
    which is what a block of one row is evaluated as.

    A layer's products form a C-ordered array with fan_in on its outer axis:
    (n_in, n_out) for one row, else (n_in, n_out, rows), or (n_in, rows,
    n_out) when the outputs outnumber the rows, so the inner loop runs over
    the longer axis. Summing over the outer axis adds one elementwise
    product per input, strictly left to right; IEEE multiplication commutes,
    so the bits are those of a running sum of w * a along fan_in."""
    block = a.ndim == 2 and len(a) == 1
    if block:
        a = a[0]
    for l, w in enumerate(model.weights):
        if l:
            a = np.tanh(np.add(a, model.biases[l - 1], out=a), out=a)
        if a.ndim == 1:
            a = _sum_inputs(np.multiply(a[:, None], w.T, order="C"))
        elif len(a) >= len(w):
            a = _sum_inputs(np.multiply(w.T[:, :, None], a.T[:, None, :],
                                        order="C")).T
        else:
            a = _sum_inputs(np.multiply(a.T[:, :, None], w.T[:, None, :],
                                        order="C"))
    a = np.add(a, model.biases[-1], order="C")
    if model.output_kind == SOFTMAX:
        # the row max is exact in any order; maximum.accumulate is the
        # cheaper call on one row
        e = np.exp(a - np.maximum.accumulate(a, -1)[..., -1:])
        a = e / np.add.accumulate(e, -1)[..., -1:]
    return a[None, :] if block else a


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


def gradient(model: MlpModel, x, label: int) -> Grads:
    """Exact gradient of -log(probs[label]) w.r.t. every weight and bias."""
    if model.output_kind != SOFTMAX:
        raise ParameterError("cross-entropy gradient needs a softmax model")
    if not 0 <= label < model.n_out:
        raise ParameterError(f"label {label} out of range for {model.n_out} classes")
    dlogits, acts = forward_cached(model, _as_batch(model, x))
    dlogits[0, label] -= 1.0
    _, grads = flat_buffer(model)
    backward(model, acts, dlogits, grads)
    return grads


def input_gradient(model: MlpModel, x, target: int) -> np.ndarray:
    """Exact gradient of log(probs[target]) w.r.t. the input vector."""
    if model.output_kind != SOFTMAX:
        raise ParameterError("input gradient is defined on softmax models")
    if not 0 <= target < model.n_out:
        raise ParameterError(f"target {target} out of range for {model.n_out} classes")
    probs, acts = forward_cached(model, _as_batch(model, x))
    dlogits = np.negative(probs, out=probs)
    dlogits[0, target] += 1.0
    return backward(model, acts, dlogits, input_grad=True)[0]


def train_sgd(model: MlpModel, data: Dataset, cfg: TrainConfig,
              adversarial_epsilon: float = 0.0) -> MlpModel:
    """Mini-batch SGD on mean cross-entropy; returns a new trained model.

    The shuffle order comes from cfg.seed_config.shuffle_seed and batches are
    consumed in that order, so the result is bit-reproducible. Each epoch
    gathers its shuffled rows once; each step fills the net's one gradient
    buffer and updates its one parameter buffer (`Trainable`). With
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

    net = Trainable(model)
    n = len(data)
    bs = cfg.batch_size
    state = cfg.seed_config.shuffle_seed
    rows = np.arange(min(n, bs))

    def loss_grad(X, y, grads, input_grad):
        # probs - onehot(y), averaged over the batch; p - 0.0 == p, so
        # subtracting 1.0 at each label alone gives the same bits
        probs, acts = forward_cached(net.model, X)
        probs[rows[:len(y)], y] -= 1.0
        probs /= len(y)
        return backward(net.model, acts, probs, grads, input_grad)

    for _ in range(cfg.epochs):
        order, state = shuffled_indices(state, n)
        inputs, labels = data.inputs[order], data.labels[order]
        for start in range(0, n, bs):
            X, y = inputs[start:start + bs], labels[start:start + bs]
            if adversarial_epsilon > 0.0:
                dx = loss_grad(X, y, None, True)
                X = np.clip(X + adversarial_epsilon * np.sign(dx), 0.0, 1.0)
            loss_grad(X, y, net.grads, False)
            net.step(cfg.learning_rate)
    return net.model


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

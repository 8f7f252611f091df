"""Synthetic datasets: seeded Gaussian blobs in the unit hypercube."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import gauss_of, uniform_array


@dataclass
class Dataset:
    """Parallel (inputs, labels) arrays; inputs live in [0,1]^dim."""

    inputs: np.ndarray  # (n, dim) float64
    labels: np.ndarray  # (n,) int64
    n_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or len(self.inputs) != len(self.labels):
            raise ParameterError("inputs and labels must be parallel 2-D/1-D arrays")
        if self.n_classes < 1:
            raise ParameterError("n_classes must be positive")
        if len(self.labels) and int(self.labels.max()) >= self.n_classes:
            raise ParameterError("label out of range for n_classes")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.inputs[idx], self.labels[idx], self.n_classes)


def split_per_class(data: Dataset, train_per_class: int) -> tuple[Dataset, Dataset]:
    """Split a class-major dataset into (train, held-out) with the first
    ``train_per_class`` rows of every class going to train. Both halves keep
    the class-major ordering, so the split is deterministic."""
    per = len(data) // data.n_classes
    if not 0 < train_per_class < per:
        raise ParameterError(f"train_per_class must be in (0, {per})")
    train_idx, held_idx = [], []
    for c in range(data.n_classes):
        base = c * per
        train_idx.extend(range(base, base + train_per_class))
        held_idx.extend(range(base + train_per_class, base + per))
    return data.subset(train_idx), data.subset(held_idx)


@dataclass(frozen=True)
class BlobRecipe:
    """Everything needed to regenerate a blob dataset from scratch — the
    published data recipe a verifier retrains from."""

    n_classes: int
    n_per_class: int
    dim: int
    spread: float
    seed: int

    def build(self) -> Dataset:
        """The recipe's pool, built once per process (the last 16 recipes
        are kept). Its arrays are read-only: callers share one pool."""
        return _pool(self)

    def canonical_bytes(self) -> bytes:
        from . import canon
        return (canon.u32(self.n_classes) + canon.u32(self.n_per_class)
                + canon.u32(self.dim) + canon.f64(self.spread)
                + canon.u64(self.seed))


@functools.lru_cache(maxsize=16)
def _pool(recipe: BlobRecipe) -> Dataset:
    data = make_blobs(recipe.n_classes, recipe.n_per_class, recipe.dim,
                      recipe.spread, recipe.seed)
    data.inputs.flags.writeable = False
    data.labels.flags.writeable = False
    return data


def make_blobs(n_classes: int, n_per_class: int, dim: int, spread: float,
               seed: int) -> Dataset:
    """Isotropic Gaussian blobs, one cluster per class.

    Class centers are drawn uniformly in [0.2, 0.8]^dim; each point is its
    center plus N(0, spread) per coordinate, clamped back into [0, 1]. The
    draw order (centers by class then coordinate, points by class, sample,
    coordinate) is fixed, so the dataset is a pure function of the seed.

    Each normal is `rng_gauss`'s Box-Muller pair of uniforms, evaluated a
    class block at a time by `gauss_of` with the same bits.
    """
    if n_classes < 2:
        raise ParameterError("n_classes must be >= 2")
    if dim < 2:
        raise ParameterError("dim must be >= 2")
    if not 0 < spread < math.inf:
        raise ParameterError("spread must be finite and > 0")
    if n_per_class < 1:
        raise ParameterError("n_per_class must be >= 1")

    u, state = uniform_array(seed, n_classes * dim)
    centers = (0.2 + 0.6 * u).reshape(n_classes, dim)

    block = n_per_class * dim
    inputs = np.empty((n_classes * n_per_class, dim))
    for c in range(n_classes):
        u, state = uniform_array(state, 2 * block)
        g = gauss_of(u[0::2], u[1::2]).reshape(n_per_class, dim)
        x = centers[c] + spread * g
        # min(1.0, max(0.0, x)) exactly, NaN included
        x = np.where(x > 0.0, x, 0.0)
        inputs[c * n_per_class:(c + 1) * n_per_class] = np.where(x < 1.0, x, 1.0)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    return Dataset(inputs, labels, n_classes)

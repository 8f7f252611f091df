"""The checksummed, content-addressed fixture cache and the one seeded
trainer behind it. A model's key digests every training input and training is
bit-deterministic, so a cache hit *is* the retrain from those seeds. Pure
results measured on cached fixtures (the steg calibration rates, the
supplier's training accuracy) are stored beside them as fixed float tuples."""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from pathlib import Path

from . import canon
from .data import BlobRecipe, split_per_class
from .mlp import (SOFTMAX, MlpModel, TrainConfig, init_mlp, load_model,
                  save_model, train_sgd)


def cache_dir() -> Path:
    override = os.environ.get("VERIML_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "veriml"


def _cache_fetch(key: bytes) -> bytes | None:
    """The blob stored under `key`, or None if there is none or its
    SHA-256 does not match (a corrupt entry is never handed to a loader)."""
    path = cache_dir() / (key.hex() + ".bin")
    try:
        entry = path.read_bytes()
    except OSError:
        return None
    digest, blob = entry[:32], entry[32:]
    return blob if hashlib.sha256(blob).digest() == digest else None


def _cache_store(key: bytes, blob: bytes) -> None:
    """Write `sha256(blob) || blob` atomically under `key`."""
    root = cache_dir()
    try:
        root.mkdir(parents=True, exist_ok=True)
        # one temp file per writer, so concurrent or crashed writers never collide
        fd, tmp = tempfile.mkstemp(dir=root, prefix=key.hex() + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(hashlib.sha256(blob).digest() + blob)
            os.replace(tmp, root / (key.hex() + ".bin"))
        except OSError:
            os.unlink(tmp)
            raise
    except OSError:
        pass  # a cold cache only costs retraining time


def _cached(key: bytes, load, build, save):
    """`load` the cache entry for `key`; on a miss, or an entry that fails its
    checksum or that `load` rejects (stale format), `build` a fresh value and
    store `save(value)` in its place."""
    blob = _cache_fetch(key)
    if blob is not None:
        try:
            return load(blob)
        except Exception:
            pass  # fall through and rebuild
    value = build()
    _cache_store(key, save(value))
    return value


def _cached_f64s(key: bytes, count: int, build) -> tuple[float, ...]:
    """`count` floats stored as little-endian f64 under `key`; `build()`
    computes them on a miss. A blob of another length or holding a
    non-finite value is rebuilt like a corrupt one."""
    fmt = f"<{count}d"

    def load(blob: bytes) -> tuple[float, ...]:
        values = struct.unpack(fmt, blob)
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite cached value")
        return values

    return _cached(key, load, lambda: tuple(map(float, build())),
                   lambda values: struct.pack(fmt, *values))


def _arch_bytes(arch: tuple[int, ...]) -> bytes:
    return canon.u16(len(arch)) + b"".join(canon.u32(d) for d in arch)


def _model_cache_key(arch: tuple[int, ...], tcfg: TrainConfig,
                     recipe: BlobRecipe, train_per_class: int, stride: int,
                     adversarial_epsilon: float) -> bytes:
    return canon.sha256(b"model.v1" + _arch_bytes(arch) + tcfg.canonical_bytes()
                        + recipe.canonical_bytes() + canon.u32(train_per_class)
                        + canon.u32(stride) + canon.f64(adversarial_epsilon))


def trained_model(arch: tuple[int, ...], tcfg: TrainConfig, recipe: BlobRecipe,
                  train_per_class: int, stride: int = 1,
                  adversarial_epsilon: float = 0.0) -> MlpModel:
    """The model SGD makes from `init_mlp(arch, weight_seed)` on the first
    `train_per_class` rows of every class of `recipe`, every `stride`-th row
    of those. The data is only built on a cache miss."""
    key = _model_cache_key(arch, tcfg, recipe, train_per_class, stride,
                           adversarial_epsilon)

    def train() -> MlpModel:
        data = recipe.build()
        if train_per_class < recipe.n_per_class:
            data, _ = split_per_class(data, train_per_class)
        if stride > 1:
            data = data.subset(range(0, len(data), stride))
        return train_sgd(init_mlp(arch, tcfg.seed_config.weight_seed), data,
                         tcfg, adversarial_epsilon=adversarial_epsilon)

    return _cached(key, lambda blob: load_model(blob, SOFTMAX), train, save_model)


# shared_model's per-process copies, oldest first
_shared_models: dict[bytes, MlpModel] = {}
_SHARED_KEPT = 16


def shared_model(arch: tuple[int, ...], tcfg: TrainConfig, recipe: BlobRecipe,
                 train_per_class: int) -> MlpModel:
    """`trained_model(arch, tcfg, recipe, train_per_class)`, loaded once per
    process per cache key (the last 16 keys are kept). Its arrays are
    read-only: callers share one model."""
    key = _model_cache_key(arch, tcfg, recipe, train_per_class, 1, 0.0)
    model = _shared_models.pop(key, None)
    if model is None:
        model = trained_model(arch, tcfg, recipe, train_per_class)
        for array in model.weights + model.biases:
            array.flags.writeable = False
    _shared_models[key] = model
    if len(_shared_models) > _SHARED_KEPT:
        del _shared_models[next(iter(_shared_models))]
    return model

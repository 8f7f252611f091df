"""Simulated service actors: the trusted supplier, a family of honest and
cheating providers sitting between client and supplier, and the keyed
certificates ("metaresults") that make supplier answers unforgeable.

All classification and latency behavior is driven by explicit rng states
threaded through the calls, so any interaction sequence replays exactly.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

import numpy as np

from . import canon
from .errors import ParameterError, ShapeError
from .mlp import MlpModel, SeedConfig, TrainConfig, forward
from .rng import mix64, rng_bytes, rng_gauss, rng_next, rng_uniform
from .steg import RevealClassifier

HONEST_PASSTHROUGH = "HonestPassthrough"
SUBSTITUTE_MODEL = "SubstituteModel"
PARTIAL_CHEAT = "PartialCheat"
CACHED_REPLAY = "CachedReplay"
NOISY_PASSTHROUGH = "NoisyPassthrough"

PROVIDER_KINDS = (HONEST_PASSTHROUGH, SUBSTITUTE_MODEL, PARTIAL_CHEAT,
                  CACHED_REPLAY, NOISY_PASSTHROUGH)


@dataclass(frozen=True)
class LatencyModel:
    """Simulated response time: base plus keyed jitter, never wall-clock."""

    base_ms: float = 0.0
    jitter_ms: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.base_ms < 0 or self.jitter_ms < 0:
            raise ParameterError("latency parameters must be >= 0")

    def sample(self, rng: int) -> tuple[float, int]:
        """Draw one latency in [base_ms, base_ms + jitter_ms]. The model's
        own seed is mixed into the shared stream so two models fed the same
        stream still jitter independently."""
        v, rng = rng_next(rng)
        u = (mix64(v ^ self.seed) >> 11) * 2.0 ** -53
        return self.base_ms + self.jitter_ms * u, rng


@dataclass(frozen=True)
class Certificate:
    nonce: bytes
    tag: bytes

    def __post_init__(self):
        if len(self.nonce) != 16:
            raise ParameterError("nonce must be 16 bytes")
        if len(self.tag) != 32:
            raise ParameterError("tag must be 32 bytes")

    def hex(self) -> str:
        return (self.nonce + self.tag).hex()


@dataclass(frozen=True)
class Response:
    probs: np.ndarray
    certificate: Certificate | None
    latency_ms: float

    def __post_init__(self):
        if self.latency_ms < 0:
            raise ParameterError("latency_ms must be >= 0")


@dataclass(frozen=True)
class SeedPublication:
    """What a supplier publishes so anyone can retrain its model bit-exactly."""

    seed_config: SeedConfig
    train_config: TrainConfig
    architecture: tuple[int, ...]

    def __post_init__(self):
        if self.train_config.seed_config != self.seed_config:
            raise ParameterError("published seed config disagrees with train config")
        if len(self.architecture) < 2:
            raise ParameterError("architecture needs >= 2 layers")


@dataclass
class Supplier:
    """The trusted service: a trained classifier, optionally wrapped with a
    steg reveal head, seed publication, and a certificate MAC key."""

    model: MlpModel
    reveal: RevealClassifier | None = None
    seed_publication: SeedPublication | None = None
    mac_key: bytes | None = None
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self):
        if self.reveal is not None and self.reveal.message_class != self.model.n_out:
            raise ParameterError("reveal object classes disagree with model classes")
        if self.mac_key is not None and len(self.mac_key) != 32:
            raise ParameterError("mac_key must be 32 bytes")


@dataclass
class Provider:
    """The intermediary under test. `kind` selects honest pass-through or one
    of the cheating strategies; everything else is per-kind configuration."""

    kind: str
    backend: Supplier
    cheap_model: MlpModel | None = None
    cheat_rate: float = 0.0
    cache: dict = field(default_factory=dict)
    noise_sigma: float = 0.0
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self):
        if self.kind not in PROVIDER_KINDS:
            raise ParameterError(f"unknown provider kind {self.kind!r}")
        if self.kind in (SUBSTITUTE_MODEL, PARTIAL_CHEAT) and self.cheap_model is None:
            raise ParameterError(f"{self.kind} requires a cheap_model")
        # rate 0 degenerates to pass-through and 1 to a full substitute; both
        # ends stay legal so sweeps over the full range need no special cases
        if self.kind == PARTIAL_CHEAT and not 0.0 <= self.cheat_rate <= 1.0:
            raise ParameterError("PartialCheat requires cheat_rate in [0, 1]")
        if self.kind == NOISY_PASSTHROUGH and self.noise_sigma <= 0.0:
            raise ParameterError("NoisyPassthrough requires noise_sigma > 0")


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()


def _cert_message(x: np.ndarray, probs: np.ndarray, nonce: bytes) -> bytes:
    return canon.vec(x) + canon.vec(probs) + nonce


def issue_certificate(key: bytes, x, probs, nonce: bytes) -> Certificate:
    """tag = HMAC-SHA-256(key, bytes(x) || bytes(probs) || nonce)."""
    x = np.asarray(x, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    return Certificate(nonce, hmac_sha256(key, _cert_message(x, probs, nonce)))


def verify_certificate(key: bytes, x, probs, cert: Certificate | None) -> bool:
    """Recompute-and-compare, constant-time on the tag."""
    if cert is None or len(cert.tag) != 32:
        return False
    x = np.asarray(x, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    expected = hmac_sha256(key, _cert_message(x, probs, cert.nonce))
    return hmac.compare_digest(expected, cert.tag)


def supplier_classify(s: Supplier, x, rng: int) -> tuple[Response, int]:
    """Answer one query: reveal head when present (n+1 classes), the plain
    model otherwise; certificate attached when the supplier holds a MAC key."""
    x = np.asarray(x, dtype=np.float64)
    head = s.reveal.model if s.reveal is not None else s.model
    if x.ndim != 1 or len(x) != head.n_in:
        raise ShapeError(f"query dim {x.shape} does not match model input {head.n_in}")
    probs = forward(head, x)
    cert = None
    if s.mac_key is not None:
        nonce, rng = rng_bytes(rng, 16)
        cert = issue_certificate(s.mac_key, x, probs, nonce)
    latency, rng = s.latency.sample(rng)
    return Response(probs, cert, latency), rng


def _cheat_answer(p: Provider, x: np.ndarray, rng: int) -> tuple[Response, int]:
    """Substitute-path answer: the cheap model's output, a forged (random)
    certificate whenever the honest path would carry a real one, and the
    provider's own latency."""
    probs = forward(p.cheap_model, x)
    cert = None
    if p.backend.mac_key is not None:
        nonce, rng = rng_bytes(rng, 16)
        tag, rng = rng_bytes(rng, 32)
        cert = Certificate(nonce, tag)
    latency, rng = p.latency.sample(rng)
    return Response(probs, cert, latency), rng


def provider_classify(p: Provider, x, rng: int) -> tuple[Response, int]:
    """One query against the provider. Honest pass-through is byte-identical
    to asking the supplier directly with the same rng state."""
    x = np.asarray(x, dtype=np.float64)

    if p.kind == HONEST_PASSTHROUGH:
        return supplier_classify(p.backend, x, rng)

    if p.kind == SUBSTITUTE_MODEL:
        return _cheat_answer(p, x, rng)

    if p.kind == PARTIAL_CHEAT:
        u, rng = rng_uniform(rng)
        if u < p.cheat_rate:
            return _cheat_answer(p, x, rng)
        return supplier_classify(p.backend, x, rng)

    if p.kind == CACHED_REPLAY:
        digest = canon.sha256(canon.vec(x))
        hit = p.cache.get(digest)
        if hit is not None:
            return hit, rng
        resp, rng = supplier_classify(p.backend, x, rng)
        p.cache[digest] = resp
        return resp, rng

    # NoisyPassthrough: perturb the supplier's probabilities, clamp to [0,1],
    # renormalize by the sum; the original certificate rides along and is now
    # invalid for the altered vector.
    resp, rng = supplier_classify(p.backend, x, rng)
    noisy = resp.probs.copy()
    for i in range(len(noisy)):
        g, rng = rng_gauss(rng)
        noisy[i] += p.noise_sigma * g
    noisy = np.clip(noisy, 0.0, 1.0)
    total = noisy.sum()
    probs = noisy / total if total > 0 else np.full(len(noisy), 1.0 / len(noisy))
    return Response(probs, resp.certificate, resp.latency_ms), rng

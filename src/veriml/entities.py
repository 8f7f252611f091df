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
from .mlp import MlpModel, SeedConfig, TrainConfig, forward_batch
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


class _Query:
    """One planned query: the rng draws are taken, so all its answer still
    needs is the model's output on x. `response` is set once answered (at
    planning time for a replay-cache hit); `store` is the replay cache that
    holds this query under `digest` until then."""

    __slots__ = ("x", "model", "key", "nonce", "tag", "latency", "noise",
                 "store", "digest", "response")

    def __init__(self, x: np.ndarray, model: MlpModel | None = None,
                 response: Response | None = None):
        self.x = x
        self.model = model
        self.key = self.nonce = self.tag = self.noise = None
        self.store = self.digest = None
        self.latency = 0.0
        self.response = response


def _query_for(model: MlpModel, x: np.ndarray) -> _Query:
    if x.ndim != 1 or len(x) != model.n_in:
        raise ShapeError(f"query dim {x.shape} does not match model input {model.n_in}")
    return _Query(x, model)


def _plan_supplier(s: Supplier, x: np.ndarray, rng: int) -> tuple[_Query, int]:
    q = _query_for(s.reveal.model if s.reveal is not None else s.model, x)
    if s.mac_key is not None:
        q.key = s.mac_key
        q.nonce, rng = rng_bytes(rng, 16)
    q.latency, rng = s.latency.sample(rng)
    return q, rng


def _plan_cheat(p: Provider, x: np.ndarray, rng: int) -> tuple[_Query, int]:
    """Substitute path: the cheap model answers, with a forged (random)
    certificate whenever the honest path would carry a real one, and the
    provider's own latency."""
    q = _query_for(p.cheap_model, x)
    if p.backend.mac_key is not None:
        q.nonce, rng = rng_bytes(rng, 16)
        q.tag, rng = rng_bytes(rng, 32)
    q.latency, rng = p.latency.sample(rng)
    return q, rng


def _plan_provider(p: Provider, x, rng: int) -> tuple[_Query, int]:
    """The rng phase of one provider query. A CachedReplay miss enters the
    replay cache as its planned query until `_respond` answers it, so an
    input repeated before then is answered once and replayed without a draw."""
    x = np.asarray(x, dtype=np.float64)

    if p.kind == HONEST_PASSTHROUGH:
        return _plan_supplier(p.backend, x, rng)

    if p.kind == SUBSTITUTE_MODEL:
        return _plan_cheat(p, x, rng)

    if p.kind == PARTIAL_CHEAT:
        u, rng = rng_uniform(rng)
        if u < p.cheat_rate:
            return _plan_cheat(p, x, rng)
        return _plan_supplier(p.backend, x, rng)

    if p.kind == CACHED_REPLAY:
        digest = canon.sha256(canon.vec(x))
        hit = p.cache.get(digest)
        if isinstance(hit, _Query):
            return hit, rng
        if hit is not None:
            return _Query(x, response=hit), rng
        q, rng = _plan_supplier(p.backend, x, rng)
        q.store, q.digest = p.cache, digest
        p.cache[digest] = q
        return q, rng

    # NoisyPassthrough: one gaussian per output after the supplier's draws
    q, rng = _plan_supplier(p.backend, x, rng)
    g = np.empty(q.model.n_out)
    for i in range(len(g)):
        g[i], rng = rng_gauss(rng)
    q.noise = p.noise_sigma * g
    return q, rng


def _respond(q: _Query, probs: np.ndarray) -> Response:
    """The compute phase's tail: certificate, noise and replay-cache entry
    for a query whose model output is `probs`."""
    cert = None
    if q.tag is not None:
        cert = Certificate(q.nonce, q.tag)
    elif q.nonce is not None:
        cert = issue_certificate(q.key, q.x, probs, q.nonce)
    if q.noise is not None:
        # perturb, clamp to [0,1], renormalize by the sum; the supplier's
        # certificate rides along and is now invalid for the altered vector
        noisy = np.clip(probs + q.noise, 0.0, 1.0)
        total = noisy.sum()
        probs = noisy / total if total > 0 else np.full(len(noisy), 1.0 / len(noisy))
    q.response = Response(probs, cert, q.latency)
    if q.store is not None:
        q.store[q.digest] = q.response
    return q.response


class QueryBatch:
    """Many queries in two phases. `provider` takes each query's rng draws in
    call order, so other draws may be interleaved on the same stream;
    `answer` then evaluates each model once over all its rows
    (batch-invariant, so the bytes equal one-at-a-time answers) and returns
    the responses in query order. Replay caches are filled by `answer`, in
    query order; a CachedReplay input repeated within the batch is answered
    once. provider_classify and supplier_classify below are the one-query
    case."""

    def __init__(self):
        self._queries: list[_Query] = []

    def provider(self, p: Provider, x, rng: int) -> int:
        q, rng = _plan_provider(p, x, rng)
        self._queries.append(q)
        return rng

    def answer(self) -> list[Response]:
        todo = [q for q in dict.fromkeys(self._queries) if q.response is None]
        rows: dict[int, list[_Query]] = {}
        for q in todo:
            rows.setdefault(id(q.model), []).append(q)
        probs = {}
        for qs in rows.values():
            out = forward_batch(qs[0].model, np.stack([q.x for q in qs]))
            probs.update(zip(map(id, qs), out))
        for q in todo:
            _respond(q, probs[id(q)])
        return [q.response for q in self._queries]


def supplier_classify(s: Supplier, x, rng: int) -> tuple[Response, int]:
    """Answer one query: reveal head when present (n+1 classes), the plain
    model otherwise; certificate attached when the supplier holds a MAC key.
    An honest pass-through takes exactly the supplier's draws, so it is the
    supplier's one query path."""
    return provider_classify(Provider(HONEST_PASSTHROUGH, s), x, rng)


def provider_classify(p: Provider, x, rng: int) -> tuple[Response, int]:
    """One query against the provider."""
    batch = QueryBatch()
    rng = batch.provider(p, x, rng)
    return batch.answer()[0], rng

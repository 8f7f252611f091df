"""Simulated service actors: the trusted supplier, a family of honest and
cheating providers sitting between client and supplier, and the keyed
certificates ("metaresults") that make supplier answers unforgeable.

All classification and latency behavior is driven by explicit rng states
threaded through the calls, so any interaction sequence replays exactly.
Each provider fixes its answer routes (the supplier's, the substitute's)
when it is made. Queries are asked through a QueryBatch: planning a query
picks its route and counts its draws on the stream, and answering the batch
answers each route's rows as one block.
"""

from __future__ import annotations

import hmac
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import canon
from .errors import ParameterError, ShapeError
from .mlp import MlpModel, SeedConfig, TrainConfig, forward_batch
from .rng import (MASK64, draw_array, gauss_of, mix64, mix64_array, rng_advance,
                  rng_bytes, rng_gauss, rng_next, rng_uniform, uniform_of)
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
        if not (math.isfinite(self.base_ms) and math.isfinite(self.jitter_ms)):
            raise ParameterError("latency parameters must be finite")
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
        if not math.isfinite(self.latency_ms):
            raise ParameterError("latency_ms must be finite")
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


@dataclass(frozen=True)
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


class _Route(NamedTuple):
    """One answer path: its model, the MAC key of a real certificate or
    `forged` for a random one, its latency model and noise sigma. A query on
    the path takes `count` draws after its start state: the certificate's
    nonce (2) and forged tag (4), the latency at `latency_at`, then the noise
    (2 per output) when sigma > 0."""

    model: MlpModel
    key: bytes | None
    forged: bool
    latency: LatencyModel
    sigma: float
    latency_at: int
    count: int


def _route(model: MlpModel, key: bytes | None, forged: bool,
           latency: LatencyModel, sigma: float = 0.0) -> _Route:
    at = 6 if forged else 0 if key is None else 2
    return _Route(model, key, forged, latency, sigma, at,
                  at + 1 + (2 * model.n_out if sigma else 0))


@dataclass(frozen=True)
class Provider:
    """The intermediary under test. `kind` selects honest pass-through or one
    of the cheating strategies; everything else is per-kind configuration.

    Its answer paths are fixed when it is made. The honest one is the
    supplier's: reveal head when present, a real certificate when the
    supplier holds a MAC key, its latency, and NoisyPassthrough's noise. The
    cheat one (with a cheap model) is the substitute's: the cheap model, a
    forged certificate whenever the honest path carries a real one, and the
    provider's own latency."""

    kind: str
    backend: Supplier
    cheap_model: MlpModel | None = None
    cheat_rate: float = 0.0
    cache: dict = field(default_factory=dict)
    noise_sigma: float = 0.0
    latency: LatencyModel = field(default_factory=LatencyModel)
    _honest: _Route = field(init=False, repr=False, compare=False)
    _cheat: _Route | None = field(init=False, repr=False, compare=False)

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
        s = self.backend
        sigma = self.noise_sigma if self.kind == NOISY_PASSTHROUGH else 0.0
        object.__setattr__(self, "_honest", _route(
            s.model if s.reveal is None else s.reveal.model, s.mac_key, False,
            s.latency, sigma))
        object.__setattr__(self, "_cheat", None if self.cheap_model is None else
                           _route(self.cheap_model, None, s.mac_key is not None,
                                  self.latency))


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    return hmac.digest(key, message, "sha256")


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


#: `QueryBatch.answer` takes the draws of a route's rows with Python ints,
#: one row at a time, when fewer than this many rows of the batch take the
#: route, and from here on in one ``uint64`` pass over them. The pass has a
#: fixed numpy cost; on a 2-vCPU Xeon VM (numpy 2.4) it paid off from about
#: 8 rows whose queries take 7 or more draws (forged tags, noise) and from
#: about 32 rows of one-draw queries (no MAC key).
_CROSSOVER = 24


def _scalar_draws(route: _Route, starts: list[int]):
    """`_array_draws` with Python ints: each row walks the route's draws in
    order (nonce, forged tag, latency, noise) from its start state."""
    nonces, tags, latencies, noise = [], [], [], []
    for state in starts:
        if route.latency_at:  # a certificate: its nonce, then a forged tag
            nonce, state = rng_bytes(state, 16)
            nonces.append(nonce)
        if route.forged:
            tag, state = rng_bytes(state, 32)
            tags.append(tag)
        latency, state = route.latency.sample(state)
        latencies.append(latency)
        if route.sigma:
            g = []
            for _ in range(route.model.n_out):
                z, state = rng_gauss(state)
                g.append(z)
            noise.append(g)
    return (nonces if route.latency_at else None, tags if route.forged else None,
            latencies, route.sigma * np.array(noise) if route.sigma else None)


def _array_draws(route: _Route, starts: list[int]):
    """The rows' draws in one ``uint64`` pass: row i takes draws 1..count
    after its start state, one row of a ``(rows, count)`` table whose columns
    are the route's fields. Returns the rows' nonce and forged tag bytes
    (None where the route takes none), their latencies and their noise
    (sigma times a gaussian per output, None without noise)."""
    v = draw_array(np.array(starts, dtype=np.uint64)[:, None],
                   np.arange(1, route.count + 1, dtype=np.uint64))
    at, nonces, tags, noise = route.latency_at, None, None, None
    if at:
        blob, w = v[:, :at].astype("<u8").tobytes(), 8 * at
        nonces = [blob[b:b + 16] for b in range(0, len(blob), w)]
        if route.forged:
            tags = [blob[b + 16:b + 48] for b in range(0, len(blob), w)]
    # LatencyModel.sample: u from mix64(v ^ seed), any int seed taken mod 2**64
    lat = route.latency
    u = uniform_of(mix64_array(v[:, at] ^ np.uint64(lat.seed & MASK64)))
    latencies = (float(lat.base_ms) + float(lat.jitter_ms) * u).tolist()
    if route.sigma:
        noise = route.sigma * gauss_of(uniform_of(v[:, at + 1::2]),
                                       uniform_of(v[:, at + 2::2]))
    return nonces, tags, latencies, noise


class QueryBatch:
    """Many queries in two phases, stored as columns. `provider` plans a
    query: it records the input, the provider's route that answers it and
    the rng state the query's draws start from, and returns the state after
    them, counted but not taken (PartialCheat's coin, which picks the route,
    is the one draw taken then), so other draws may be interleaved on the
    same stream. `answer` answers each route's planned rows as one block:
    their draws in one pass (with Python ints below `_CROSSOVER` rows), one
    forward over them (batch-invariant, so the bytes equal one-at-a-time
    answers), noise on the block, all real certificates or all forged or
    none; it returns the responses in query order.

    A CachedReplay miss enters the replay cache as this batch's pending row
    until `answer` replaces it with the response, so an input repeated
    before then is answered once and replayed without a draw.
    provider_classify and supplier_classify below are the one-query case."""

    def __init__(self):
        self._xs: list[np.ndarray] = []
        self._routes: list[_Route | None] = []
        self._starts: list[int] = []
        # None until answered; a replay holds its Response, or the
        # (batch, row) still pending in the replay cache when planned
        self._responses: list = []
        self._replays: list[int] = []  # rows of the latter kind
        self._commits: dict[int, tuple[dict, bytes]] = {}
        self._answered = 0

    def provider(self, p: Provider, x, rng: int) -> int:
        x = np.asarray(x, dtype=np.float64)
        row, digest = len(self._xs), None
        if p.kind == CACHED_REPLAY:
            digest = canon.sha256(canon.vec(x))
            hit = p.cache.get(digest)
            if hit is not None:
                if isinstance(hit, tuple):
                    self._replays.append(row)
                self._xs.append(x)
                self._routes.append(None)
                self._starts.append(0)
                self._responses.append(hit)
                return rng
        # PartialCheat's coin, which picks the route, is the only draw taken
        # while planning
        route = p._cheat if p.kind == SUBSTITUTE_MODEL else p._honest
        if p.kind == PARTIAL_CHEAT:
            u, rng = rng_uniform(rng)
            if u < p.cheat_rate:
                route = p._cheat
        if x.ndim != 1 or len(x) != route.model.n_in:
            raise ShapeError(f"query dim {x.shape} does not match model input "
                             f"{route.model.n_in}")
        if digest is not None:
            p.cache[digest] = (self, row)
            self._commits[row] = (p.cache, digest)
        self._xs.append(x)
        self._routes.append(route)
        self._starts.append(rng & MASK64)  # any int, as rng_next takes
        self._responses.append(None)
        return rng_advance(rng, route.count)

    def answer(self) -> list[Response]:
        fresh = [i for i in range(self._answered, len(self._xs))
                 if self._responses[i] is None]
        if fresh:
            self._answer_rows(fresh)
        for i in self._replays:
            batch, row = self._responses[i]
            if batch._responses[row] is None:
                batch.answer()
            self._responses[i] = batch._responses[row]
        self._replays.clear()
        self._answered = len(self._xs)
        return list(self._responses)

    def _answer_rows(self, fresh: list[int]) -> None:
        """Respond to the planned rows `fresh`, one block per route, then
        commit the replay-cache entries they fill."""
        blocks: dict[int, list[int]] = {}
        for i in fresh:
            blocks.setdefault(id(self._routes[i]), []).append(i)
        for rows in blocks.values():
            route = self._routes[rows[0]]
            draws = _scalar_draws if len(rows) < _CROSSOVER else _array_draws
            nonces, tags, latencies, noise = draws(route, [self._starts[i] for i in rows])
            X = np.array([self._xs[i] for i in rows])
            probs = P = forward_batch(route.model, X)
            if noise is not None:
                # perturb, clamp to [0,1], renormalize by the row sum (uniform
                # if it is 0); the supplier's certificate, issued over P
                # below, rides along and is invalid for the altered vector
                probs = np.clip(P + noise, 0.0, 1.0)
                total = probs.sum(axis=1, keepdims=True)
                if total.all():  # the usual case, without the masked pass
                    probs /= total
                else:
                    kept = total > 0
                    probs = np.where(kept, probs / np.where(kept, total, 1.0),
                                     1.0 / route.model.n_out)
            if tags is not None:
                certs = list(map(Certificate, nonces, tags))
            elif nonces is not None:
                # _cert_message, cut from the block's canonical bytes
                xw, pw = 8 * route.model.n_in, 8 * route.model.n_out
                xb, pb = canon.vec(X), canon.vec(P)
                certs = [Certificate(n, hmac_sha256(
                    route.key, xb[j * xw:(j + 1) * xw] + pb[j * pw:(j + 1) * pw] + n))
                    for j, n in enumerate(nonces)]
            else:
                certs = [None] * len(rows)
            for i, pr, cert, latency in zip(rows, probs, certs, latencies):
                self._responses[i] = Response(pr, cert, latency)
        for i, (cache, digest) in self._commits.items():
            cache[digest] = self._responses[i]
        self._commits.clear()


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

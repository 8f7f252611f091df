"""Simulated service actors: the trusted supplier, a family of honest and
cheating providers sitting between client and supplier, and the keyed
certificates ("metaresults") that make supplier answers unforgeable.

All classification and latency behavior is driven by explicit rng states
threaded through the calls, so any interaction sequence replays exactly.
Queries are asked through a QueryBatch: planning a query counts its draws
on the stream, and answering the batch takes them all in one pass.
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
from .rng import (MASK64, draw_array, mix64, mix64_array, rng_advance, rng_bytes,
                  rng_gauss, rng_next, rng_uniform, uniform_of)
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


#: `QueryBatch.answer` takes the draws of fewer rows than this with Python
#: ints, one row at a time, and from here on in one ``uint64`` pass over the
#: batch. The pass has a fixed numpy cost; on a 2-vCPU Xeon VM (numpy 2.4)
#: it paid off from about 8 rows whose queries take 7 or more draws (forged
#: tags, noise) and from about 32 rows of one-draw queries (no MAC key).
_CROSSOVER = 24


class _Layout(NamedTuple):
    """One query path's draws after its start state: the offsets of the
    nonce (2 draws), the forged tag (4), the latency (1) and the noise
    (2 per output), None where the path takes none, and their count."""

    model: MlpModel
    key: bytes | None
    nonce: int | None
    tag: int | None
    latency_at: int
    latency: LatencyModel
    noise: int | None
    sigma: float
    count: int


def _supplier_layout(s: Supplier, sigma: float = 0.0) -> _Layout:
    """The supplier's path: reveal head when present, a real certificate when
    it holds a MAC key, its latency, then `sigma`-scaled noise if sigma > 0."""
    model = s.reveal.model if s.reveal is not None else s.model
    nonce, lat = (None, 0) if s.mac_key is None else (0, 2)
    noise, count = (lat + 1, lat + 1 + 2 * model.n_out) if sigma else (None, lat + 1)
    return _Layout(model, s.mac_key, nonce, None, lat, s.latency, noise, sigma,
                   count)


def _cheat_layout(p: Provider) -> _Layout:
    """Substitute path: the cheap model answers, with a forged (random)
    certificate whenever the honest path would carry a real one, and the
    provider's own latency."""
    if p.backend.mac_key is None:
        return _Layout(p.cheap_model, None, None, None, 0, p.latency, None, 0.0, 1)
    return _Layout(p.cheap_model, None, 0, 2, 6, p.latency, None, 0.0, 7)


def _scalar_draws(lays: list[_Layout], starts: list[int]):
    """`_array_draws` with Python ints: each row walks its draws in layout
    order (nonce, forged tag, latency, noise) from its start state."""
    nonces, tags, latencies, noise = [], [], [], []
    for lay, state in zip(lays, starts):
        nonce = tag = g = None
        if lay.nonce is not None:
            nonce, state = rng_bytes(state, 16)
        if lay.tag is not None:
            tag, state = rng_bytes(state, 32)
        latency, state = lay.latency.sample(state)
        if lay.noise is not None:
            g = np.empty(lay.model.n_out)
            for c in range(len(g)):
                g[c], state = rng_gauss(state)
            g = lay.sigma * g
        nonces.append(nonce)
        tags.append(tag)
        latencies.append(latency)
        noise.append(g)
    return nonces, tags, latencies, noise


def _array_draws(lays: list[_Layout], starts: list[int]):
    """Every row's draws in one ``uint64`` pass: row i takes draws 1..count
    after its start state. Returns per row its nonce and forged tag bytes,
    its latency and its noise (sigma times a gaussian per output), None
    where the row's path takes none."""
    counts = np.array([lay.count for lay in lays])
    ends = np.cumsum(counts)
    bases = ends - counts
    steps = np.arange(1, int(ends[-1]) + 1) - np.repeat(bases, counts)
    v = draw_array(np.repeat(np.array(starts, dtype=np.uint64), counts),
                   steps.astype(np.uint64))
    blob = v.astype("<u8").tobytes()
    nonces, tags, lat_at, pairs, sigma = [], [], [], [], []
    for lay, b in zip(lays, bases.tolist()):
        nonces.append(None if lay.nonce is None
                      else blob[8 * (b + lay.nonce):8 * (b + lay.nonce) + 16])
        tags.append(None if lay.tag is None
                    else blob[8 * (b + lay.tag):8 * (b + lay.tag) + 32])
        lat_at.append(b + lay.latency_at)
        if lay.noise is not None:
            pairs.extend(range(b + lay.noise, b + lay.count, 2))
            sigma.extend([lay.sigma] * lay.model.n_out)
    # LatencyModel.sample: u from mix64(v ^ seed), any int seed taken mod 2**64
    seeds = np.array([lay.latency.seed & MASK64 for lay in lays], dtype=np.uint64)
    u = uniform_of(mix64_array(v[lat_at] ^ seeds))
    base = np.array([float(lay.latency.base_ms) for lay in lays])
    jitter = np.array([float(lay.latency.jitter_ms) for lay in lays])
    latencies = (base + jitter * u).tolist()
    noise = [None] * len(lays)
    if pairs:
        # rng_gauss's Box-Muller on each pair, with libm's log and cos as there
        pairs = np.array(pairs)
        u1, u2 = uniform_of(v[pairs]), uniform_of(v[pairs + 1])
        logs = np.fromiter(map(math.log, (1.0 - u1).tolist()), np.float64,
                           len(pairs))
        coss = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()),
                           np.float64, len(pairs))
        flat = np.array(sigma) * (np.sqrt(-2.0 * logs) * coss)
        start = 0
        for k, lay in enumerate(lays):
            if lay.noise is not None:
                noise[k] = flat[start:start + lay.model.n_out]
                start += lay.model.n_out
    return nonces, tags, latencies, noise


class QueryBatch:
    """Many queries in two phases, stored as columns. `provider` plans a
    query: it records the input, the answering model and the rng state the
    query's draws start from, and returns the state after them, counted but
    not taken (PartialCheat's coin, which picks the path, is the one draw
    taken then), so other draws may be interleaved on the same stream.
    `answer` takes every planned row's draws in one pass (with Python ints
    below `_CROSSOVER` rows), evaluates each model once over all its rows
    (batch-invariant, so the bytes equal one-at-a-time answers), attaches
    certificates and noise, and returns the responses in query order.

    A CachedReplay miss enters the replay cache as this batch's pending row
    until `answer` replaces it with the response, so an input repeated
    before then is answered once and replayed without a draw.
    provider_classify and supplier_classify below are the one-query case."""

    def __init__(self):
        self._xs: list[np.ndarray] = []
        self._layouts: list[_Layout | None] = []
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
                self._layouts.append(None)
                self._starts.append(0)
                self._responses.append(hit)
                return rng
        # the query's path; PartialCheat's coin, which picks it, is the only
        # draw taken while planning
        if p.kind == SUBSTITUTE_MODEL:
            lay = _cheat_layout(p)
        elif p.kind == PARTIAL_CHEAT:
            u, rng = rng_uniform(rng)
            lay = _cheat_layout(p) if u < p.cheat_rate else _supplier_layout(p.backend)
        elif p.kind == NOISY_PASSTHROUGH:
            lay = _supplier_layout(p.backend, p.noise_sigma)
        else:
            lay = _supplier_layout(p.backend)
        if x.ndim != 1 or len(x) != lay.model.n_in:
            raise ShapeError(f"query dim {x.shape} does not match model input "
                             f"{lay.model.n_in}")
        if digest is not None:
            p.cache[digest] = (self, row)
            self._commits[row] = (p.cache, digest)
        self._xs.append(x)
        self._layouts.append(lay)
        self._starts.append(rng & MASK64)  # any int, as rng_next takes
        self._responses.append(None)
        return rng_advance(rng, lay.count)

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
        """Respond to the planned rows `fresh`, then commit the replay-cache
        entries they fill."""
        lays = [self._layouts[i] for i in fresh]
        draws = _scalar_draws if len(fresh) < _CROSSOVER else _array_draws
        nonces, tags, latencies, noise = draws(lays, [self._starts[i] for i in fresh])
        groups: dict[int, list[int]] = {}
        for k, lay in enumerate(lays):
            groups.setdefault(id(lay.model), []).append(k)
        for ks in groups.values():
            model = lays[ks[0]].model
            X = np.array([self._xs[fresh[k]] for k in ks])
            P = forward_batch(model, X)
            probs = list(P)
            noisy = [j for j, k in enumerate(ks) if noise[k] is not None]
            if noisy:
                # perturb, clamp to [0,1], renormalize by the row sum (uniform
                # if it is 0); the supplier's certificate, issued over P
                # below, rides along and is invalid for the altered vector
                N = P if len(noisy) == len(ks) else P[noisy]
                N = np.clip(N + np.array([noise[ks[j]] for j in noisy]), 0.0, 1.0)
                total = N.sum(axis=1, keepdims=True)
                if total.all():  # the usual case, without the masked pass
                    N /= total
                else:
                    kept = total > 0
                    N = np.where(kept, N / np.where(kept, total, 1.0),
                                 1.0 / model.n_out)
                for j, row in zip(noisy, N):
                    probs[j] = row
            xb = None
            for j, k in enumerate(ks):
                cert = None
                if tags[k] is not None:
                    cert = Certificate(nonces[k], tags[k])
                elif nonces[k] is not None:
                    # _cert_message, cut from the group's canonical bytes
                    if xb is None:
                        xw, pw = 8 * model.n_in, 8 * model.n_out
                        xb, pb = canon.vec(X), canon.vec(P)
                    msg = (xb[j * xw:(j + 1) * xw] + pb[j * pw:(j + 1) * pw]
                           + nonces[k])
                    cert = Certificate(nonces[k], hmac_sha256(lays[k].key, msg))
                self._responses[fresh[k]] = Response(probs[j], cert, latencies[k])
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

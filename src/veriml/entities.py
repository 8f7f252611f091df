"""Simulated service actors: the trusted supplier, a family of honest and
cheating providers sitting between client and supplier, and the keyed
certificates ("metaresults") that make supplier answers unforgeable.

All classification and latency behavior is driven by explicit rng states
threaded through the calls, so any interaction sequence replays exactly.
Each provider fixes its answer routes (the supplier's, the substitute's)
when it is made. Every route answers in the supplier's answering width, as
the service's API defines it: a substitute narrower than a reveal head
answers with its probabilities in a zero block of that width, which keeps
each row's argmax. Queries are asked with `ask`, one call per provider and
block of rows: it plans the block, picking each row's route and counting its
draws on the stream (or on each row's owner's stream), answers each route's
rows as one block and returns the answers as columns, one read-only matrix
of the answering width. Certificates are issued and checked a block of rows
at a time: one HMAC key schedule per block (RFC 2104 section 4) and the
rows' canonical bytes encoded once for the block; issue_certificate and
verify_certificate are the blocks of one.

A provider holds no mutable state, so one serves any number of trials.
CachedReplay's replays live in a replay store, a dict its caller holds (one
per trial) and passes to `ask` beside the streams, keyed on each row's
canonical bytes.
"""

from __future__ import annotations

import hashlib
import hmac
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import canon
from .errors import ParameterError, ShapeError
from .mlp import SOFTMAX, MlpModel, SeedConfig, TrainConfig, forward_batch
from .rng import (_CROSSOVER, _GOLDEN, _INV53, MASK64, draw_array, gauss_of, mix64,
                  mix64_array, rng_bytes, rng_gauss, rng_next, uniform_of)
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

    @property
    def answering_model(self) -> MlpModel:
        """The net that answers for the supplier: the reveal head when there
        is one (n+1 classes), the plain model otherwise."""
        return self.model if self.reveal is None else self.reveal.model


class _Route(NamedTuple):
    """One answer path: its model, the answering width its rows are padded
    to, the MAC key of a real certificate or `forged` for a random one, its
    latency model and noise sigma. A query on the path takes `count` draws
    after its start state: the certificate's nonce (2) and forged tag (4),
    the latency at `latency_at`, then the noise (2 per output) when
    sigma > 0."""

    model: MlpModel
    width: int
    key: bytes | None
    forged: bool
    latency: LatencyModel
    sigma: float
    latency_at: int
    count: int


def _route(model: MlpModel, width: int, key: bytes | None, forged: bool,
           latency: LatencyModel, sigma: float = 0.0) -> _Route:
    at = 6 if forged else 0 if key is None else 2
    return _Route(model, width, key, forged, latency, sigma, at,
                  at + 1 + (2 * model.n_out if sigma else 0))


@dataclass(frozen=True)
class Provider:
    """The intermediary under test. `kind` selects honest pass-through or one
    of the cheating strategies; everything else is per-kind configuration.

    Its answer paths are fixed when it is made. The honest one is the
    supplier's: its answering model, a real certificate when the supplier
    holds a MAC key, its latency, and NoisyPassthrough's noise. The
    cheat one (with a cheap model) is the substitute's: the cheap model, a
    forged certificate whenever the honest path carries a real one, and the
    provider's own latency. Both answer in the supplier's answering width,
    so the cheap model must be a softmax classifier no wider than it. It
    holds no mutable state: CachedReplay replays from the store `ask` is
    given."""

    kind: str
    backend: Supplier
    cheap_model: MlpModel | None = None
    cheat_rate: float = 0.0
    noise_sigma: float = 0.0
    latency: LatencyModel = field(default_factory=LatencyModel)
    _honest: _Route = field(init=False, repr=False, compare=False)
    _cheat: _Route | None = field(init=False, repr=False, compare=False)
    # the route of every query of a kind that makes no per-query choice
    # (neither a cheat coin nor a replay lookup), None otherwise
    _fixed: _Route | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in PROVIDER_KINDS:
            raise ParameterError(f"unknown provider kind {self.kind!r}")
        if self.kind in (SUBSTITUTE_MODEL, PARTIAL_CHEAT) and self.cheap_model is None:
            raise ParameterError(f"{self.kind} requires a cheap_model")
        # rate 0 degenerates to pass-through and 1 to a full substitute; both
        # ends stay legal so sweeps over the full range need no special cases
        if self.kind == PARTIAL_CHEAT and not 0.0 <= self.cheat_rate <= 1.0:
            raise ParameterError("PartialCheat requires cheat_rate in [0, 1]")
        if self.kind == NOISY_PASSTHROUGH and not 0.0 < self.noise_sigma < math.inf:
            raise ParameterError("NoisyPassthrough requires a finite noise_sigma > 0")
        s, cheap = self.backend, self.cheap_model
        width = s.answering_model.n_out
        if cheap is not None and (cheap.output_kind != SOFTMAX
                                  or cheap.n_out > width):
            raise ParameterError(f"cheap_model must be a softmax classifier of "
                                 f"at most the supplier's {width} classes")
        sigma = self.noise_sigma if self.kind == NOISY_PASSTHROUGH else 0.0
        object.__setattr__(self, "_honest", _route(
            s.answering_model, width, s.mac_key, False, s.latency, sigma))
        object.__setattr__(self, "_cheat", None if cheap is None else
                           _route(cheap, width, None, s.mac_key is not None,
                                  self.latency))
        object.__setattr__(self, "_fixed", {
            HONEST_PASSTHROUGH: self._honest, NOISY_PASSTHROUGH: self._honest,
            SUBSTITUTE_MODEL: self._cheat}.get(self.kind))


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _key_schedule(key: bytes) -> tuple:
    """RFC 2104's keyed states, computed once per key (section 4): the
    SHA-256 states after key ^ ipad and after key ^ opad, with a key longer
    than the 64-byte block hashed first and every key padded with zeros."""
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\0")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def _tag(schedule: tuple, message: bytes) -> bytes:
    """HMAC-SHA-256 of one message, from copies of the schedule's states."""
    inner, outer = schedule
    h = inner.copy()
    h.update(message)
    tag = outer.copy()
    tag.update(h.digest())
    return tag.digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    return _tag(_key_schedule(key), message)


def _messages(X, probs, nonces: list[bytes]) -> list[bytes]:
    """Each row's certified bytes, canon.vec(x) || canon.vec(probs) || nonce.
    Rows of two matrices are cut from the matrices' canonical bytes; rows
    given as sequences (probabilities of differing widths) are encoded one
    at a time."""
    if not (isinstance(X, np.ndarray) and isinstance(probs, np.ndarray)
            and X.ndim == probs.ndim == 2):
        return [canon.vec(x) + canon.vec(p) + n for x, p, n in zip(X, probs, nonces)]
    xb, pb = canon.vec(X), canon.vec(probs)
    xw, pw = 8 * X.shape[1], 8 * probs.shape[1]
    return [xb[i * xw:(i + 1) * xw] + pb[i * pw:(i + 1) * pw] + n
            for i, n in enumerate(nonces)]


def _sign_block(key: bytes, X, probs, nonces: list[bytes]) -> list[Certificate]:
    """Row i's certificate: nonces[i] and HMAC-SHA-256(key, bytes(X[i]) ||
    bytes(probs[i]) || nonces[i]), every tag from one key schedule."""
    schedule = _key_schedule(key)
    return [Certificate(n, _tag(schedule, m))
            for n, m in zip(nonces, _messages(X, probs, nonces))]


def issue_certificate(key: bytes, x, probs, nonce: bytes) -> Certificate:
    """tag = HMAC-SHA-256(key, bytes(x) || bytes(probs) || nonce)."""
    return _sign_block(key, [x], [probs], [nonce])[0]


def first_invalid_certificate(key: bytes, X, probs, certificates) -> int | None:
    """The first row whose certificate is missing or whose tag is not the
    one `issue_certificate` gives for (X[i], probs[i], its nonce), or None
    when every row's checks out. X and probs are matrices or sequences of
    rows (probs may differ in width from row to row). The rows' messages
    are cut from the block's canonical bytes (`_messages`), every tag comes
    from one key schedule and is compared in constant time, and no tag is
    computed after the first bad row."""
    if not len(X) == len(probs) == len(certificates):
        raise ShapeError(f"{len(X)} queries, {len(probs)} answers and "
                         f"{len(certificates)} certificates")
    nonces = [b"" if c is None else c.nonce for c in certificates]
    schedule = None  # built at the first certificate held
    for i, m in enumerate(_messages(X, probs, nonces)):
        if certificates[i] is None:
            return i
        schedule = schedule or _key_schedule(key)
        if not hmac.compare_digest(_tag(schedule, m), certificates[i].tag):
            return i
    return None


def verify_certificate(key: bytes, x, probs, cert: Certificate | None) -> bool:
    """Recompute-and-compare, constant-time on the tag."""
    return first_invalid_certificate(key, [x], [probs], [cert]) is None


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


class Answers:
    """A block's answers as columns, row i answering the i-th query planned:
    `matrix`, the probabilities (rows x the supplier's answering width,
    read-only, so no replay-store entry can be rewritten through it);
    `probs`, its rows as vectors (views); `labels`, each row's argmax as an
    int array; `certificates`, a Certificate or None per row; and
    `latencies`, a float per row. `probs` and `labels` are built on first
    use. `answers[i]` is row i as a new Response."""

    __slots__ = ("matrix", "certificates", "latencies", "_probs", "_labels")

    def __init__(self, matrix: np.ndarray, certificates: list, latencies: list):
        self.matrix = matrix
        self.certificates = certificates
        self.latencies = latencies
        self._probs = self._labels = None

    @property
    def probs(self) -> list:
        if self._probs is None:
            self._probs = list(self.matrix)
        return self._probs

    @property
    def labels(self) -> np.ndarray:
        if self._labels is None:
            self._labels = self.matrix.argmax(axis=1)
        return self._labels

    def __len__(self) -> int:
        return len(self.latencies)

    def __getitem__(self, i: int) -> Response:
        i = range(len(self.latencies))[i]
        return Response(self.matrix[i], self.certificates[i], self.latencies[i])


def ask(X, provider: Provider, rng: int | list[int], owners=None,
        replays: dict | list[dict] | None = None
        ) -> tuple[Answers, int | list[int]]:
    """Plan and answer every row of X (m x n_in), asked of `provider`:
    return the answers as columns in row order and the stream's end state.

    With no `owners`, `rng` is one stream and `replays` one replay store.
    With `owners` (one int per row, each owner's rows consecutive), `rng`
    and `replays` are lists indexed by owner: each run of an owner's rows is
    planned on its owner's stream and store, and the states come back
    advanced, in a new list. Planning picks each row's route and the state
    its draws start from, and counts the draws without taking them
    (PartialCheat's coin, which picks the route, is the one draw taken
    then). The rows of a provider with one route start on one arithmetic
    progression of their run's stream; PartialCheat's coins and
    CachedReplay's store lookups take one walk over each run.

    A replay store is a dict its caller holds, from a row's canonical bytes
    (cut from the block's) to the (probability row, certificate, latency)
    that row was first answered with. The provider holds no state: only
    CachedReplay reads and fills a store, it raises ParameterError when
    asked without one, and the other kinds ignore the argument.

    Each route's rows are answered as one block, in row order: their draws
    in one pass (with Python ints below `rng._CROSSOVER` draws), one forward
    over them (batch-invariant, so the bytes equal one-at-a-time answers),
    noise on the block, all real certificates (signed as one block, one key
    schedule) or all forged or none, and Response's latency check once. No
    Response is built. A CachedReplay input repeated within the call, under
    one store, replays the row it was first asked in, without a draw, and
    the misses enter their stores, in plan order, only after every block is
    answered: a call that raises leaves every store as it found it."""
    X = np.asarray(X, dtype=np.float64)
    p = provider
    if p.kind == CACHED_REPLAY and replays is None:
        raise ParameterError("a CachedReplay provider needs a replay store")
    # route 0 is the provider's only or honest route, route 1 its cheat one
    table = (p._fixed or p._honest, p._cheat if p.kind == PARTIAL_CHEAT else None)
    width = X.shape[1] if X.ndim == 2 else None
    for route in table:  # the shape check, once for the block
        if route is not None and route.model.n_in != width:
            raise ShapeError(f"query dim {X.shape[1:]} does not match "
                             f"model input {route.model.n_in}")
    m = len(X)
    if owners is None:  # one stream: one run of every row
        streams, stores, runs = [rng], [replays], [(0, m, 0)] if m else []
    else:
        streams, stores, runs = list(rng), replays, _runs(owners, m)
    # per route: the rows it answers and the states their draws start from;
    # replay rows' sources (a store entry, or the row of this call it
    # repeats); misses' stores and keys
    rows_of, starts_of, hits, misses = [[], []], [[], []], {}, {}
    if p._fixed:  # every row its route's draw count after the one before
        step = table[0].count * _GOLDEN
        for a, b, k in runs:
            s = streams[k]
            starts_of[0] += [(s + i * step) & MASK64 for i in range(b - a)]
            streams[k] = (s + (b - a) * step) & MASK64
        rows_of[0] = range(m)
    else:
        if p.kind == CACHED_REPLAY:
            xb, w = canon.vec(X), 8 * width
            firsts = {}  # per store: {key: the row a miss is asked in}
        for a, b, k in runs:
            state = streams[k]
            if p.kind == CACHED_REPLAY:
                store = stores[k]
                first = firsts.setdefault(id(store), {})
            for i in range(a, b):
                code = 0
                if p.kind == PARTIAL_CHEAT:  # its coin, as rng_uniform
                    state = (state + _GOLDEN) & MASK64
                    code = (mix64(state) >> 11) * _INV53 < p.cheat_rate
                else:
                    key = xb[i * w:(i + 1) * w]
                    hit = store.get(key) or first.get(key)
                    if hit is not None:
                        hits[i] = hit
                        continue
                    first[key], misses[i] = i, (store, key)
                rows_of[code].append(i)
                starts_of[code].append(state & MASK64)
                state = (state + table[code].count * _GOLDEN) & MASK64
            streams[k] = state
    blocks = [(rows, _answer_block(table[c], starts_of[c],
                                   X if len(rows) == m else X[rows]))
              for c, rows in enumerate(rows_of) if rows]
    if len(blocks) == 1 and not hits:  # the usual case: one block, in order
        M, certs, latencies = blocks[0][1]
    else:
        M, certs, latencies = _scatter(table[0].width, blocks, hits, m)
    # read-only before any row view is taken: a store entry is one
    M.flags.writeable = False
    for i, (store, key) in misses.items():
        store[key] = (M[i], certs[i], latencies[i])
    return (Answers(M, certs, latencies),
            streams[0] if owners is None else streams)


def _runs(owners, m: int) -> list[tuple[int, int, int]]:
    """(first row, end row, owner) of each run of equal owners in turn."""
    owners = np.asarray(owners)
    if owners.shape != (m,):
        raise ShapeError(f"{owners.size} owners for {m} rows")
    cuts = [0, *(np.flatnonzero(np.diff(owners)) + 1).tolist(), m]
    return list(zip(cuts, cuts[1:], owners[cuts[:-1]].tolist())) if m else []


def _scatter(width: int, blocks: list, hits: dict, n: int):
    """The columns of n rows of one width: each route block's rows, then
    each replay row from the store entry it replays or from the row of this
    call it repeats."""
    M, certs, latencies = np.empty((n, width)), [None] * n, np.empty(n)
    for rows, (P, C, lat) in blocks:
        at = np.asarray(rows)
        M[at], latencies[at] = P, lat
        for j, cert in zip(rows, C) if C[0] is not None else ():
            certs[j] = cert
    if hits:
        sources = []
        for i, hit in hits.items():
            if isinstance(hit, int):
                hit = M[hit], certs[hit], latencies[hit]
            sources.append(hit[0])
            certs[i], latencies[i] = hit[1], hit[2]
        M[list(hits)] = sources
    return M, certs, latencies.tolist()


def _answer_block(route: _Route, starts: list[int], X: np.ndarray):
    """One route's rows answered as one block: their probabilities (noised
    when the route adds noise, in a zero block of the route's width when its
    model is narrower), certificates and latencies."""
    draws = (_scalar_draws if len(starts) * route.count < _CROSSOVER
             else _array_draws)
    nonces, tags, latencies, noise = draws(route, starts)
    # Response's latency check, once for the block
    if not all(map(math.isfinite, latencies)):
        raise ParameterError("latency_ms must be finite")
    if min(latencies) < 0:
        raise ParameterError("latency_ms must be >= 0")
    probs = P = forward_batch(route.model, X)
    if route.model.n_out < route.width:  # a slice: cheaper than np.pad
        probs = np.zeros((len(P), route.width))
        probs[:, :P.shape[1]] = P
    if noise is not None:
        # perturb, clamp to [0,1], renormalize by the row sum (uniform if it
        # is 0); the supplier's certificate, issued over P below, rides along
        # and is invalid for the altered vector
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
        certs = _sign_block(route.key, X, P, nonces)
    else:
        certs = [None] * len(starts)
    return probs, certs, latencies


def supplier_classify(s: Supplier, x, rng: int) -> tuple[Response, int]:
    """Answer one query with the supplier's answering model, certificate
    attached when the supplier holds a MAC key. An honest pass-through takes
    exactly the supplier's draws, so it is the supplier's one query path."""
    return provider_classify(Provider(HONEST_PASSTHROUGH, s), x, rng)


def provider_classify(p: Provider, x, rng: int,
                      replays: dict | None = None) -> tuple[Response, int]:
    """One query against the provider, on the replay store `replays` (see
    `ask`): the block of one row."""
    answers, rng = ask(np.asarray(x, dtype=np.float64)[None], p, rng,
                       replays=replays)
    return answers[0], rng

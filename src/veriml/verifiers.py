"""The client-side accountability methods. Each one interrogates a provider
and returns a Verdict: a test statistic, a p-value under the "provider is
honest" null, and a discrete decision at the configured significance level.

Four methods:

* steg_probe — interleave steganographic containers with clean covers and
  count which containers come back flagged as the reserved message class;
* deterministic_benchmark — retrain the supplier's model from its published
  seeds and demand bit-identical answers;
* probabilistic_benchmark — ask the provider the picked queries, label
  them with the supplier's answering model, compare accuracies with a
  two-proportion z-test;
* metaresult_verify — check the MAC certificate on every response.

cheat_probability is presented as 1 - p_value (clamped): an evidence score
against honesty, not a posterior probability of cheating.

The verifiers ask only the provider under test, with entities.ask, one call
per block of rows, and read its answers as columns; they read the supplier,
their own model, with forward_batch. Every block's answers are one
probability matrix in the supplier's answering width. The steg probe and
the probabilistic benchmark compare label arrays, the deterministic
benchmark compares each block's matrix with the reference's as 64-bit words
in one pass, and metaresult_verify checks a block's certificate column
against its query and probability matrices with one key schedule; no
Response is built. The methods that ask take the trial's replay store
(`replays`, see entities.ask) and pass it to every ask they make.

steg_probe and the steg calibration (measure_roundtrip) share one probe
core: it draws all the containers first, with one steg.draw_containers call
on a stream of their own (derive_seed(seed, 1)), then labels every row as
one block: steg_probe by asking the provider on the caller's stream, the
calibration with the supplier's answering model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stats
from .cache import shared_model
from .data import BlobRecipe
from .entities import (Answers, Provider, Response, SeedPublication, Supplier,
                       ask, first_invalid_certificate)
from .errors import (GenerationFailureError, ParameterError, ProbeSetupError,
                     ShapeError)
from .mlp import MlpModel, forward_batch
from .rng import derive_seed, sample_indices
from .steg import RevealClassifier, StegModel, draw_containers
from .stats import two_proportion_z

LIKELY_HONEST = "LikelyHonest"
LIKELY_FRAUDULENT = "LikelyFraudulent"
INCONCLUSIVE = "Inconclusive"

METHOD_STEG_PROBE = "steg_probe"
METHOD_DETERMINISTIC = "deterministic_benchmark"
METHOD_PROBABILISTIC = "probabilistic_benchmark"
METHOD_METARESULT = "metaresult_verify"

SPRT_CONTINUE = "Continue"
SPRT_ACCEPT_HONEST = "AcceptHonest"
SPRT_ACCEPT_CHEAT = "AcceptCheat"


@dataclass(frozen=True)
class Verdict:
    method: str
    n_probes: int
    statistic: float
    p_value: float
    cheat_probability: float
    decision: str
    detail: str

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ParameterError("p_value must be in [0,1]")
        if not 0.0 <= self.cheat_probability <= 1.0:
            raise ParameterError("cheat_probability must be in [0,1]")

    def to_dict(self) -> dict:
        return {"method": self.method, "n_probes": self.n_probes,
                "statistic": self.statistic, "p_value": self.p_value,
                "cheat_probability": self.cheat_probability,
                "decision": self.decision, "detail": self.detail}


def _verdict(method: str, n_probes: int, statistic: float, p_value: float,
             decision: str, detail: str) -> Verdict:
    return Verdict(method, n_probes, statistic, p_value,
                   min(1.0, max(0.0, 1.0 - p_value)), decision, detail)


@dataclass(frozen=True)
class ProbePlan:
    """Shape of one steg probe: k queries, a fraction of them containers."""

    k: int
    frac_steg: float
    seed: int
    alpha: float = 0.05

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if not 0.0 < self.frac_steg < 1.0:
            raise ParameterError("frac_steg must be in (0,1)")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must be in (0,1)")
        if self.n_steg < 1 or self.k - self.n_steg < 1:
            raise ParameterError("plan needs at least one steg and one clean probe")

    @property
    def n_steg(self) -> int:
        return int(round(self.k * self.frac_steg))


@dataclass
class StegSuite:
    """Trained steg artifacts plus the empirical honest-path rates the probe
    tests against: p_detect (container flagged) and p_clean (raw cover not
    flagged), both measured against the supplier on held-out covers."""

    steg: StegModel
    reveal: RevealClassifier
    checker: MlpModel
    p_detect: float
    p_clean: float

    def __post_init__(self):
        for name in ("p_detect", "p_clean"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ParameterError(f"{name} must be in (0,1)")


def _probe_counts(label, steg: StegModel, reveal: RevealClassifier,
                  checker: MlpModel, rows: np.ndarray, is_steg: np.ndarray,
                  seed: int) -> tuple[int, int]:
    """The probe core: turn the `is_steg` rows into containers on
    derive_seed(seed, 1), label every row in order with one `label(rows)`
    call, and return (containers flagged as message class, clean rows not
    flagged)."""
    containers, _, _ = draw_containers(steg, reveal, checker, rows[is_steg],
                                       derive_seed(seed, 1))
    rows = rows.copy()
    rows[is_steg] = containers
    flagged = label(rows) == reveal.message_class
    return int(flagged[is_steg].sum()), int((~flagged[~is_steg]).sum())


def measure_roundtrip(supplier: Supplier, steg: StegModel,
                      reveal: RevealClassifier, checker: MlpModel,
                      covers: np.ndarray, seed: int) -> tuple[float, float]:
    """Empirical honest-path rates on held-out covers, Laplace-smoothed so
    neither rate is ever exactly 0 or 1: the fraction of generated containers
    the supplier flags as message class, and the fraction of raw covers it
    does not. Each cover is labeled twice in a row, as a container and raw,
    with the supplier's answering model; nothing is asked."""
    n = len(covers)
    if n < 1:
        raise ParameterError("need at least one held-out cover")
    is_steg = np.arange(2 * n) % 2 == 0
    model = supplier.answering_model
    detect, clean = _probe_counts(
        lambda rows: forward_batch(model, rows).argmax(axis=1), steg, reveal,
        checker, np.repeat(covers, 2, axis=0), is_steg, seed)
    return (detect + 1) / (n + 2), (clean + 1) / (n + 2)


def steg_probe(provider: Provider, suite: StegSuite, covers, plan: ProbePlan,
               replays: dict | None = None) -> Verdict:
    """Interleave containers and clean covers per the plan, query the
    provider once each, and test the container hit count against the honest
    binomial null Bin(n_steg, p_detect): p = P(X <= hits). Before judging,
    a guard checks the clean probes — a provider that flags everything as
    message class must come back Inconclusive, not honest."""
    covers = np.asarray(covers, dtype=np.float64)
    if len(covers) < plan.k:
        raise ParameterError(f"need >= {plan.k} covers, have {len(covers)}")

    state = plan.seed
    cover_idx, state = sample_indices(state, len(covers), plan.k)
    steg_pos, state = sample_indices(state, plan.k, plan.n_steg)
    is_steg = np.zeros(plan.k, dtype=bool)
    is_steg[steg_pos] = True
    try:
        hits, clean_ok = _probe_counts(
            lambda rows: ask(rows, provider, state, replays=replays)[0].labels,
            suite.steg, suite.reveal, suite.checker, covers[cover_idx], is_steg,
            plan.seed)
    except GenerationFailureError as exc:
        raise ProbeSetupError(f"container generation failed: {exc}") from exc

    n_clean = plan.k - plan.n_steg
    guard_p = stats.binomial_tail_leq(clean_ok, n_clean, suite.p_clean)
    p_value = stats.binomial_tail_leq(hits, plan.n_steg, suite.p_detect)
    detail = (f"k={plan.k} steg={plan.n_steg} hits={hits} "
              f"clean_ok={clean_ok}/{n_clean} p1={suite.p_detect:.4f} "
              f"p_value={p_value:.4g}")
    if guard_p < plan.alpha:
        return _verdict(METHOD_STEG_PROBE, plan.k, float(hits), p_value,
                        INCONCLUSIVE,
                        detail + f"; clean guard tripped (tail {guard_p:.3g})")
    decision = LIKELY_FRAUDULENT if p_value < plan.alpha else LIKELY_HONEST
    return _verdict(METHOD_STEG_PROBE, plan.k, float(hits), p_value, decision, detail)


def deterministic_benchmark(provider: Provider, publication: SeedPublication,
                            data_recipe: BlobRecipe, queries, rng: int = 0,
                            replays: dict | None = None) -> Verdict:
    """Retrain the reference model from the published seeds, then require the
    provider's probability vectors to match the local ones bit-for-bit on
    their canonical serialization. A single mismatch is proof of fraud; full
    agreement certifies exactly the queried set. `queries` is one (m x n_in)
    matrix. The reference is loaded once per process
    (`cache.shared_model`)."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.shape[:1] == (0,):
        return _verdict(METHOD_DETERMINISTIC, 0, 0.0, 1.0, INCONCLUSIVE,
                        "no queries issued")
    n_in = publication.architecture[0]
    if queries.shape[1:] != (n_in,):
        raise ShapeError(f"queries of shape {queries.shape} are not rows of "
                         f"the published input width {n_in}")
    local = shared_model(publication.architecture, publication.train_config,
                         data_recipe, data_recipe.n_per_class)
    # queries go out in blocks of 1, 4, 16, ..., each checked against one
    # forward_batch of the reference, so a cheat caught early costs little
    state, start, size = rng, 0, 1
    while start < len(queries):
        chunk = queries[start:start + size]
        answers, state = ask(chunk, provider, state, replays=replays)
        got, wants = answers.matrix, forward_batch(local, chunk)
        if got.shape[1] != wants.shape[1]:
            raise ShapeError(f"response width {got.shape[1]} != published "
                             f"architecture width {wants.shape[1]}")
        # equal canonical bytes are equal 64-bit words
        same = (got.view(np.uint64) == wants.view(np.uint64)).all(axis=1)
        if not same.all():
            i = start + int(np.argmin(same))
            return _verdict(
                METHOD_DETERMINISTIC, i + 1, 1.0, 0.0, LIKELY_FRAUDULENT,
                f"query {i} differs from the seed-retrained reference "
                f"(bitwise compare)")
        start += size
        size *= 4
    return _verdict(
        METHOD_DETERMINISTIC, len(queries), 0.0, 1.0, LIKELY_HONEST,
        f"all {len(queries)} answers bit-identical to the seed-retrained "
        f"reference; guarantee scoped to the queried set")


def probabilistic_benchmark(provider: Provider, supplier: Supplier,
                            labeled, k: int, alpha: float, rng: int,
                            replays: dict | None = None) -> Verdict:
    """Send k seeded labeled inputs to the provider, label them with the
    supplier's answering model, and compare accuracies with the pooled
    two-proportion z-test (null: provider at least as accurate as supplier).
    The inputs are picked on `rng`, and the provider is asked them in one
    call on the stream's continuation after the pick."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k > len(labeled):
        raise ParameterError(f"k={k} exceeds labeled pool ({len(labeled)})")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must be in (0,1)")
    idx, state = sample_indices(rng, len(labeled), k)
    X, y = labeled.inputs[idx], labeled.labels[idx]
    said_p = ask(X, provider, state, replays=replays)[0].labels
    said_s = forward_batch(supplier.answering_model, X).argmax(axis=1)
    correct_p, correct_s = int((said_p == y).sum()), int((said_s == y).sum())
    z, p_value = two_proportion_z(correct_s, k, correct_p, k)
    gap = (correct_s - correct_p) / k
    decision = LIKELY_FRAUDULENT if p_value < alpha else LIKELY_HONEST
    return _verdict(
        METHOD_PROBABILISTIC, k, gap, p_value, decision,
        f"k={k} pairs: supplier {correct_s}/{k}, provider {correct_p}/{k}, "
        f"z={z:.4f}")


def metaresult_verify(responses: list[tuple[np.ndarray, Response]]
                      | tuple[np.ndarray, Answers], key: bytes) -> Verdict:
    """Verify the certificate of every (query, response) pair against the
    supplier's published key. One bad or missing tag convicts. `responses`
    is a list of pairs, or a block's queries and answers as one `(X, Answers)`
    pair, whose columns are read with no Response built. The rows are checked
    as one block (`first_invalid_certificate`)."""
    if len(responses) == 2 and isinstance(responses[1], Answers):
        X, answers = responses
        probs, certificates = answers.matrix, answers.certificates
    else:
        X = [x for x, _ in responses]
        probs = [r.probs for _, r in responses]
        certificates = [r.certificate for _, r in responses]
    n = len(certificates)
    if not n:
        return _verdict(METHOD_METARESULT, 0, 0.0, 1.0, INCONCLUSIVE,
                        "no responses to verify")
    bad = first_invalid_certificate(key, X, probs, certificates)
    if bad is not None:
        return _verdict(METHOD_METARESULT, n, 1.0, 0.0, LIKELY_FRAUDULENT,
                        f"certificate {bad} invalid or missing")
    return _verdict(
        METHOD_METARESULT, n, 0.0, 1.0, LIKELY_HONEST,
        f"all {n} certificates valid; forgery probability "
        f"<= 2^-128 per response")


def binomial_tail(successes: int, n: int, p0: float, side: str) -> float:
    """Exact Binomial(n, p0) tail containing `successes` (side 'lower' for
    P(X <= s), 'upper' for P(X >= s)); log-space terms, safe for large n."""
    if not 0 <= successes <= n:
        raise ParameterError("need 0 <= successes <= n")
    if n > 0 and not 0.0 < p0 < 1.0:
        raise ParameterError("p0 must be in (0,1)")
    if side == "lower":
        return stats.binomial_tail_leq(successes, n, p0 if n else 0.5)
    if side == "upper":
        return stats.binomial_tail_geq(successes, n, p0 if n else 0.5)
    raise ParameterError(f"side must be 'lower' or 'upper', got {side!r}")


def sprt_step(state: stats.SprtState | None, observation: bool,
              p_honest: float, p_cheat: float, alpha: float,
              beta: float) -> tuple[stats.SprtState, str]:
    """Sequential probe accounting (Wald). Observations are per-probe steg
    detections; under cheating they arrive at rate p_cheat < p_honest. The
    log-likelihood ratio of cheat over honest accrues until it crosses
    log((1-beta)/alpha) (AcceptCheat) or log(beta/(1-alpha)) (AcceptHonest).
    Pass state=None to start a fresh test."""
    if state is None:
        if not 0.0 < p_cheat < p_honest < 1.0:
            raise ParameterError("need 0 < p_cheat < p_honest < 1")
        # misses are the informative events for the cheat hypothesis, so the
        # underlying test runs on flipped observations
        state = stats.sprt_init(alpha, beta, 1.0 - p_honest, 1.0 - p_cheat)
    state = stats.sprt_step(state, not observation)
    mapping = {stats.SPRT_CONTINUE: SPRT_CONTINUE,
               stats.SPRT_ACCEPT_H0: SPRT_ACCEPT_HONEST,
               stats.SPRT_ACCEPT_H1: SPRT_ACCEPT_CHEAT}
    return state, mapping[state.decision]

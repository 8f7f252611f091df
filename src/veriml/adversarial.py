"""Adversarial robustness benchmarking: gradient-sign attacks that count the
queries needed to push a target class past a probability threshold, and the
sigmoid that turns mean query counts into a per-class robustness score.

The whitebox attack reads gradients off the model; the blackbox attack sees
only an opaque scorer and estimates gradients by central finite differences,
paying for every evaluation. The scorer comes in two kinds:

- a plain callable ``x -> probabilities``, called once per query;
- a ``RowScorer`` wrapping ``X -> rows of probabilities``, called once per
  step for the step's 2 * dim probes and once for the moved point.

Both see the same points in the same order, so they give the same trace.
Query accounting is exact and part of the contract, whichever the kind:

    whitebox:  queries = 1 + n_steps
    blackbox:  queries = 1 + n_steps * (2 * dim + 1)

Also here: the static-discriminator error (how badly a fixed discriminator
separates true samples from generated ones) and the claim check comparing
measured robustness scores against a supplier's published ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, ProtocolError, ShapeError
from .mlp import MlpModel, forward, input_gradient
from .rng import derive_seed, uniform_array
from .verifiers import (LIKELY_FRAUDULENT, LIKELY_HONEST, Verdict, _verdict)

WHITEBOX = "Whitebox"
BLACKBOX = "Blackbox"

METHOD_CLAIM_CHECK = "claim_check"


@dataclass(frozen=True)
class AttackConfig:
    tau: float
    step_size: float
    max_queries: int
    fd_epsilon: float = 1e-3
    mode: str = BLACKBOX

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ParameterError("tau must be in (0,1)")
        if self.step_size <= 0:
            raise ParameterError("step_size must be > 0")
        if self.max_queries < 1:
            raise ParameterError("max_queries must be >= 1")
        if self.fd_epsilon <= 0:
            raise ParameterError("fd_epsilon must be > 0")
        if self.mode not in (WHITEBOX, BLACKBOX):
            raise ParameterError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class AttackTrace:
    start: np.ndarray
    final: np.ndarray
    target_class: int
    queries_used: int
    final_prob: float
    success: bool


@dataclass(frozen=True)
class SigmoidParams:
    q0: float
    s_scale: float

    def __post_init__(self):
        if self.q0 <= 0 or self.s_scale <= 0:
            raise ParameterError("sigmoid parameters must be positive")

    @classmethod
    def for_budget(cls, max_queries: int) -> "SigmoidParams":
        """Defaults placing immediate compromise near score 0 and budget
        exhaustion near 1: midpoint at a quarter of the budget, scale a
        sixteenth."""
        return cls(max_queries / 4.0, max_queries / 16.0)


@dataclass(frozen=True)
class RobustnessScore:
    class_id: int
    mean_queries: float
    score: float
    n_trials: int
    n_failures: int

    def to_dict(self) -> dict:
        return {"class_id": self.class_id, "mean_queries": self.mean_queries,
                "score": self.score, "n_trials": self.n_trials,
                "n_failures": self.n_failures}


def _check_tau_feasible(tau: float, n_classes: int) -> None:
    if tau <= 1.0 / n_classes:
        raise ParameterError(
            f"tau={tau} is not above chance for {n_classes} classes")


def whitebox_attack(model: MlpModel, x0, target: int, cfg: AttackConfig) -> AttackTrace:
    """Iterative ascent on the target log-probability with full gradient
    access: x <- clamp(x + step * sign(d log p_target / d x)). The initial
    evaluation and each post-step evaluation count one query."""
    if cfg.mode != WHITEBOX:
        raise ParameterError("config mode must be Whitebox")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1 or len(x0) != model.n_in:
        raise ShapeError(f"start point must have dim {model.n_in}")
    if not 0 <= target < model.n_out:
        raise ParameterError(f"target {target} out of range")
    _check_tau_feasible(cfg.tau, model.n_out)

    x = x0.copy()
    prob = float(forward(model, x)[target])
    queries = 1
    while prob < cfg.tau and queries < cfg.max_queries:
        g = input_gradient(model, x, target)
        x = np.clip(x + cfg.step_size * np.sign(g), 0.0, 1.0)
        prob = float(forward(model, x)[target])
        queries += 1
    return AttackTrace(x0, x, target, queries, prob, prob >= cfg.tau)


@dataclass(frozen=True)
class RowScorer:
    """A blackbox scorer over many points at once: `fn` maps an (m, dim)
    array to (m, n_classes) probabilities, row i answering X[i]."""

    fn: Callable[[np.ndarray], np.ndarray]


Scorer = Callable[[np.ndarray], Sequence[float]] | RowScorer


def _rows_of(query: Scorer) -> Callable[[np.ndarray], np.ndarray]:
    """The rows form of a scorer; a plain callable is asked once per row."""
    if isinstance(query, RowScorer):
        return query.fn

    def rows(X: np.ndarray) -> np.ndarray:
        out = [np.asarray(query(x), dtype=np.float64) for x in X]
        if len({p.shape for p in out}) != 1:
            raise ProtocolError("scorer must return a probability vector")
        return np.stack(out)
    return rows


def _checked_probs(raw, m: int) -> np.ndarray:
    """The scorer's answer to m points, checked row by row."""
    probs = np.asarray(raw, dtype=np.float64)
    if probs.ndim != 2 or len(probs) != m or probs.shape[1] < 2:
        raise ProtocolError("scorer must return a probability vector")
    if not np.all(np.isfinite(probs)) or probs.min() < 0.0:
        raise ProtocolError("scorer returned non-probabilities")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise ProtocolError("scorer probabilities do not sum to 1")
    return probs


def blackbox_attack(query: Scorer, dim: int, x0, target: int,
                    cfg: AttackConfig) -> AttackTrace:
    """Same sign-step ascent against an opaque scorer. Each step estimates
    the gradient by central finite differences over all `dim` coordinates
    (2*dim queries, scored as one batch: up_0, dn_0, up_1, dn_1, ...) and
    then evaluates the moved point (1 query); a step is only begun when the
    full 2*dim+1 fits into the remaining budget, so the closed-form count
    1 + n_steps*(2*dim+1) holds exactly."""
    if cfg.mode != BLACKBOX:
        raise ParameterError("config mode must be Blackbox")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1 or len(x0) != dim:
        raise ShapeError(f"start point must have dim {dim}")
    score = _rows_of(query)

    probs = _checked_probs(score(x0[None, :]), 1)[0]
    if not 0 <= target < len(probs):
        raise ParameterError(f"target {target} out of range for {len(probs)} classes")
    _check_tau_feasible(cfg.tau, len(probs))
    x = x0.copy()
    prob = float(probs[target])
    queries = 1
    step_cost = 2 * dim + 1
    coord = np.arange(dim)
    while prob < cfg.tau and queries + step_cost <= cfg.max_queries:
        probes = np.repeat(x[None, :], 2 * dim, axis=0)
        probes[2 * coord, coord] = np.minimum(1.0, x + cfg.fd_epsilon)
        probes[2 * coord + 1, coord] = np.maximum(0.0, x - cfg.fd_epsilon)
        p = _checked_probs(score(probes), 2 * dim)[:, target]
        g = (p[0::2] - p[1::2]) / (2.0 * cfg.fd_epsilon)
        x = np.clip(x + cfg.step_size * np.sign(g), 0.0, 1.0)
        prob = float(_checked_probs(score(x[None, :]), 1)[0, target])
        queries += step_cost
    return AttackTrace(x0, x, target, queries, prob, prob >= cfg.tau)


def robustness_score(mean_queries: float, params: SigmoidParams) -> float:
    """1 / (1 + exp(-(mean_queries - q0)/s_scale)); higher = harder to attack."""
    if mean_queries < 0:
        raise ParameterError("mean_queries must be >= 0")
    return 1.0 / (1.0 + math.exp(-(mean_queries - params.q0) / params.s_scale))


def robustness_benchmark(service: Scorer, dim: int, classes: Sequence[int],
                         trials_per_class: int, cfg: AttackConfig,
                         params: SigmoidParams, seed: int) -> list[RobustnessScore]:
    """Per class: attack from `trials_per_class` uniform starts in [0,1]^dim
    (seeded per (class, trial)) and average the query counts, charging failed
    attacks the full budget. Deterministic given the seed."""
    if trials_per_class < 1:
        raise ParameterError("trials_per_class must be >= 1")
    out = []
    for ci, cls in enumerate(classes):
        total = 0.0
        failures = 0
        for t in range(trials_per_class):
            start_state = derive_seed(seed, ci * trials_per_class + t)
            x0, _ = uniform_array(start_state, dim)
            trace = blackbox_attack(service, dim, x0, cls, cfg)
            if trace.success:
                total += trace.queries_used
            else:
                failures += 1
                total += cfg.max_queries
        mean_q = total / trials_per_class
        out.append(RobustnessScore(cls, mean_q, robustness_score(mean_q, params),
                                   trials_per_class, failures))
    return out


def discriminator_error(d: Callable[[np.ndarray], float],
                        true_samples: Sequence, gen_samples: Sequence) -> float:
    """mean over true of (1 - d(x)) plus mean over generated of d(x): the
    objective a generator facing the fixed discriminator d maximizes.
    0 = perfect discrimination, 2 = perfectly inverted, 1 = uninformative."""
    if len(true_samples) == 0 or len(gen_samples) == 0:
        raise ParameterError("both sample lists must be nonempty")
    true_term = math.fsum(1.0 - float(d(np.asarray(x))) for x in true_samples)
    gen_term = math.fsum(float(d(np.asarray(x))) for x in gen_samples)
    return true_term / len(true_samples) + gen_term / len(gen_samples)


def claim_check(measured: Sequence[RobustnessScore],
                claimed: Sequence[tuple[int, float]], tolerance: float) -> Verdict:
    """Compare measured per-class robustness against published claims:
    fraudulent when any class measures more than `tolerance` below its
    claim."""
    if tolerance < 0:
        raise ParameterError("tolerance must be >= 0")
    got = {m.class_id: m.score for m in measured}
    want = dict(claimed)
    if set(got) != set(want):
        raise ParameterError(
            f"class sets differ: measured {sorted(got)} vs claimed {sorted(want)}")
    deltas = {c: got[c] - want[c] for c in sorted(got)}
    short = [c for c, dv in deltas.items() if dv < -tolerance]
    detail = "deltas " + ", ".join(f"class {c}: {dv:+.4f}" for c, dv in deltas.items())
    if short:
        return _verdict(METHOD_CLAIM_CHECK, len(got), float(len(short)), 0.0,
                        LIKELY_FRAUDULENT,
                        f"classes {short} fall more than {tolerance} below "
                        f"their claimed scores; " + detail)
    return _verdict(METHOD_CLAIM_CHECK, len(got), 0.0, 1.0, LIKELY_HONEST,
                    f"all classes within {tolerance} of claims; " + detail)

"""Adversarial robustness benchmarking: gradient-sign attacks that count the
queries needed to push a target class past a probability threshold, and the
sigmoid that turns mean query counts into a per-class robustness score.

The whitebox attack reads gradients off the model; the blackbox attacks see
only an opaque scorer and estimate gradients by central finite differences,
paying for every evaluation. Many blackbox attacks advance in lockstep: each
step scores every live attack's 2 * dim probes in one call, then every live
attack's moved point in a second. A scorer is one function, ``fn(X, owners)
-> probabilities``: it maps an (m, dim) array to (m, n_classes) rows, row i
answering X[i] for attack ``owners[i]`` (an index into the attacks' starts;
each attack's rows consecutive). A stateless scorer ignores the owners; a
service that draws per attack asks each row on its owner's stream.

Query accounting is exact and part of the contract:

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
        if not 0 < self.step_size < math.inf:
            raise ParameterError("step_size must be finite and > 0")
        if self.max_queries < 1:
            raise ParameterError("max_queries must be >= 1")
        if not 0 < self.fd_epsilon < math.inf:
            raise ParameterError("fd_epsilon must be finite and > 0")
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
        if not (0 < self.q0 < math.inf and 0 < self.s_scale < math.inf):
            raise ParameterError("sigmoid parameters must be finite and positive")

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


Scorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _checked_probs(raw, m: int, width: int | None = None) -> np.ndarray:
    """The scorer's answer to m points, checked row by row (and against the
    class count `width` once it is known)."""
    probs = np.asarray(raw, dtype=np.float64)
    if (probs.ndim != 2 or len(probs) != m or probs.shape[1] < 2
            or width is not None and probs.shape[1] != width):
        raise ProtocolError("scorer must return a probability vector")
    if not np.all(np.isfinite(probs)) or probs.min() < 0.0:
        raise ProtocolError("scorer returned non-probabilities")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise ProtocolError("scorer probabilities do not sum to 1")
    return probs


def blackbox_attacks(query: Scorer, dim: int, starts: Sequence,
                     targets: Sequence[int], cfg: AttackConfig) -> list[AttackTrace]:
    """Sign-step ascent against an opaque scorer, one attack per (start,
    target), all advancing in lockstep. Each step estimates an attack's
    gradient by central finite differences over all `dim` coordinates (2*dim
    queries: up_0, dn_0, up_1, dn_1, ...) and then evaluates the moved point
    (1 query). The scorer sees every start in one call, then per step every
    live attack's probes in one call (attack-major) and every live attack's
    moved point in a second. An attack leaves the live set when it reaches
    tau or when the next full 2*dim+1 would overrun its budget, so the
    closed-form count 1 + n_steps*(2*dim+1) holds exactly per attack. The
    attacks share nothing, so with a batch-invariant scorer each trace is the
    one its attack gets alone."""
    if cfg.mode != BLACKBOX:
        raise ParameterError("config mode must be Blackbox")
    starts = [np.asarray(x0, dtype=np.float64) for x0 in starts]
    if len(starts) != len(targets):
        raise ParameterError("need one target per start")
    for x0 in starts:
        if x0.ndim != 1 or len(x0) != dim:
            raise ShapeError(f"start point must have dim {dim}")
    if not starts:
        return []

    n = len(starts)
    live = np.arange(n)
    probs = _checked_probs(query(np.array(starts), live), n)
    width = probs.shape[1]
    for target in targets:
        if not 0 <= target < width:
            raise ParameterError(f"target {target} out of range for {width} classes")
    _check_tau_feasible(cfg.tau, width)
    tgt = np.array(targets, dtype=np.intp)
    x = np.array(starts)
    prob = probs[live, tgt]
    # every live attack has taken every step so far, so one count serves all
    queries = 1
    step_cost = 2 * dim + 1
    coord = np.arange(dim)
    steps = np.zeros(n, dtype=np.intp)
    live = live[prob < cfg.tau]
    while len(live) and queries + step_cost <= cfg.max_queries:
        m, xl = len(live), x[live]
        probes = np.repeat(xl[:, None, :], 2 * dim, axis=1)
        probes[:, 2 * coord, coord] = np.minimum(1.0, xl + cfg.fd_epsilon)
        probes[:, 2 * coord + 1, coord] = np.maximum(0.0, xl - cfg.fd_epsilon)
        p = _checked_probs(query(probes.reshape(m * 2 * dim, dim),
                                 np.repeat(live, 2 * dim)), m * 2 * dim, width)
        p = p.reshape(m, 2 * dim, width)[np.arange(m), :, tgt[live]]
        g = (p[:, 0::2] - p[:, 1::2]) / (2.0 * cfg.fd_epsilon)
        xl = np.clip(xl + cfg.step_size * np.sign(g), 0.0, 1.0)
        x[live] = xl
        moved = _checked_probs(query(xl, live), m, width)
        prob[live] = moved[np.arange(m), tgt[live]]
        steps[live] += 1
        queries += step_cost
        live = live[prob[live] < cfg.tau]
    return [AttackTrace(starts[k], x[k], targets[k], 1 + int(steps[k]) * step_cost,
                        float(prob[k]), bool(prob[k] >= cfg.tau)) for k in range(n)]


def blackbox_attack(query: Scorer, dim: int, x0, target: int,
                    cfg: AttackConfig) -> AttackTrace:
    """One black-box attack: the one-attack case of `blackbox_attacks`."""
    return blackbox_attacks(query, dim, [x0], [target], cfg)[0]


def robustness_score(mean_queries: float, params: SigmoidParams) -> float:
    """1 / (1 + exp(-(mean_queries - q0)/s_scale)); higher = harder to attack."""
    if mean_queries < 0:
        raise ParameterError("mean_queries must be >= 0")
    return 1.0 / (1.0 + math.exp(-(mean_queries - params.q0) / params.s_scale))


def robustness_benchmark(service: Scorer, dim: int, classes: Sequence[int],
                         trials_per_class: int, cfg: AttackConfig,
                         params: SigmoidParams, seed: int) -> list[RobustnessScore]:
    """Per class: attack from `trials_per_class` uniform starts in [0,1]^dim
    and average the query counts, charging failed attacks the full budget.
    Attack k = class_index * trials_per_class + trial starts from
    derive_seed(seed, k); all attacks run in one `blackbox_attacks` call, so
    the scorer's owners are these k. Deterministic given the seed."""
    if trials_per_class < 1:
        raise ParameterError("trials_per_class must be >= 1")
    classes = list(classes)
    if len(set(classes)) != len(classes):
        raise ParameterError(f"duplicate classes in {classes}")
    starts = [uniform_array(derive_seed(seed, k), dim)[0]
              for k in range(len(classes) * trials_per_class)]
    targets = [cls for cls in classes for _ in range(trials_per_class)]
    traces = blackbox_attacks(service, dim, starts, targets, cfg)
    out = []
    for ci, cls in enumerate(classes):
        total = 0.0
        failures = 0
        for trace in traces[ci * trials_per_class:(ci + 1) * trials_per_class]:
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
    if not tolerance >= 0:
        raise ParameterError("tolerance must be >= 0")
    got = {m.class_id: m.score for m in measured}
    want = dict(claimed)
    if not all(map(math.isfinite, [*got.values(), *want.values()])):
        raise ParameterError("measured and claimed scores must be finite: "
                             f"measured {got}, claimed {want}")
    if len(got) != len(measured) or len(want) != len(claimed):
        raise ParameterError("duplicate class ids: measured "
                             f"{[m.class_id for m in measured]}, claimed "
                             f"{[c for c, _ in claimed]}")
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

"""Small statistics toolbox: exact binomial tails, a pooled two-proportion
z-test, and Wald's sequential probability ratio test.

The binomial tails are exact (log-space terms, compensated summation), not
normal approximations — the probe verdicts quote them as p-values and the
tests compare them against a rational-arithmetic oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ParameterError

SPRT_CONTINUE = "continue"
SPRT_ACCEPT_H0 = "accept_h0"
SPRT_ACCEPT_H1 = "accept_h1"


def _check_prob(p: float, name: str) -> None:
    if not 0.0 <= p <= 1.0 or math.isnan(p):
        raise ParameterError(f"{name} must be in [0, 1], got {p}")


def _log_pmf(k: int, n: int, p: float) -> float:
    """log P(X = k) for X ~ Binomial(n, p), 0 < p < 1."""
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_tail_leq(k: int, n: int, p: float) -> float:
    """Exact P(X <= k) for X ~ Binomial(n, p)."""
    if n < 0:
        raise ParameterError("n must be >= 0")
    _check_prob(p, "p")
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    total = math.fsum(math.exp(_log_pmf(i, n, p)) for i in range(k + 1))
    return min(1.0, total)


def binomial_tail_geq(k: int, n: int, p: float) -> float:
    """Exact P(X >= k) for X ~ Binomial(n, p). Summed directly from the upper
    side rather than via 1 - P(X <= k-1) so tiny tails keep full precision."""
    if n < 0:
        raise ParameterError("n must be >= 0")
    _check_prob(p, "p")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    total = math.fsum(math.exp(_log_pmf(i, n, p)) for i in range(k, n + 1))
    return min(1.0, total)


def normal_sf(z: float) -> float:
    """Upper tail P(Z >= z) of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def two_proportion_z(successes_a: int, n_a: int,
                     successes_b: int, n_b: int) -> tuple[float, float]:
    """Pooled two-proportion z-test of H1: rate_a > rate_b.

    Returns (z, upper-tail p-value). When the pooled rate is degenerate
    (0 or 1, i.e. both samples agree at an extreme) the statistic is 0 and
    the p-value 0.5 — no evidence either way.
    """
    for name, val in (("n_a", n_a), ("n_b", n_b)):
        if val < 1:
            raise ParameterError(f"{name} must be >= 1")
    if not 0 <= successes_a <= n_a:
        raise ParameterError("successes_a out of range")
    if not 0 <= successes_b <= n_b:
        raise ParameterError("successes_b out of range")
    pa = successes_a / n_a
    pb = successes_b / n_b
    pooled = (successes_a + successes_b) / (n_a + n_b)
    se2 = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    if se2 <= 0.0:
        return 0.0, 0.5
    z = (pa - pb) / math.sqrt(se2)
    return z, normal_sf(z)


@dataclass(frozen=True)
class SprtState:
    """One in-progress sequential test of H1: rate = p1 vs H0: rate = p0."""

    alpha: float
    beta: float
    p0: float
    p1: float
    llr: float = 0.0
    n_obs: int = 0
    decision: str = SPRT_CONTINUE

    @property
    def upper(self) -> float:
        return math.log((1.0 - self.beta) / self.alpha)

    @property
    def lower(self) -> float:
        return math.log(self.beta / (1.0 - self.alpha))


def sprt_init(alpha: float, beta: float, p0: float, p1: float) -> SprtState:
    for name, v in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < v < 1.0:
            raise ParameterError(f"{name} must be in (0, 1)")
    if not 0.0 < p0 < p1 < 1.0:
        raise ParameterError("need 0 < p0 < p1 < 1")
    return SprtState(alpha, beta, p0, p1)


def sprt_step(state: SprtState, hit: bool) -> SprtState:
    """Fold one Bernoulli observation in; settles once a boundary is crossed
    and further observations are rejected."""
    if state.decision != SPRT_CONTINUE:
        raise ParameterError("sequential test already decided")
    inc = (math.log(state.p1 / state.p0) if hit
           else math.log((1.0 - state.p1) / (1.0 - state.p0)))
    llr = state.llr + inc
    decision = SPRT_CONTINUE
    if llr >= state.upper:
        decision = SPRT_ACCEPT_H1
    elif llr <= state.lower:
        decision = SPRT_ACCEPT_H0
    return replace(state, llr=llr, n_obs=state.n_obs + 1, decision=decision)

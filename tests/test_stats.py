import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veriml import stats
from veriml.errors import ParameterError


def brute_tail_leq(k, n, p):
    pf = Fraction(p)  # the exact rational value of the float
    return float(sum(math.comb(n, i) * pf ** i * (1 - pf) ** (n - i)
                     for i in range(0, k + 1)))


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=25), st.data(),
       st.floats(min_value=0.01, max_value=0.99))
def test_binomial_leq_matches_enumeration(n, data, p):
    k = data.draw(st.integers(min_value=0, max_value=n))
    got = stats.binomial_tail_leq(k, n, p)
    want = brute_tail_leq(k, n, p)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=25), st.data(),
       st.floats(min_value=0.01, max_value=0.99))
def test_binomial_tails_are_complementary(n, data, p):
    k = data.draw(st.integers(min_value=0, max_value=n))
    leq = stats.binomial_tail_leq(k, n, p)
    geq = stats.binomial_tail_geq(k + 1, n, p)
    assert leq + geq == pytest.approx(1.0, abs=1e-12)


def test_binomial_edge_counts():
    assert stats.binomial_tail_leq(5, 5, 0.3) == 1.0
    assert stats.binomial_tail_geq(0, 5, 0.3) == 1.0
    assert stats.binomial_tail_leq(-1, 5, 0.3) == 0.0
    assert stats.binomial_tail_geq(6, 5, 0.3) == 0.0


def test_binomial_degenerate_rates():
    assert stats.binomial_tail_leq(0, 10, 0.0) == 1.0
    assert stats.binomial_tail_leq(9, 10, 1.0) == 0.0
    assert stats.binomial_tail_geq(10, 10, 1.0) == 1.0


def test_binomial_monotone_in_k():
    vals = [stats.binomial_tail_leq(k, 20, 0.4) for k in range(21)]
    assert vals == sorted(vals)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_binomial_rejects_bad_args():
    with pytest.raises(ParameterError):
        stats.binomial_tail_leq(1, -1, 0.5)
    with pytest.raises(ParameterError):
        stats.binomial_tail_leq(1, 5, 1.5)


def test_normal_sf_reference_points():
    assert stats.normal_sf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert stats.normal_sf(-1.959963984540054) == pytest.approx(0.975, abs=1e-9)
    assert stats.normal_sf(3.0) == pytest.approx(1.3498980316301e-3, rel=1e-9)


@given(st.floats(min_value=-6, max_value=6))
def test_normal_symmetry(z):
    assert stats.normal_sf(z) + stats.normal_sf(-z) == pytest.approx(1.0, abs=1e-12)


def test_two_proportion_hand_case():
    # 90/100 vs 70/100: pooled 0.8, z = 0.2/sqrt(0.8*0.2*0.02) = 3.5355...,
    # one-sided upper tail ~ 2.03e-4
    z, p = stats.two_proportion_z(90, 100, 70, 100)
    assert z == pytest.approx(3.5355339059327378, rel=1e-12)
    assert p == pytest.approx(2.0347595624468e-4, abs=1e-6)


def test_two_proportion_degenerate_pool():
    z, p = stats.two_proportion_z(0, 50, 0, 50)
    assert (z, p) == (0.0, 0.5)
    z, p = stats.two_proportion_z(50, 50, 50, 50)
    assert (z, p) == (0.0, 0.5)


def test_two_proportion_sign_and_antisymmetry():
    z_ab, p_ab = stats.two_proportion_z(40, 50, 20, 50)
    z_ba, p_ba = stats.two_proportion_z(20, 50, 40, 50)
    assert z_ab > 0 > z_ba
    assert z_ab == pytest.approx(-z_ba, rel=1e-12)
    assert p_ab < 0.5 < p_ba


def test_two_proportion_rejects_bad_counts():
    with pytest.raises(ParameterError):
        stats.two_proportion_z(5, 4, 0, 4)
    with pytest.raises(ParameterError):
        stats.two_proportion_z(-1, 4, 0, 4)
    with pytest.raises(ParameterError):
        stats.two_proportion_z(0, 0, 0, 4)


def test_sprt_thresholds():
    s = stats.sprt_init(0.05, 0.1, 0.2, 0.6)
    assert s.upper == pytest.approx(math.log(0.9 / 0.05))
    assert s.lower == pytest.approx(math.log(0.1 / 0.95))
    assert s.decision == stats.SPRT_CONTINUE and s.n_obs == 0


def test_sprt_accepts_h1_on_hit_streak():
    s = stats.sprt_init(0.05, 0.05, 0.2, 0.6)
    for _ in range(100):
        s = stats.sprt_step(s, True)
        if s.decision != stats.SPRT_CONTINUE:
            break
    assert s.decision == stats.SPRT_ACCEPT_H1
    assert s.llr >= s.upper


def test_sprt_accepts_h0_on_miss_streak():
    s = stats.sprt_init(0.05, 0.05, 0.2, 0.6)
    for _ in range(100):
        s = stats.sprt_step(s, False)
        if s.decision != stats.SPRT_CONTINUE:
            break
    assert s.decision == stats.SPRT_ACCEPT_H0
    assert s.llr <= s.lower


def test_sprt_refuses_after_decision():
    s = stats.sprt_init(0.05, 0.05, 0.1, 0.9)
    while s.decision == stats.SPRT_CONTINUE:
        s = stats.sprt_step(s, True)
    with pytest.raises(ParameterError):
        stats.sprt_step(s, True)


def test_sprt_init_validation():
    with pytest.raises(ParameterError):
        stats.sprt_init(0.05, 0.05, 0.6, 0.2)  # p0 >= p1
    with pytest.raises(ParameterError):
        stats.sprt_init(0.0, 0.05, 0.2, 0.6)


def test_sprt_llr_is_sum_of_increments():
    s = stats.sprt_init(0.2, 0.2, 0.3, 0.7)
    inc_hit = math.log(0.7 / 0.3)
    inc_miss = math.log(0.3 / 0.7)
    s = stats.sprt_step(s, True)
    s = stats.sprt_step(s, False)
    assert s.llr == pytest.approx(inc_hit + inc_miss, rel=1e-12)
    assert s.n_obs == 2

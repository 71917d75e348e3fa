import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import vframe as vf
from vframe.bounds import BoundInput
from vframe.errors import BranchError, DomainError


def direct_kappa_c(n, m, l):
    """Independent oracle: no log-domain tricks, integer binomial."""
    t = math.comb(m, l)
    h = vf.binary_entropy((l - 1) / (n - 2)) if n > 2 else 0.0
    return (t * (n - 1) * 2.0 ** ((n - 2) * h)) ** (-1.0 / (n - l - 1))


# -- entropy ------------------------------------------------------------------

def test_entropy_endpoints():
    assert vf.binary_entropy(0.0) == 0.0
    assert vf.binary_entropy(1.0) == 0.0


def test_entropy_half():
    assert vf.binary_entropy(0.5) == pytest.approx(1.0)


def test_entropy_quarter():
    assert vf.binary_entropy(0.25) == pytest.approx(0.811278124459, abs=1e-9)
    # sanity: the binomial bound C(4,1) <= 2^(4 H(1/4))
    assert math.comb(4, 1) <= 2 ** (4 * vf.binary_entropy(0.25)) + 1e-9


def test_entropy_domain():
    with pytest.raises(DomainError):
        vf.binary_entropy(-0.1)
    with pytest.raises(DomainError):
        vf.binary_entropy(1.1)


# -- log binomial ---------------------------------------------------------------

def test_log_binomial_small():
    assert math.exp(vf.log_binomial(12, 2)) == pytest.approx(66.0, rel=1e-12)


def test_log_binomial_exact_up_to_20():
    for m in range(0, 21):
        for l in range(0, m + 1):
            assert math.exp(vf.log_binomial(m, l)) == pytest.approx(
                math.comb(m, l), rel=1e-10
            )


def test_log_binomial_entropy_sandwich():
    # log2 C(M, L) <= M H(L/M) for 0 < L < M
    for m in range(2, 40):
        for l in range(1, m):
            assert vf.log_binomial(m, l) / math.log(2) <= m * vf.binary_entropy(l / m) + 1e-9


def test_log_binomial_domain():
    with pytest.raises(DomainError):
        vf.log_binomial(3, 5)


def test_log_binomial_is_exact_on_the_sweep_grid():
    # every (M, L) of the sweep grid N <= 64, M = f*N, f in {1, 2, 3, 4, 8},
    # against the log of the integer binomial
    for n in range(1, 65):
        for m in (n, 2 * n, 3 * n, 4 * n, 8 * n):
            for l in range(n + 1):
                assert abs(vf.log_binomial(m, l) - math.log(math.comb(m, l))) <= 2e-12


def test_log_binomial_is_accurate_for_large_m():
    # Past m = 4096 the ratio Gamma(m + 1) / Gamma(m - k + 1) is taken by
    # Stirling's series: three log-gamma values would cancel to the bits
    # left over (log C(10**15, 1) would be 32.0 against 34.54).
    for i in range(10, 150):
        m = math.floor(1.37**i)
        for l in (1, 2, 3, 5, 17, 100, 1000, 5000, m // 2, m - 1):
            if 0 <= l <= m and min(l, m - l) <= 6000:
                exact = math.log(math.comb(m, l))
                assert abs(vf.log_binomial(m, l) - exact) <= 5e-13 * exact
    assert vf.log_binomial(3 * 10**305, 1) == math.log(3 * 10**305)
    assert vf.log_binomial(3 * 10**305, 0) == 0.0


def test_log_binomial_refuses_m_past_a_double():
    # Past 1.8e308 M itself is no double: a typed error, not OverflowError.
    with pytest.raises(DomainError, match="past the range of a double"):
        vf.log_binomial(10**309, 1)
    with pytest.raises(DomainError):
        vf.distortion_lower_bound(BoundInput(10, 10**309, 1))


# -- cap area -------------------------------------------------------------------

def test_cap_area_edges():
    assert vf.cap_area_ratio(0.0, 5, 2) == 0.0
    assert vf.cap_area_ratio(1.0, 5, 2) == 1.0


def test_cap_area_closed_form_l_equals_n_minus_1():
    # N=3, L=2: 1 - (1 - rho)^2
    assert vf.cap_area_ratio(0.5, 3, 2) == pytest.approx(0.75, abs=1e-12)


def test_cap_area_hand_integral():
    # int_0^0.3 6 x (1-x) dx = 0.216
    assert vf.cap_area_ratio(0.3, 4, 2) == pytest.approx(0.216, abs=1e-12)


def test_cap_area_matches_quadrature_oracle():
    for n, l in [(4, 1), (5, 2), (8, 3), (12, 6), (20, 10)]:
        c = math.exp(special.gammaln(n) - special.gammaln(n - l) - special.gammaln(l))
        for rho in (0.05, 0.3, 0.7, 0.95):
            oracle, _ = integrate.quad(
                lambda x: c * x ** (n - l - 1) * (1 - x) ** (l - 1), 0.0, rho
            )
            assert vf.cap_area_ratio(rho, n, l) == pytest.approx(oracle, abs=1e-10)


def test_cap_area_matches_scipy_betainc():
    for n, l in [(6, 2), (10, 4), (25, 12)]:
        for rho in np.linspace(0.01, 0.99, 13):
            expect = special.betainc(n - l, l, rho)
            assert vf.cap_area_ratio(float(rho), n, l) == pytest.approx(expect, abs=1e-12)


def test_cap_area_monotone():
    grid = np.linspace(0.0, 1.0, 101)
    vals = [vf.cap_area_ratio(float(r), 7, 3) for r in grid]
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_cap_area_beta_sampling_oracle():
    # residual fraction of a fixed plane is Beta(N-L, L); empirical CDF
    # of beta draws must match cap_area_ratio
    rng = np.random.default_rng(99)
    draws = rng.beta(2, 2, size=10_000)  # N=4, L=2
    ks = stats.kstest(draws, lambda a: np.array([vf.cap_area_ratio(v, 4, 2) for v in a]))
    assert ks.statistic <= 0.02


def test_cap_area_domain():
    with pytest.raises(DomainError):
        vf.cap_area_ratio(1.5, 4, 2)
    with pytest.raises(DomainError):
        vf.cap_area_ratio(0.5, 4, 0)
    with pytest.raises(DomainError):
        vf.cap_area_ratio(0.5, 4, 4)


# -- kappa_c / rho_0 / Lambda -----------------------------------------------------

def test_kappa_c_reference_value():
    k = vf.kappa_c(BoundInput(6, 12, 2))
    assert k == pytest.approx(0.0684, abs=5e-5)
    assert k == pytest.approx(direct_kappa_c(6, 12, 2), rel=1e-12)


def test_kappa_c_l1_simplification():
    # H(0) = 0 drops the entropy factor: kappa_c = (T (N-1))^(-1/(N-2))
    inp = BoundInput(8, 16, 1)
    expect = (math.comb(16, 1) * 7) ** (-1.0 / 6.0)
    assert vf.kappa_c(inp) == pytest.approx(expect, rel=1e-12)


def test_kappa_c_branch_errors():
    with pytest.raises(BranchError):
        vf.kappa_c(BoundInput(6, 12, 0))
    with pytest.raises(BranchError):
        vf.kappa_c(BoundInput(6, 12, 5))


@pytest.mark.parametrize("call,error", [
    (lambda: vf.rho_0(BoundInput(6, 12, 0)), BranchError),
    (lambda: vf.rho_0(BoundInput(6, 12, 6)), BranchError),
    (lambda: vf.lambda_bound(-0.1, BoundInput(6, 12, 2)), DomainError),
    (lambda: vf.lambda_bound(1.1, BoundInput(6, 12, 2)), DomainError),
    (lambda: vf.lambda_bound(0.5, BoundInput(6, 12, 0)), BranchError),
    (lambda: vf.lambda_bound(0.5, BoundInput(6, 12, 5)), BranchError),
], ids=["rho0-l-0", "rho0-l-n", "lambda-rho-below-0", "lambda-rho-above-1",
        "lambda-l-0", "lambda-l-n-1"])
def test_input_checks_raise(call, error):
    with pytest.raises(error):
        call()


def test_rho_0_reference_values():
    assert vf.rho_0(BoundInput(6, 12, 2)) == pytest.approx(0.0700, abs=5e-5)
    # L = N-1 closed form: 1 - (14/15)^(1/2)
    assert vf.rho_0(BoundInput(3, 6, 2)) == pytest.approx(1 - math.sqrt(14 / 15), rel=1e-12)
    assert vf.rho_0(BoundInput(3, 6, 2)) == pytest.approx(0.03391, abs=5e-6)


def test_lambda_zero_at_zero():
    assert vf.lambda_bound(0.0, BoundInput(6, 12, 2)) == 0.0


@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_lambda_is_inf_past_log_700(rho):
    # log Lambda is about 2,060 at (10, 1e300, 3): exp would overflow.
    assert vf.lambda_bound(rho, BoundInput(10, 10**300, 3)) == math.inf


def test_lambda_equals_one_at_rho0():
    for n in (4, 7, 12, 20, 30):
        for m in (n, 2 * n, 4 * n):
            for l in range(1, n - 1):
                inp = BoundInput(n, m, l)
                assert abs(vf.lambda_bound(vf.rho_0(inp), inp) - 1.0) <= 1e-10


def test_lambda_strictly_increasing():
    inp = BoundInput(8, 24, 3)
    grid = np.linspace(0.0, 1.0, 40)
    vals = [vf.lambda_bound(float(r), inp) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_union_bound_chain():
    # T * cap_area_ratio(rho) <= Lambda(rho) everywhere it is defined
    for n in (5, 9, 14):
        for l in range(1, n - 1):
            inp = BoundInput(n, 3 * n, l)
            t = math.exp(inp.log_t)
            for rho in np.linspace(0.01, 0.99, 25):
                lhs = t * vf.cap_area_ratio(float(rho), n, l)
                rhs = vf.lambda_bound(float(rho), inp)
                assert lhs <= rhs * (1 + 1e-12)


# -- the distortion bound ----------------------------------------------------------

def test_bound_l0_and_ln():
    assert vf.distortion_lower_bound(BoundInput(6, 12, 0)).lower_bound == 1.0
    assert vf.distortion_lower_bound(BoundInput(6, 12, 6)).lower_bound == 0.0
    assert vf.distortion_lower_bound(BoundInput(6, 12, 0)).branch == vf.BRANCH_L0
    assert vf.distortion_lower_bound(BoundInput(6, 12, 6)).branch == vf.BRANCH_LN


def test_bound_reference_value():
    rep = vf.distortion_lower_bound(BoundInput(6, 12, 2))
    assert rep.branch == vf.BRANCH_MID
    assert rep.lower_bound == pytest.approx(0.0521, abs=5e-5)
    # independent arithmetic
    k = direct_kappa_c(6, 12, 2)
    r0 = k / (1 - k * 1 / 3)
    assert rep.lower_bound == pytest.approx(r0 - r0 * r0 / (k * 4), rel=1e-12)


def test_bound_last_branch_matches_quadrature():
    # closed form equals int_0^rho0 (1 - T (1 - (1-eta)^(N-1))) d eta
    for n in range(3, 13):
        for m in (n, 2 * n, 3 * n):
            inp = BoundInput(n, m, n - 1)
            rep = vf.distortion_lower_bound(inp)
            t = math.exp(inp.log_t)
            r0 = vf.rho_0(inp)
            oracle, _ = integrate.quad(
                lambda e: 1 - t * (1 - (1 - e) ** (n - 1)), 0.0, r0, epsabs=1e-14
            )
            assert rep.lower_bound == pytest.approx(oracle, abs=1e-8)
            assert rep.branch == vf.BRANCH_LNM1


def test_bound_sweep_invariants():
    # full sweep: rho_0 and the bound stay in [0, 1]; the scale
    # inequality (L-1)/(N-L-1) kappa_c < 1 holds on the mid branch
    for n in range(1, 31):
        for m in range(n, 4 * n + 1):
            for l in range(0, n + 1):
                rep = vf.distortion_lower_bound(BoundInput(n, m, l))
                assert 0.0 <= rep.lower_bound <= 1.0, (n, m, l)
                if not math.isnan(rep.rho_0):
                    assert 0.0 <= rep.rho_0 <= 1.0
                if rep.branch == vf.BRANCH_MID:
                    q = rep.kappa_c * (l - 1) / (n - l - 1)
                    assert q < 1.0


def test_tail_bracket_series_consistency():
    # series evaluation must agree with the direct form where both work
    from vframe.bounds import _tail_bracket

    for n in (5, 12, 30):
        for rho in (0.4 / n, 0.51 / n, 2.0 / n, 0.3):
            direct = rho - (1 - (1 - rho) ** n) / n
            assert _tail_bracket(rho, n) == pytest.approx(direct, rel=1e-6, abs=1e-18)


# -- inequality suites ---------------------------------------------------------

def test_integrand_inequality_grid():
    # int_0^rho x^(N-L-1)(1-x)^(L-1) dx <= int_0^rho (x/(1+x(L-1)/(N-L-1)))^(N-L-1) dx
    xs = np.linspace(0.0, 0.99, 991)
    for n in range(3, 21):
        for l in range(1, n - 1):
            f = xs ** (n - l - 1) * (1 - xs) ** (l - 1)
            g = (xs / (1 + xs * (l - 1) / (n - l - 1))) ** (n - l - 1)
            lhs = integrate.cumulative_trapezoid(f, xs, initial=0.0)
            rhs = integrate.cumulative_trapezoid(g, xs, initial=0.0)
            keep = np.searchsorted(xs, np.arange(0.01, 1.0, 0.01))
            assert np.all(lhs[keep] <= rhs[keep] + 1e-12)


def test_gamma_entropy_inequality_grid():
    # Gamma(N)/(Gamma(N-L)Gamma(L)) <= (N-1) 2^((N-2) H((L-1)/(N-2)))
    for n in range(3, 21):
        for l in range(1, n - 1):
            lhs = special.gammaln(n) - special.gammaln(n - l) - special.gammaln(l)
            rhs = math.log(n - 1) + (n - 2) * vf.binary_entropy((l - 1) / (n - 2)) * math.log(2)
            assert lhs <= rhs + 1e-9


# -- asymptotics -----------------------------------------------------------------

def test_asymptotic_reference_values():
    # exact: 2^(-4 H(1/4)) / 2 = 0.052734375
    assert vf.asymptotic_kappa0(2.0, 0.5) == pytest.approx(2.0 ** (-4 * vf.binary_entropy(0.25)) / 2, rel=1e-12)
    assert vf.asymptotic_kappa0(2.0, 0.5) == pytest.approx(0.05274, abs=1e-5)
    assert vf.asymptotic_bound(2.0, 0.5) == pytest.approx(0.02708, abs=5e-6)


def test_asymptotic_small_eps_limit():
    # eps -> 0+: kappa_0 -> 1 and the bound -> 1
    assert vf.asymptotic_bound(2.0, 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_asymptotic_domain():
    with pytest.raises(DomainError):
        vf.asymptotic_bound(0.5, 0.2)
    with pytest.raises(DomainError):
        vf.asymptotic_bound(2.0, 0.0)


def test_finite_n_kappa_converges():
    k0 = vf.asymptotic_kappa0(2.0, 0.25)
    errs = [
        abs(vf.kappa_c(BoundInput(n, 2 * n, n // 4)) / 0.75 - k0)
        for n in (100, 200, 400)
    ]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 0.02


# -- input validation --------------------------------------------------------------

def test_bound_input_validation():
    with pytest.raises(DomainError):
        BoundInput(4, 3, 1)
    with pytest.raises(DomainError):
        BoundInput(4, 8, 5)
    inp = BoundInput(4, 8, 2)
    assert inp.log2_t == pytest.approx(math.log2(math.comb(8, 2)))

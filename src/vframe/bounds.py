"""Closed-form lower bounds on sparse-approximation distortion.

For signals uniform on the complex unit sphere in C^N and any frame of
M = r*N vectors, the average squared distance to the best weight-L
representation is bounded below in closed form.  The chain runs:

    cap_area_ratio   fraction of the sphere within squared distance
                     rho of a fixed L-dimensional subspace (a
                     regularized incomplete beta value with integer
                     parameters, i.e. a finite binomial sum);
    lambda_bound     Lambda(rho): an analytic upper bound on
                     T * cap_area_ratio(rho) with T = C(M, L), the
                     union-bound term over all supports;
    kappa_c, rho_0   the scale constant and the radius where
                     Lambda(rho_0) = 1;
    distortion_lower_bound
                     the resulting bound, with four branches
                     (L = 0, 1 <= L <= N-2, L = N-1, L = N);
    asymptotic_bound the N -> infinity limit at fixed redundancy
                     ratio r and sparsity fraction eps.

Everything involving T or 2**((N-2)H(.)) is evaluated in natural-log
domain and exponentiated once; direct products overflow near N ~ 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BranchError, DomainError

_LN2 = math.log(2.0)

BRANCH_L0 = "L0"
BRANCH_MID = "mid"
BRANCH_LNM1 = "LNminus1"
BRANCH_LN = "LN"


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), in bits; H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def log_binomial(m: int, l: int) -> float:
    """Natural log of C(m, l): three log-gamma values below m = 4096.

    From there log Gamma(m + 1) - log Gamma(a), with k = min(l, m - l)
    and a = m - k + 1, would cancel down to the bits left over, so that
    ratio comes from Stirling's series as (a - 1/2) log1p(k/a) +
    k log(m + 1) - k + (1/(m + 1) - 1/a) / 12, less log Gamma(k + 1).
    Its relative error was at most 3.9e-13 against the exact log of the
    integer binomial, for m up to 3e20.  Raises DomainError where m is
    past a double (about 1.8e308)."""
    if l < 0 or m < 0 or l > m:
        raise DomainError(f"C({m}, {l}) undefined")
    try:
        if m < 4096:
            return math.lgamma(m + 1) - math.lgamma(l + 1) - math.lgamma(m - l + 1)
        k = min(l, m - l)
        a = m - k + 1
        return ((a - 0.5) * math.log1p(k / a) + k * math.log(m + 1) - k
                + (1 / (m + 1) - 1 / a) / 12 - math.lgamma(k + 1))
    except OverflowError:
        raise DomainError(f"log C({m}, {l}) is past the range of a double") from None


@dataclass(frozen=True)
class BoundInput:
    """Configuration (N, M, L) of a bound evaluation.

    T = C(M, L) is held in log-domain (log_t, log2_t); the subspace
    count never needs to be materialized as an integer.
    """

    n: int
    m: int
    l: int

    def __post_init__(self):
        if not (1 <= self.n <= self.m):
            raise DomainError(f"need M >= N >= 1, got N={self.n}, M={self.m}")
        if not (0 <= self.l <= self.n):
            raise DomainError(f"need 0 <= L <= N, got L={self.l}")

    @property
    def log_t(self) -> float:
        return log_binomial(self.m, self.l)

    @property
    def log2_t(self) -> float:
        return self.log_t / _LN2


@dataclass(frozen=True)
class BoundReport:
    """Evaluated lower bound with its intermediate quantities.

    kappa_c is defined on the mid branch only and rho_0 on mid and
    L = N-1; undefined entries are NaN.  lower_bound always lies in
    [0, 1] (no clamping is applied; the formulas land there).
    """

    input: BoundInput
    kappa_c: float
    rho_0: float
    lower_bound: float
    branch: str


def cap_area_ratio(rho: float, n: int, l: int) -> float:
    """Sphere fraction within squared distance rho of an L-dim subspace.

    Equals the regularized incomplete beta integral
        int_0^rho  Gamma(N) / (Gamma(N-L) Gamma(L)) x^(N-L-1) (1-x)^(L-1) dx
    which for integer parameters is the finite binomial tail
        sum_{j=N-L}^{N-1} C(N-1, j) rho^j (1-rho)^(N-1-j),
    evaluated termwise in log-domain.  Requires 1 <= L <= N-1.
    """
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho {rho} outside [0, 1]")
    if not 1 <= l <= n - 1:
        raise DomainError(f"need 1 <= L <= N-1, got L={l}, N={n}")
    if rho == 0.0:
        return 0.0
    if rho == 1.0:
        return 1.0
    log_rho, log_1m = math.log(rho), math.log1p(-rho)
    total = 0.0
    for j in range(n - l, n):
        total += math.exp(log_binomial(n - 1, j) + j * log_rho + (n - 1 - j) * log_1m)
    return min(total, 1.0)


def _log_amplitude(inp: BoundInput) -> float:
    # ln[ T * (N-1) * 2^((N-2) H((L-1)/(N-2))) ]
    n, l = inp.n, inp.l
    return inp.log_t + math.log(n - 1) + (n - 2) * binary_entropy((l - 1) / (n - 2)) * _LN2


def kappa_c(inp: BoundInput) -> float:
    """Scale constant [T (N-1) 2^((N-2)H((L-1)/(N-2)))]^(-1/(N-L-1)).

    Defined for 1 <= L <= N-2 (so N >= 3).
    """
    if not 1 <= inp.l <= inp.n - 2:
        raise BranchError(f"kappa_c needs 1 <= L <= N-2, got L={inp.l}, N={inp.n}")
    return math.exp(-_log_amplitude(inp) / (inp.n - inp.l - 1))


def rho_0(inp: BoundInput) -> float:
    """Radius where the union-bound term reaches 1; lies in [0, 1].

    Mid branch (1 <= L <= N-2): kappa_c / (1 - kappa_c (L-1)/(N-L-1)).
    L = N-1: 1 - (1 - 1/T)^(1/(N-1)), evaluated with log1p/expm1 so
    huge T keeps full precision.
    """
    n, l = inp.n, inp.l
    if not 1 <= l <= n - 1:
        raise BranchError(f"rho_0 needs 1 <= L <= N-1, got L={l}, N={n}")
    if l <= n - 2:
        k = kappa_c(inp)
        return k / (1.0 - k * (l - 1) / (n - l - 1))
    inv_t = math.exp(-inp.log_t)
    return -math.expm1(math.log1p(-inv_t) / (n - 1))


def lambda_bound(rho: float, inp: BoundInput) -> float:
    """Lambda(rho) = T (N-1) 2^((N-2)H((L-1)/(N-2)))
                     * (rho / (1 + rho (L-1)/(N-L-1)))^(N-L-1).

    Upper-bounds T * cap_area_ratio(rho); strictly increasing in rho,
    0 at rho = 0 and exactly 1 at rho = rho_0.  Mid branch only.
    """
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho {rho} outside [0, 1]")
    if not 1 <= inp.l <= inp.n - 2:
        raise BranchError(f"lambda_bound needs 1 <= L <= N-2, got L={inp.l}, N={inp.n}")
    if rho == 0.0:
        return 0.0
    n, l = inp.n, inp.l
    x = rho / (1.0 + rho * (l - 1) / (n - l - 1))
    log_val = _log_amplitude(inp) + (n - l - 1) * math.log(x)
    if log_val > 700.0:
        return math.inf
    return math.exp(log_val)


def _tail_bracket(rho0: float, n: int) -> float:
    # rho0 - (1 - (1-rho0)^n)/n  ==  sum_{k=2}^{n} (-1)^k C(n,k) rho0^k / n.
    # The direct form cancels catastrophically when n*rho0 is tiny, so
    # switch to the alternating series there (terms shrink geometrically).
    if n * rho0 >= 0.5:
        u = -math.expm1(n * math.log1p(-rho0))
        return rho0 - u / n
    total = 0.0
    term = 0.5 * (n - 1) * rho0 * rho0        # k = 2 term
    for k in range(2, n + 1):
        total += term
        term *= -(n - k) * rho0 / (k + 1)
        if abs(term) <= 1e-30 * abs(total):
            break
    return total


def distortion_lower_bound(inp: BoundInput) -> BoundReport:
    """Average-distortion lower bound for any frame at (N, M, L).

    Branches: L = 0 gives 1 (nothing may be approximated); L = N gives
    0 (a spanning subset always exists); 1 <= L <= N-2 gives
    rho_0 - rho_0^2 / (kappa_c (N-L)); L = N-1 gives
    rho_0 - T (rho_0 - 1/N + (1/N)(1 - rho_0)^N).
    """
    n, l = inp.n, inp.l
    nan = math.nan
    if l == 0:
        return BoundReport(inp, nan, nan, 1.0, BRANCH_L0)
    if l == n:
        return BoundReport(inp, nan, nan, 0.0, BRANCH_LN)
    if l <= n - 2:
        k = kappa_c(inp)
        r0 = rho_0(inp)
        value = r0 - (r0 * r0 / k) / (n - l)
        return BoundReport(inp, k, r0, value, BRANCH_MID)
    r0 = rho_0(inp)
    bracket = _tail_bracket(r0, n)
    value = r0 - math.exp(inp.log_t + math.log(bracket)) if bracket > 0.0 else r0
    return BoundReport(inp, nan, r0, value, BRANCH_LNM1)


def asymptotic_kappa0(r: float, eps: float) -> float:
    """kappa_0 = 2^(-(r/(1-eps)) H(eps/r)) * eps^(eps/(1-eps))."""
    if not (r >= 1.0 and 0.0 < eps < 1.0):
        raise DomainError(f"need r >= 1 and 0 < eps < 1, got r={r}, eps={eps}")
    log_k = -(r / (1.0 - eps)) * binary_entropy(eps / r) * _LN2
    log_k += (eps / (1.0 - eps)) * math.log(eps)
    return math.exp(log_k)


def asymptotic_bound(r: float, eps: float) -> float:
    """Large-N distortion bound kappa_0 (1-eps) / (1 - eps kappa_0)."""
    k0 = asymptotic_kappa0(r, eps)
    return k0 * (1.0 - eps) / (1.0 - eps * k0)

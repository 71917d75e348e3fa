"""Monte-Carlo validation of the distortion lower bounds.

Signals are drawn uniformly from the complex unit sphere (normalized
complex Gaussians).  For each sample the exact sparse minimum-distance
distortion is found by enumerating every size-L support in
lexicographic order, projecting onto its row span and taking the
smallest squared residual; averaging over samples estimates the frame's
mean distortion, which is then compared against the closed-form lower
bound.

Distortion is accumulated per sample as the *relative* squared
residual ||x - proj||^2 / ||x||^2.  On the unit sphere the two agree
to sampler precision, and the ratio is exact where it matters: at
L = 0 every sample contributes exactly 1.0, matching the bound's L = 0
branch without floating dust.

Reproducibility: the stream for sample i is a Philox generator keyed
by SeedSequence((seed, i)), so results are bit-identical however the
sample loop is chunked or parallelized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .errors import BudgetExceeded, ConfigMismatch, DomainError
from .frames import Frame, frame_id

RANK_REL_TOL = 1e-10

# Residuals within this of the minimum count as ties (broken toward the
# lexicographically smallest support).
TIE_TOL = 1e-12

DEFAULT_BUDGET = 10**6


# -- sampling ---------------------------------------------------------------

def sample_rng(seed, index: int) -> np.random.Generator:
    """Counter-based generator for sample `index` of stream `seed`.

    `seed` may be an int or a flat tuple of ints; the stream key is the
    seed entropy extended by the sample index.
    """
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy + (index,)))
    )


def sample_uniform_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the complex unit sphere in C^n.

    Normalizes a standard complex Gaussian vector; unitary invariance
    of the Gaussian makes the direction uniform.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    while True:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = np.linalg.norm(z)
        if norm > 1e-300:
            return z / norm


def sample_sphere_batch(n: int, n_samples: int, seed) -> np.ndarray:
    """(n_samples, n) array of unit-sphere draws, one derived stream each."""
    out = np.empty((n_samples, n), dtype=complex)
    for i in range(n_samples):
        out[i] = sample_uniform_sphere(n, sample_rng(seed, i))
    return out


# -- projections and exact SMDD ---------------------------------------------

def projection_residual(rows, x) -> float:
    """Squared distance from x to the span of the given frame rows.

    The span is orthonormalized through an SVD with relative rank
    tolerance RANK_REL_TOL, so rank-deficient subsets project onto
    their actual span.  An empty subset returns ||x||^2.
    """
    x = np.asarray(x, dtype=complex).ravel()
    rows = np.asarray(rows, dtype=complex)
    norm_sq = float(np.vdot(x, x).real)
    if rows.size == 0:
        return norm_sq
    if rows.ndim != 2 or rows.shape[1] != x.size:
        raise ValueError("rows must be a (k, n) array matching x")
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_REL_TOL * s[0])) if s.size else 0
    coeffs = vh[:rank].conj() @ x
    return max(norm_sq - float(np.vdot(coeffs, coeffs).real), 0.0)


def _supports(m: int, l: int, budget: int) -> np.ndarray:
    """(K, l) array of all 0-based size-l subsets of range(m), K = C(m, l),
    in lexicographic order.  Raises BudgetExceeded when K > budget."""
    count = math.comb(m, l)
    if count > budget:
        raise BudgetExceeded(f"C({m},{l}) = {count} exceeds budget {budget}")
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), l))
    return np.fromiter(flat, dtype=np.intp, count=count * l).reshape(count, l)


def _support_bases(matrix: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Conjugated orthonormal row-space bases of the (K, l) supports,
    stacked as (K * l, n): l rows per support, zero rows below rank."""
    _, s, vh = np.linalg.svd(matrix[supports], full_matrices=False)  # vh: (K, l, n)
    keep = s > RANK_REL_TOL * s[:, :1]
    return (vh * keep[:, :, None]).reshape(-1, matrix.shape[1]).conj()


def _residual_block(bases: np.ndarray, l: int, xs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(s, K) squared residuals of the samples xs (squared norms `norms`)
    against every support whose stacked bases come from _support_bases."""
    proj = xs @ bases.T                                  # (s, K*l)
    energy = (proj.real**2 + proj.imag**2).reshape(len(xs), -1, l).sum(axis=2)
    return np.maximum(norms[:, None] - energy, 0.0)


@dataclass(frozen=True)
class SmddResult:
    """Best size-<=L support for one signal: 1-based support, squared
    residual, and whether other supports tied within TIE_TOL."""

    support: tuple[int, ...]
    residual_sq: float
    ties_broken: bool


def smdd_exact(frame: Frame, x, l: int, budget: int = DEFAULT_BUDGET) -> SmddResult:
    """Exact sparsity-constrained minimum distortion by full enumeration.

    Minimizes ||x - proj||^2 over all size-l supports, visited in
    lexicographic order; ties within TIE_TOL are broken toward the
    first, i.e. lexicographically smallest, support.  Raises
    BudgetExceeded when C(M, l) exceeds the subset budget.
    """
    x = np.asarray(x, dtype=complex).ravel()
    if x.size != frame.n:
        raise ValueError(f"signal has length {x.size}, expected {frame.n}")
    if not 0 <= l <= frame.m:
        raise DomainError(f"need 0 <= L <= M, got L={l}")
    if l == 0:
        return SmddResult((), float(np.vdot(x, x).real), False)
    xs = x[None, :]
    norms = np.einsum("sn,sn->s", xs, xs.conj()).real
    supports = _supports(frame.m, l, budget)
    res = _residual_block(_support_bases(frame.matrix, supports), l, xs, norms)[0]
    cand = np.flatnonzero(res <= res.min() + TIE_TOL)
    pick = cand[0]
    return SmddResult(
        tuple(int(i) + 1 for i in supports[pick]),
        float(res[pick]),
        bool(cand.size > 1),
    )


def smdd_residuals(frame: Frame, X, l: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """smdd_exact's squared residual for each row of the (S, N) batch X.

    The support bases are built once for the whole batch; samples are
    projected in chunks to bound memory.  Raises BudgetExceeded when
    C(M, l) exceeds the subset budget.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[1] != frame.n:
        raise ValueError(f"samples have shape {X.shape}, expected (S, {frame.n})")
    if not 0 <= l <= frame.m:
        raise DomainError(f"need 0 <= L <= M, got L={l}")
    norms = np.einsum("sn,sn->s", X, X.conj()).real
    if l == 0:
        return norms
    bases = _support_bases(frame.matrix, _supports(frame.m, l, budget))
    chunk = max(1, 6_000_000 // bases.shape[0])
    mins = np.empty(X.shape[0])
    for start in range(0, X.shape[0], chunk):
        stop = start + chunk
        mins[start:stop] = _residual_block(bases, l, X[start:stop], norms[start:stop]).min(axis=1)
    return mins


def smdd_greedy(frame: Frame, x, l: int) -> SmddResult:
    """Greedy (matching-pursuit style) approximation of smdd_exact.

    Picks the row best aligned with the running residual l times,
    re-projecting x onto the chosen span after each pick.  The result
    upper-bounds the exact minimum and is labeled approximate wherever
    it is surfaced; it never feeds bound-comparison verdicts.
    """
    x = np.asarray(x, dtype=complex).ravel()
    if not 0 <= l <= frame.m:
        raise DomainError(f"need 0 <= L <= M, got L={l}")
    chosen: list[int] = []
    residual = x.copy()
    norm_sq = resid_sq = float(np.vdot(x, x).real)
    row_norms = np.linalg.norm(frame.matrix, axis=1)
    for _ in range(l):
        scores = np.abs(frame.matrix.conj() @ residual) / row_norms
        scores[chosen] = -1.0
        best = int(np.argmax(scores))
        if scores[best] <= 1e-14:
            break
        chosen.append(best)
        # One SVD of the chosen rows gives both the residual that drives
        # the next pick and its squared norm (as in projection_residual).
        _, s, vh = np.linalg.svd(frame.matrix[chosen], full_matrices=False)
        basis = vh[: int(np.count_nonzero(s > RANK_REL_TOL * s[0]))]
        coeffs = basis.conj() @ x
        residual = x - basis.T @ coeffs
        resid_sq = max(norm_sq - float(np.vdot(coeffs, coeffs).real), 0.0)
        if resid_sq <= 1e-28:
            break
    chosen.sort()
    return SmddResult(tuple(i + 1 for i in chosen), resid_sq, False)


def bds_decode(frame: Frame, x, delta: float, budget: int = DEFAULT_BUDGET):
    """Smallest L whose SMDD residual meets ||x - proj||^2 <= delta ||x||^2.

    Binary search over L in [0, N], valid because the SMDD residual is
    non-increasing in L and reaches 0 at L = N (every frame spans C^N),
    so L = N is enumerated only when the search ends there.
    Comparisons carry a 1e-12 relative slack so exactly-representable
    signals at delta = 0 resolve correctly.
    Returns (l_min, smdd_exact result at l_min).
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta {delta} outside [0, 1]")
    x = np.asarray(x, dtype=complex).ravel()
    norm_sq = float(np.vdot(x, x).real)
    thr = delta * norm_sq + 1e-12 * norm_sq
    results: dict[int, SmddResult] = {}

    def result(l: int) -> SmddResult:
        if l not in results:
            results[l] = smdd_exact(frame, x, l, budget=budget)
        return results[l]

    if result(0).residual_sq <= thr:
        return 0, results[0]
    lo, hi = 0, frame.n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if result(mid).residual_sq <= thr:
            hi = mid
        else:
            lo = mid
    return hi, result(hi)


# -- distortion estimation ---------------------------------------------------

@dataclass(frozen=True)
class EstimateConfig:
    """Provenance of a distortion estimate."""

    frame_id: str
    n: int
    m: int
    l: int
    seed: "int | tuple[int, ...]"


@dataclass(frozen=True)
class DistortionEstimate:
    """Sample mean/stderr of the per-sample relative SMDD residual."""

    mean: float
    stderr: float
    n_samples: int
    config: EstimateConfig
    approximate: bool = False


@dataclass(frozen=True)
class BoundComparison:
    """Verdict of estimate vs bound: margin = mean - lower_bound,
    passed when margin >= -3 * stderr."""

    passed: bool
    margin: float


def estimate_distortion(
    frame: Frame,
    l: int,
    n_samples: int,
    seed,
    budget: int = DEFAULT_BUDGET,
    fallback_greedy: bool = False,
) -> DistortionEstimate:
    """Mean relative SMDD residual over seeded unit-sphere samples.

    Deterministic given (frame, l, n_samples, seed): per-sample streams
    are derived from (seed, index) and reduced in index order.  When
    C(M, l) exceeds the budget, either raises BudgetExceeded before any
    sample is drawn or, with fallback_greedy, substitutes the greedy
    search and labels the estimate approximate.
    """
    if n_samples < 1:
        raise DomainError("need n_samples >= 1")
    if not 0 <= l <= frame.m:
        raise DomainError(f"need 0 <= L <= M, got L={l}")
    seed = tuple(seed) if isinstance(seed, (tuple, list)) else int(seed)
    config = EstimateConfig(frame_id(frame), frame.n, frame.m, l, seed)
    if l == 0:
        # Every sample contributes ||x||^2 / ||x||^2 == 1.0 exactly.
        return DistortionEstimate(1.0, 0.0, n_samples, config)
    count = math.comb(frame.m, l)
    approximate = count > budget
    if approximate and not fallback_greedy:
        raise BudgetExceeded(f"C({frame.m},{l}) = {count} exceeds budget {budget}")
    X = sample_sphere_batch(frame.n, n_samples, seed)
    norms = np.einsum("sn,sn->s", X, X.conj()).real
    if approximate:
        mins = np.array([smdd_greedy(frame, x, l).residual_sq for x in X])
    else:
        mins = smdd_residuals(frame, X, l, budget)
    ratios = mins / norms
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return DistortionEstimate(mean, stderr, n_samples, config, approximate)


def compare_to_bound(est: DistortionEstimate, report: BoundReport) -> BoundComparison:
    """Check the estimate against the closed-form lower bound.

    Passes when est.mean >= lower_bound - 3 * stderr; the margin
    reported is mean - lower_bound.  Approximate (greedy) estimates
    are refused: they only upper-bound the true distortion.
    """
    cfg, inp = est.config, report.input
    if (cfg.n, cfg.m, cfg.l) != (inp.n, inp.m, inp.l):
        raise ConfigMismatch(
            f"estimate is for (N,M,L)=({cfg.n},{cfg.m},{cfg.l}), "
            f"bound for ({inp.n},{inp.m},{inp.l})"
        )
    if est.approximate:
        raise ConfigMismatch("approximate (greedy) estimates cannot be compared to the bound")
    margin = est.mean - report.lower_bound
    return BoundComparison(margin >= -3.0 * est.stderr, margin)

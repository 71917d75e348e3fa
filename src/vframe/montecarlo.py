"""Monte-Carlo validation of the distortion lower bounds.

Signals are drawn uniformly from the complex unit sphere (normalized
complex Gaussians).  For each sample the exact sparse minimum-distance
distortion is found by enumerating every size-L support in
lexicographic order, projecting onto its row span and taking the
smallest squared residual; averaging over samples estimates the frame's
mean distortion, which is then compared against the closed-form lower
bound.

Scoring kernel: a support S with rank-masked orthonormal basis V_S has
projection energy ||P_S x||^2 = x^H G_S x, G_S = V_S^H V_S.  When
N <= 4L each sample is lifted to N^2 real features and each support to
N^2 real weights, and one real GEMM scores a batch against every
support; that costs N^2 multiply-adds per (sample, support), no more
than the 4*L*N of projecting onto the stacked bases, which remain the
kernel for N > 4L.  Either table is built on every call, from one SVD
per support, and freed when the call returns: N^2 * C(M, L) * 8 bytes
for the Gram table, L * N * C(M, L) * 16 bytes for the stacked bases.

Distortion is accumulated per sample as the *relative* squared
residual ||x - proj||^2 / ||x||^2.  On the unit sphere the two agree
to sampler precision, and the ratio is exact where it matters: at
L = 0 every sample contributes exactly 1.0, matching the bound's L = 0
branch without floating dust.

Reproducibility: the stream for sample i is a Philox generator keyed
by SeedSequence((seed..., i)), so results are bit-identical however the
sample loop is chunked or parallelized.  sample_sphere_batch keeps that
contract without building a SeedSequence, Philox and Generator per
sample: one vectorized pass ports SeedSequence's entropy pool to compute
every sample's Philox key, and one generator is re-keyed per sample.  A
stream depends only on (N, n_samples, seed), so callers that score
several cells of one N (vframe sweep) draw its batch once and reduce it
per cell with estimate_from_samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport
from .errors import BudgetExceeded, ConfigMismatch, DomainError
from .frames import SINGULAR_REL_TOL, Frame, frame_id

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


# SeedSequence's entropy-pool constants (numpy.random.bit_generator): its
# pool of 4 uint32 words, the hash multipliers of mixing (A) and of
# generate_state (B), and the two multipliers of mix().
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _entropy_words(value) -> list[int]:
    """The uint32 words SeedSequence makes of an int (least significant
    first, one word for 0) or of a sequence of them, concatenated."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _WORD]
        while value > _WORD:
            value >>= 32
            words.append(value & _WORD)
        return words
    if not isinstance(value, (tuple, list, range, np.ndarray)):
        raise TypeError("seed must be integer")
    return [word for v in value for word in _entropy_words(v)]


def _philox_keys(seed, n_samples: int) -> np.ndarray:
    """(n_samples, 2) uint64 array whose row i is sample_rng(seed, i)'s
    Philox key, SeedSequence(entropy + (i,)).generate_state(2, uint64).

    A uint32 port of SeedSequence's entropy pool (hashmix, mix and
    generate_state) run on every sample index at once; each pool word
    is an (n_samples,) array.
    """
    if n_samples > 2**32:
        raise DomainError("need n_samples <= 2**32 (one entropy word per sample index)")
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    words = [np.full(n_samples, w, dtype=np.uint32) for w in _entropy_words(entropy)]
    words.append(np.arange(n_samples, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _WORD
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> 16)

    zero = np.zeros(n_samples, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(4):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _WORD
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # Little-endian pairs of uint32 words make the two uint64 key words.
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def sample_sphere_batch(n: int, n_samples: int, seed) -> np.ndarray:
    """(n_samples, n) array whose row i is
    sample_uniform_sphere(n, sample_rng(seed, i)), bit for bit.

    The Philox keys of all rows come from one vectorized pass
    (_philox_keys); one Philox generator is then re-keyed per row, with
    its counter and buffer reset, instead of built anew.
    """
    keys = _philox_keys(seed, n_samples)
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state      # zero counter, empty buffer
    out = np.empty((n_samples, n), dtype=complex)
    for i, key in enumerate(keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        out[i] = sample_uniform_sphere(n, rng)
    return out


# -- projections and exact SMDD ---------------------------------------------

def _span_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the non-empty (k, n) rows: the vh
    rows of their SVD whose singular values exceed SINGULAR_REL_TOL times the largest."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: int(np.count_nonzero(s > SINGULAR_REL_TOL * s[0]))]


def projection_residual(rows, x) -> float:
    """Squared distance from x to the span of the given frame rows.

    The span is orthonormalized by _span_basis, so rank-deficient
    subsets project onto their actual span.  An empty subset returns
    ||x||^2.  Raises ValueError on a non-finite x.
    """
    x = np.asarray(x, dtype=complex).ravel()
    if not np.isfinite(x).all():
        raise ValueError("signals must be finite")
    rows = np.asarray(rows, dtype=complex)
    norm_sq = float(np.vdot(x, x).real)
    if rows.size == 0:
        return norm_sq
    if rows.ndim != 2 or rows.shape[1] != x.size:
        raise ValueError("rows must be a (k, n) array matching x")
    coeffs = _span_basis(rows).conj() @ x
    return max(norm_sq - float(np.vdot(coeffs, coeffs).real), 0.0)


def _supports(m: int, l: int) -> np.ndarray:
    """(K, l) array of all 0-based size-l subsets of range(m), K = C(m, l),
    in lexicographic order."""
    count = math.comb(m, l)
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), l))
    return np.fromiter(flat, dtype=np.intp, count=count * l).reshape(count, l)


def _gram_features(xs: np.ndarray) -> np.ndarray:
    """(s, N*N) real lift of the samples xs: |x_a|^2, then 2 Re(conj(x_a) x_b)
    and 2 Im(conj(x_a) x_b) for a < b, in triu_indices order."""
    a, b = np.triu_indices(xs.shape[1], 1)
    cross = 2.0 * (xs[:, a].conj() * xs[:, b])
    return np.concatenate([xs.real**2 + xs.imag**2, cross.real, cross.imag], axis=1)


@dataclass(frozen=True)
class _SupportTable:
    """Every size-l support of one frame with the weights that score a
    batch of samples against all of them in one GEMM.

    V is a support's rank-masked orthonormal basis (the conjugated rows
    of its SVD's vh above SINGULAR_REL_TOL).  With gram set, weights is the
    (N*N, K) real table of the projectors G = V^H V, one column per
    support: G_aa, then Re G_ab and -Im G_ab for a < b, so that
    _gram_features(x) @ weights = x^H G x.  Otherwise weights is the
    (N, l*K) complex matrix of the stacked bases: column j*K + k holds
    basis vector j of support k, so each sample's energies add up over
    l contiguous blocks.
    """

    supports: np.ndarray
    weights: np.ndarray
    gram: bool

    def energies(self, xs: np.ndarray) -> np.ndarray:
        """(s, K) projection energies ||P_S x||^2 of the (s, N) samples xs."""
        if self.gram:
            return _gram_features(xs) @ self.weights
        proj = (xs @ self.weights).reshape(len(xs), self.supports.shape[1], -1)
        energy = np.zeros((len(xs), proj.shape[2]))
        for j in range(proj.shape[1]):
            energy += proj[:, j].real ** 2 + proj[:, j].imag ** 2
        return energy


def _support_table(frame: Frame, l: int, budget: int) -> _SupportTable:
    """The frame's support table for weight l >= 1, built in blocks of
    supports.  Raises BudgetExceeded when C(M, l) exceeds the budget."""
    count = math.comb(frame.m, l)
    if count > budget:
        raise BudgetExceeded(f"C({frame.m},{l}) = {count} exceeds budget {budget}")
    matrix = frame.matrix
    m, n = matrix.shape
    supports = _supports(m, l)
    k = len(supports)
    # x^H G x costs N*N real multiply-adds per (sample, support), the
    # stacked bases 4*l*N; past N = 4l the Gram table would do more work
    # and take N/(2l) > 2 times the stacked bases' memory.
    gram = n <= 4 * l
    weights = np.empty((n * n, k)) if gram else np.empty((l, k, n), dtype=complex)
    a, b = np.triu_indices(n, 1)
    block = max(1, 2**18 // (l * n))
    for start in range(0, k, block):
        stop = start + block
        _, s, vh = np.linalg.svd(matrix[supports[start:stop]], full_matrices=False)
        v = (vh * (s > SINGULAR_REL_TOL * s[:, :1])[:, :, None]).conj()    # (B, l, n)
        if gram:
            g = v.conj().transpose(0, 2, 1) @ v                          # (B, n, n)
            upper = g[:, a, b]
            weights[:, start:stop] = np.concatenate(
                [g.diagonal(axis1=1, axis2=2).real, upper.real, -upper.imag], axis=1).T
        else:
            weights[:, start:stop] = v.transpose(1, 0, 2)
    if not gram:
        weights = weights.reshape(l * k, n).T
    return _SupportTable(supports, weights, gram)


def _signals(frame: Frame, X, l: int) -> np.ndarray:
    """X as an (S, N) complex batch for a search of weight l.  Raises ValueError
    on another shape or a non-finite entry, DomainError unless 0 <= l <= M."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[1] != frame.n:
        raise ValueError(f"signals have shape {X.shape}, expected (S, {frame.n})")
    if not np.isfinite(X).all():
        raise ValueError("signals must be finite")
    if not 0 <= l <= frame.m:
        raise DomainError(f"need 0 <= L <= M, got L={l}")
    return X


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
    xs = _signals(frame, np.ravel(x)[None, :], l)
    x = xs[0]
    if l == 0:
        return SmddResult((), float(np.vdot(x, x).real), False)
    norm = np.einsum("sn,sn->s", xs, xs.conj()).real[0]
    table = _support_table(frame, l, budget)
    res = np.maximum(norm - table.energies(xs)[0], 0.0)
    cand = np.flatnonzero(res <= res.min() + TIE_TOL)
    pick = cand[0]
    return SmddResult(
        tuple(int(i) + 1 for i in table.supports[pick]),
        float(res[pick]),
        bool(cand.size > 1),
    )


def smdd_residuals(frame: Frame, X, l: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """smdd_exact's squared residual for each row of the (S, N) batch X.

    Samples are scored in chunks, to bound memory, against one support
    table; the smallest residual over supports is the norm less
    the largest projection energy.  Raises BudgetExceeded when C(M, l)
    exceeds the subset budget.
    """
    X = _signals(frame, X, l)
    norms = np.einsum("sn,sn->s", X, X.conj()).real
    if l == 0:
        return norms
    table = _support_table(frame, l, budget)
    chunk = max(1, 2**21 // table.weights.shape[1])
    top = np.empty(X.shape[0])
    for start in range(0, X.shape[0], chunk):
        top[start:start + chunk] = table.energies(X[start:start + chunk]).max(axis=1)
    return np.maximum(norms - top, 0.0)


def smdd_greedy(frame: Frame, x, l: int) -> SmddResult:
    """Greedy (matching-pursuit style) approximation of smdd_exact.

    Picks the row best aligned with the running residual l times,
    re-projecting x onto the chosen span after each pick.  The result
    upper-bounds the exact minimum and is labeled approximate wherever
    it is surfaced; it never feeds bound-comparison verdicts.
    """
    x = _signals(frame, np.ravel(x)[None, :], l)[0]
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
        # One basis of the chosen rows gives both the residual that drives
        # the next pick and its squared norm (as in projection_residual).
        basis = _span_basis(frame.matrix[chosen])
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
    """Sample mean/stderr of the per-sample relative SMDD residual.

    ratios holds the per-sample values in sample-index order (None on
    an estimate built by hand); samples holds the (S, N) batch they came
    from, for another estimate over the same stream (None at L = 0,
    where no sample is drawn, or on an estimate built by hand)."""

    mean: float
    stderr: float
    n_samples: int
    config: EstimateConfig
    approximate: bool = False
    ratios: np.ndarray | None = field(default=None, repr=False, compare=False)
    samples: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class BoundComparison:
    """Verdict of estimate vs bound: margin = mean - lower_bound,
    passed when margin >= -3 * stderr."""

    passed: bool
    margin: float


def _check_estimate(frame: Frame, l: int, n_samples: int, budget: int,
                   fallback_greedy: bool) -> bool:
    """Check an estimate's arguments before any sample is drawn; returns
    whether it is approximate (C(M, l) over the budget, greedy search).
    Raises DomainError on bad arguments and BudgetExceeded past the
    budget without fallback_greedy."""
    if n_samples < 1:
        raise DomainError("need n_samples >= 1")
    if not 0 <= l <= frame.m:
        raise DomainError(f"need 0 <= L <= M, got L={l}")
    approximate = l > 0 and math.comb(frame.m, l) > budget
    if approximate and not fallback_greedy:
        raise BudgetExceeded(f"C({frame.m},{l}) = {math.comb(frame.m, l)} exceeds budget {budget}")
    return approximate


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
    search and labels the estimate approximate.  The samples are
    sample_sphere_batch(frame.n, n_samples, seed), drawn only for l >= 1
    and reduced by estimate_from_samples.
    """
    _check_estimate(frame, l, n_samples, budget, fallback_greedy)
    # L = 0 reads no sample, so none is drawn.
    X = sample_sphere_batch(frame.n, n_samples, seed) if l else np.empty((n_samples, 0))
    return estimate_from_samples(frame, l, X, seed, budget, fallback_greedy)


def estimate_from_samples(
    frame: Frame,
    l: int,
    X,
    seed,
    budget: int = DEFAULT_BUDGET,
    fallback_greedy: bool = False,
) -> DistortionEstimate:
    """estimate_distortion over a batch already drawn.

    X is sample_sphere_batch(frame.n, S, seed) for S = len(X), so a
    caller that scores several cells of one N against one stream draws
    it once.  At l = 0 the rows are not read: every sample contributes
    ||x||^2 / ||x||^2 == 1.0 exactly.
    """
    n_samples = len(X)
    approximate = _check_estimate(frame, l, n_samples, budget, fallback_greedy)
    seed = tuple(seed) if isinstance(seed, (tuple, list)) else int(seed)
    config = EstimateConfig(frame_id(frame), frame.n, frame.m, l, seed)
    if l == 0:
        return DistortionEstimate(1.0, 0.0, n_samples, config, ratios=np.ones(n_samples))
    X = np.asarray(X, dtype=complex)
    norms = np.einsum("sn,sn->s", X, X.conj()).real
    if approximate:
        mins = np.array([smdd_greedy(frame, x, l).residual_sq for x in X])
    else:
        mins = smdd_residuals(frame, X, l, budget)
    ratios = mins / norms
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return DistortionEstimate(mean, stderr, n_samples, config, approximate, ratios, X)


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

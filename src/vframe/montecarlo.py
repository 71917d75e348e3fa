"""Monte-Carlo validation of the distortion lower bounds.

Signals are drawn uniformly from the complex unit sphere (normalized
complex Gaussians).  For each sample the exact sparse minimum-distance
distortion is found by enumerating every size-L support in
lexicographic order, projecting onto its row span and taking the
smallest squared residual; averaging over samples estimates the frame's
mean distortion, which is then compared against the closed-form lower
bound.

Scoring kernel: a support S with rank-masked orthonormal basis V_S has
projection energy ||P_S x||^2 = x^H G_S x, G_S = V_S^H V_S.  For N <= 4L
samples and supports are lifted to real features and weights, so one
real GEMM scores a chunk of samples against a block of supports: N^2
multiply-adds per pair in the Gram form, no more than the 4*L*N of the
stacked bases used for N > 4L.  One constant, _GEMM_ENERGIES = 2**20
energies (8 MiB), owns the search's working set.  Supports are scored
in blocks of B = _GEMM_ENERGIES // (16*L*N) = 2**16 // (L*N) (twice that
at most on the orbit path below): weights at most 2 MiB (N^2 * B * 8, or
L * N * B * 16 stacked), dropped once scored, and GEMMs of
_GEMM_ENERGIES // B rows (_GEMM_ENERGIES // (L*B) stacked), so at most
_GEMM_ENERGIES energies per GEMM, written into one buffer, as (supports,
samples) when the block is the smaller side (_chunk_energies).  So memory
grows with C(M, L) only through the ties smdd_exact keeps; the budget on
C(M, L) bounds the time.  The samples are lifted once per chunk of
_chunk_rows rows, the most whole sample blocks whose lift (or, stacked,
whose complex rows) fits _CHUNK_ENTRIES complex entries (4 MiB), and
every block is scored against that lift.

Where the weights come from: on most frames, one SVD per support, C(M, L)
in all.  On the default frame, whose nodes z_j are the M-th roots of
unity (default_nodes), two symmetries cut that, at every L:
- Rotation: shifting a support by s multiplies its rows by the phases
  D_s = diag(z_s^k), the frame's row s, so G_{S+s} = D_s G_S D_s^H.
- Reflection: node -j is conj(z_j), so G_{-S} = conj(G_S).
Only the R dihedral representatives (each support smallest among its
shifts and reflections, about C(M, L) / 2M of them; 624 of 35,960 at
M = 32, L = 4) are SVD'd.  A block holds a slice of them, and the
reflections of those whose -S lies in another rotation orbit, times all
M shifts.  The unit circle also makes the weights real: with J the
coordinate reversal, J G J = conj(G) for every support, so
x^H G x = (a^T H a + b^T H b) / 2 with a + ib = x + i Jx and
H_ij = Re G_ij - Im G_(N-1-i)j real and symmetric (G is centro-Hermitian:
A. Lee, "Centrohermitian and skew-centrohermitian matrices", Linear
Algebra Appl. 29, 1980).  A pair there costs N(N+1)/2 multiply-adds,
36 against 64 at N = 8.  The frame alone chooses the path, and both
searches read its energies as they come: a residual there differs from
the per-support one by a few ulp (at most 2.4e-15 measured, on the
N=8, M=32, L=4 cell).  At L >= N some support spans C^N, so
smdd_residuals and estimate_distortion return exact zeros without a
search, as the bound's L = N branch does, and count no supports against
the budget; so does smdd_exact on a Vandermonde frame, where every
support spans and (1, ..., L) wins.

Distortion is accumulated per sample as the *relative* squared
residual ||x - proj||^2 / ||x||^2.  On the unit sphere the two agree
to sampler precision, and the ratio is exact where it matters: at
L = 0 every sample contributes exactly 1.0, matching the bound's L = 0
branch without floating dust.

Reproducibility: sample i of a stream seed (read by _seed: an int, or a
sequence of them flattened to a tuple) is row i % _BLOCK of block
i // _BLOCK, and block b is a Philox generator keyed by
SeedSequence(seed, spawn_key=(b,)).  Counter-based generators are built
to be keyed per block, not per draw (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011); the normals are numpy's own
ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000).  A row does
not depend on how many rows are drawn with it, so estimate_distortion
draws and scores a chunk of whole blocks at a time, its size fixed by
the frame and L (_chunk_rows).  vframe sweep scores every L of one
(N, M) in one pass over each chunk (_estimates).  Every cell of one
(N, seed) reads the same stream, so the sweep keeps the last chunk drawn
and hands later passes that chunk, or the slice of it they ask for: a
stream that fits the largest chunk is drawn once per N.  Another chunk
size gives the same samples; their residuals may move by an ulp, as BLAS
rounds a GEMM by its shape (at most 7.8e-16 measured, at N = 6, M = 12,
L = 3).  The layout of a small block's energies moved the sweep's
estimates as much: by at most 1.9e-15 relative over 40 sweeps of
N = 3..6, M = 2N, with no verdict changed.  The spawn key keeps block b apart from sample_rng(seed, b),
the per-sample stream of encode and roundtrip, for seeds of fewer than
four 32-bit words (every CLI seed).  SeedSequence pads its entropy pool
with zeros, so seeds that differ only by trailing zeros, such as s and
(s, 0), name the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport
from .errors import ConfigMismatch, DomainError
from .frames import (SINGULAR_REL_TOL, VANDERMONDE, Frame, _over_budget, default_nodes,
                     frame_id, support_blocks)

# Squared residuals within this times ||x||^2 of the minimum count as ties
# (broken toward the lexicographically smallest support).
TIE_TOL = 1e-12

DEFAULT_BUDGET = 10**6

# Energies one exact-search GEMM writes at most: 8 MiB of float64 (16 MiB
# of complex projections for the stacked bases), the larger part of the
# search's working set.  Blocks of supports are sized from it too
# (_energies); blocks half as wide ran about 17% slower on the N=8, M=32,
# L=4 cell.
_GEMM_ENERGIES = 2**20

# Rows per sample block: sample i is row i % _BLOCK of block i // _BLOCK.
_BLOCK = 1024

# 4 MiB, as complex entries, half the size of a GEMM's energies: the
# scoring input of the rows an exact search lifts and scores at once
# (_chunk_rows) fits it, in whole blocks, at least one.
_CHUNK_ENTRIES = _GEMM_ENERGIES // 4

# The sample-stream contract's name, recorded by vframe sweep so that
# --resume refuses rows drawn from other samples.
STREAM = f"philox-block-{_BLOCK}"


# -- sampling ---------------------------------------------------------------

def _seed(seed):
    """The one reading of a stream seed: a non-negative int as an int, a
    sequence of them (tuple, list, range or ndarray, nested or not) as the
    flat tuple of its ints, which SeedSequence reads as the same words.
    Raises TypeError and ValueError where SeedSequence does."""
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        return int(seed)
    if not isinstance(seed, (tuple, list, range, np.ndarray)):
        raise TypeError("seed must be integer")
    return tuple(w for v in map(_seed, seed) for w in (v if isinstance(v, tuple) else (v,)))


def sample_rng(seed, index: int) -> np.random.Generator:
    """Counter-based generator for trial `index` of seed `seed`, as encode
    and roundtrip draw them (Monte-Carlo samples come from
    sample_sphere_batch's block stream instead).

    `seed` may be an int or a sequence of ints (see _seed); the stream key
    is the seed entropy extended by the trial index.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((_seed(seed), index))))


def sample_sphere_batch(n: int, n_samples: int, seed, start: int = 0) -> np.ndarray:
    """(n_samples, n) array of samples start .. start + n_samples - 1 of
    stream seed: sample i is row i % _BLOCK of block i // _BLOCK, so a
    row does not depend on n_samples or start.

    Block b is drawn from Philox keyed by SeedSequence(seed,
    spawn_key=(b,)) as standard_normal((rows, 2n)), the first n columns
    the real part and the last n the imaginary part, and each row divided
    by its np.linalg.norm.  Only the blocks covering the rows asked for
    are drawn, each up to the last row needed.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if n_samples < 0 or start < 0:
        raise DomainError("need n_samples >= 0 and start >= 0")
    seed = _seed(seed)
    stop = start + n_samples
    parts = [np.empty((0, 2 * n))]
    for block in range(start // _BLOCK, -(-stop // _BLOCK)):
        first = block * _BLOCK
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,))))
        parts.append(rng.standard_normal((min(stop - first, _BLOCK), 2 * n))[max(start - first, 0):])
    g = np.concatenate(parts)
    z = g[:, :n] + 1j * g[:, n:]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# -- projections and exact SMDD ---------------------------------------------

def projection_residual(rows, x) -> float:
    """Squared distance from x to the span of the given frame rows.

    The span is orthonormalized by _bases, so rank-deficient subsets
    project onto their actual span.  An empty subset returns
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
    coeffs = _bases(rows[None])[0] @ x
    return max(norm_sq - float(np.vdot(coeffs, coeffs).real), 0.0)


def _orbit_representatives(m: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, flip) for the size-l subsets of range(m) (l >= 1) under the
    shifts S + s and the reflections s - S (mod m).  reps is the (R, l)
    array, in lexicographic order, of the subsets that are the
    lexicographically smallest of their shifts and reflections: one per
    dihedral orbit.  flip marks the representatives whose reflection -S
    lies in another rotation orbit than S, so that the two rotation orbits
    together make up the dihedral one.

    A representative holds 0, so the candidates are the C(m-1, l-1) subsets
    that do, taken 2**18 // l at a time.  One is kept when none of the
    shifts and reflections that move one of its elements to 0 is smaller,
    and flipped when none of those reflections is itself.
    """
    reps, flips = [], []
    for tails in support_blocks(m - 1, l - 1, max(1, 2**18 // l)):
        cand = np.concatenate([np.zeros((len(tails), 1), dtype=np.intp), tails + 1], axis=1)
        keep = np.ones(len(cand), dtype=bool)
        flip = keep.copy()
        for i in range(l):
            for sign in (1, -1) if i else (-1,):
                diff = np.sort(sign * (cand - cand[:, i:i + 1]) % m, axis=1) - cand
                moved = diff != 0
                keep &= diff[np.arange(len(cand)), np.argmax(moved, axis=1)] >= 0
                if sign < 0:
                    flip &= moved.any(axis=1)
        reps.append(cand[keep])
        flips.append(flip[keep])
    return np.concatenate(reps), np.concatenate(flips)


def _gram_features(xs: np.ndarray, pairs) -> np.ndarray:
    """(s, N*N) real lift of the samples xs: |x_a|^2, then 2 Re(conj(x_a) x_b)
    and 2 Im(conj(x_a) x_b) for the pairs a < b."""
    a, b = pairs
    cross = 2.0 * (xs[:, a].conj() * xs[:, b])
    return np.concatenate([xs.real**2 + xs.imag**2, cross.real, cross.imag], axis=1)


def _real_features(xs: np.ndarray, pairs) -> np.ndarray:
    """(s, N(N+1)/2) real lift of the samples xs for real-symmetric weights:
    with y = x + i Jx (J reverses coordinates), a = Re y and b = Im y,
    (a_i^2 + b_i^2) / 2, then a_i a_j + b_i b_j for the pairs i < j."""
    y = xs + 1j * xs[:, ::-1]
    a, b = pairs
    re, im = y.real, y.imag
    return np.concatenate([0.5 * (re**2 + im**2), re[:, a] * re[:, b] + im[:, a] * im[:, b]],
                          axis=1)


def _bases(rows: np.ndarray) -> np.ndarray:
    """(B, l, N) rank-masked orthonormal bases of the spans of the (B, l, N)
    stacked rows, one SVD each: the conjugated rows of vh whose singular
    values exceed SINGULAR_REL_TOL times the largest, the others zero."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return (vh * (s > SINGULAR_REL_TOL * s[:, :1])[:, :, None]).conj()


def _block_weights(matrix: np.ndarray, supports: np.ndarray, pairs) -> np.ndarray:
    """Weights that score samples against the (B, l) block of supports in
    one GEMM, from their _bases.

    For N <= 4l they are the (N*N, B) real projectors G = V^H V, one
    column per support: G_aa, then Re G_ab and -Im G_ab for the pairs
    a < b, so _gram_features(x) @ weights = x^H G x.  Otherwise (past
    N = 4l the Gram weights would take N/(2l) > 2 times the memory) they
    are the complex (N, l*B) stacked bases: column j*B + k holds basis
    vector j of support k.  Past N = 4l the stacked bases take fewer
    multiply-adds a pair (4*l*N against N*N), yet they write l complex
    projections a pair and square them after, and are slower on most
    such cells (README, "Exact-search kernel").
    """
    n, l = matrix.shape[1], supports.shape[1]
    v = _bases(matrix[supports])                                       # (B, l, n)
    if n > 4 * l:
        return v.transpose(1, 0, 2).reshape(-1, n).T
    g = v.conj().transpose(0, 2, 1) @ v                                # (B, n, n)
    a, b = pairs
    upper = g[:, a, b].T
    return np.concatenate([g.diagonal(axis1=1, axis2=2).real.T, upper.real, -upper.imag])


def _orbit_blocks(matrix: np.ndarray, reps: np.ndarray, flip: np.ndarray, width: int, pairs):
    """(supports, weights) blocks covering every size-l support of a
    roots-of-unity frame, from _orbit_representatives' reps and flip: a
    slice of r representatives and their f flipped reflections, times all
    M shifts.  Column s*(r + f) + k scores representative k (or, past r,
    the reflection of flipped one k - r) shifted by s, and supports(cols)
    is the (len(cols), l) array of those supports, sorted.  A block holds
    at most 2 * max(width, M) supports.

    Shifting a support by s multiplies its rows by D_s = diag(z_s^k), the
    frame's row s, so its basis is V D_s^H and G_ab is multiplied by
    z_s^(a-b); node -j is conj(z_j), so the reflection -S has basis
    conj(V) and Gram conj(G).  Only the representatives are SVD'd.  Past
    N = 4l the weights are the stacked bases, (N, l*M*(r + f)) in
    _block_weights' order.  Otherwise they are real-symmetric: as
    J G J = conj(G) (J reverses coordinates; J row(z) = z^(N-1) conj(row(z))
    on the unit circle), x^H G x = (a^T H a + b^T H b) / 2 with a, b the
    real and imaginary parts of x + i Jx and H_ij = Re G_ij - Im G_(N-1-i)j,
    real and symmetric.  The weights are the (N(N+1)/2, M*(r + f)) H_ii,
    then H_ij for the pairs i < j, so _real_features(x) @ weights = x^H G x;
    each shift's are made from G_ij z_s^(i-j) and G_(N-1-i)j z_s^(N-1-i-j)
    by one batched GEMM.
    """
    m, n = matrix.shape
    l = reps.shape[1]
    if n > 4 * l:
        phase = matrix.conj().T[:, None, :, None]   # multiplies basis entry k of shift s
    else:
        i, j = (np.concatenate([np.arange(n), p]) for p in pairs)
        z, shift = default_nodes(m), np.arange(m)
        p, q = z[(i - j)[:, None] * shift % m], z[(n - 1 - i - j)[:, None] * shift % m]
        # H_ij of shift s is rotate[k, s] @ (Re, Im of G_ij, Re, Im of G_(N-1-i)j).
        rotate = np.stack([p.real, -p.imag, -q.imag, -q.real], axis=2)     # (K, M, 4)
    step = max(1, width // m)
    for start in range(0, len(reps), step):
        block, f = reps[start:start + step], flip[start:start + step]
        signed = np.concatenate([block, -block[f]])
        v = _bases(matrix[block])                                      # (r, l, n)
        if n > 4 * l:
            v = np.concatenate([v, v[f].conj()])
            weights = (v.transpose(2, 1, 0)[:, :, None, :] * phase).reshape(n, -1)
        else:
            g = (v.conj().transpose(0, 2, 1) @ v).transpose(1, 2, 0)   # (n, n, r)
            g = np.stack([g[i, j], g[n - 1 - i, j]])                   # (2, K, r)
            g = np.concatenate([g, g[:, :, f].conj()], axis=2)
            parts = np.stack([g[0].real, g[0].imag, g[1].real, g[1].imag], axis=1)
            weights = (rotate @ parts).reshape(len(i), -1)

        def supports(cols, signed=signed):
            return np.sort((signed[cols % len(signed)] + (cols // len(signed))[:, None]) % m,
                           axis=1)

        yield supports, weights


def _orbit_path(frame: Frame) -> bool:
    """Whether the exact search scores frame's supports as rotations and
    reflections of orbit representatives: its nodes are default_nodes(M).
    The symmetries hold at every weight."""
    return np.array_equal(frame.nodes, default_nodes(frame.m))


def _chunk_rows(frame: Frame, l: int) -> int:
    """Rows an exact search of weight l >= 1 lifts and scores at once, and
    an estimate draws: the most whole sample blocks whose scoring input
    fits _CHUNK_ENTRIES complex entries, at least one.  The input is the
    complex rows for the stacked bases (16*N bytes a row), the real lift
    for real-symmetric weights (4*N*(N+1)) or for Gram weights (8*N*N)."""
    n = frame.n
    if n > 4 * l:
        row = 16 * n
    elif _orbit_path(frame):
        row = 4 * n * (n + 1)
    else:
        row = 8 * n * n
    return _BLOCK * max(1, 16 * _CHUNK_ENTRIES // (_BLOCK * row))


def _lift(frame: Frame, X: np.ndarray, l: int) -> np.ndarray:
    """The scoring input of the checked (S, N) batch X for a search of
    weight l >= 1: X itself for the stacked bases (N > 4l), else its real
    lift, _real_features when _orbit_path holds and _gram_features
    otherwise."""
    n = frame.n
    if n > 4 * l:
        return X
    lift = _real_features if _orbit_path(frame) else _gram_features
    return lift(X, np.triu_indices(n, 1))


def _energies(frame: Frame, X: np.ndarray, l: int, budget: int):
    """Projection energies ||P_S x||^2 of the (S, N) batch X on every size-l
    support S (l >= 1), one block of supports at a time.

    Yields (rows, supports, energy): a slice of X, a function that maps
    columns of the block to their (len(cols), l) supports, each sorted,
    and the (len(rows), B) energies of those rows on the block, valid only
    until the next step: every GEMM writes them into one buffer.  A
    complex X is lifted once (_lift), for all blocks; a real X is taken
    as its lift.  When _orbit_path holds, the blocks come
    from _orbit_blocks: the weights of each shift and reflection are made
    from its representative's, so the energies may differ from a
    support's own SVD by a few ulp, and a support whose shifts fix it
    appears once per such shift.  Otherwise the blocks hold B =
    _GEMM_ENERGIES // (16*l*N) supports each, in lexicographic order, every
    support once, its weights from its own SVD.  Every GEMM makes at most
    _GEMM_ENERGIES energies (or projections, for the stacked bases).
    Raises BudgetExceeded when C(M, l) exceeds the budget.
    """
    _over_budget(frame.m, l, budget)
    m, n = frame.matrix.shape
    pairs = np.triu_indices(n, 1)
    # A block's weights (N*N <= 4*l*N floats, or l*N complex, per support)
    # then take at most a quarter of a GEMM's energies.
    width = max(1, _GEMM_ENERGIES // (16 * l * n))
    if _orbit_path(frame):
        blocks = _orbit_blocks(frame.matrix, *_orbit_representatives(m, l), width, pairs)
    else:
        # Column k of a block scores its row k.
        blocks = ((s.__getitem__, _block_weights(frame.matrix, s, pairs))
                  for s in support_blocks(m, l, width))
    if X.dtype == complex:
        X = _lift(frame, X, l)
    # Fresh GEMM outputs of unequal sizes left heap holes that raised an
    # estimate's peak RSS by 8 MiB.  A block holds at most 2 * max(width, m)
    # supports, so one row of any block fits.
    out = np.empty(max(_GEMM_ENERGIES, 2 * m))
    for supports, weights in blocks:
        chunk = max(1, _GEMM_ENERGIES // weights.shape[1])
        for start in range(0, len(X), chunk):
            rows = slice(start, start + chunk)
            yield rows, supports, _chunk_energies(X[rows], weights, l, out)


def _chunk_energies(xs: np.ndarray, weights: np.ndarray, l: int, out: np.ndarray) -> np.ndarray:
    """(s, B) projection energies of the samples xs, lifted to match real
    weights or complex (s, N) for stacked bases, on the B supports of one
    block, written into the front of the flat buffer out.  Where B < s
    they are written (B, s) and the transpose returned, so that the row
    maxima run along contiguous samples (an energy moves by an ulp or so,
    at most 5.6e-16 at N = 6, M = 12, L = 3)."""
    stacked = weights.dtype == complex
    s, b = len(xs), weights.shape[1] // (l if stacked else 1)
    flip = b < s
    energy = out[:s * b].reshape((b, s) if flip else (s, b))
    if not stacked:
        np.matmul(*((weights.T, xs.T) if flip else (xs, weights)), out=energy)
    else:
        proj = ((weights.T @ xs.T).reshape(l, b, s) if flip
                else (xs @ weights).reshape(s, l, b).transpose(1, 0, 2))
        energy[...] = 0.0
        for part in proj:
            energy += part.real ** 2 + part.imag ** 2
    return energy.T if flip else energy


def _signals(frame: Frame, X, l: int) -> tuple[np.ndarray, np.ndarray]:
    """X as an (S, N) complex batch for a search of weight l, and its squared
    row norms, as every search and estimate takes them (projection_residual,
    the tests' reference, keeps its own).  Raises ValueError on another
    shape or a non-finite entry, DomainError unless 0 <= l <= M.

    The norms sum the squares of X.real and of X.imag, views of X, so no
    copy of the batch is made, and a row's norm does not depend on the
    rows beside it."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[1] != frame.n:
        raise ValueError(f"signals have shape {X.shape}, expected (S, {frame.n})")
    if not np.isfinite(X).all():
        raise ValueError("signals must be finite")
    if not 0 <= l <= frame.m:
        raise DomainError(f"need 0 <= L <= M, got L={l}")
    norms = np.einsum("sn,sn->s", X.real, X.real)
    norms += np.einsum("sn,sn->s", X.imag, X.imag)
    return X, norms


@dataclass(frozen=True)
class SmddResult:
    """Best size-<=L support for one signal: 1-based support, squared
    residual, and whether other supports tied within TIE_TOL ||x||^2."""

    support: tuple[int, ...]
    residual_sq: float
    ties_broken: bool


def smdd_exact(frame: Frame, x, l: int, budget: int = DEFAULT_BUDGET) -> SmddResult:
    """Exact sparsity-constrained minimum distortion by full enumeration.

    Minimizes ||x - proj||^2 over all size-l supports; ties within
    TIE_TOL * ||x||^2 of the minimum, a margin that scales with x, are
    broken toward the lexicographically smallest support.  At l >= N on
    a Vandermonde frame every support spans C^N, so the answer is
    (1, ..., l) at residual 0, tied unless l = M, with no search and no
    charge to the budget; otherwise raises BudgetExceeded when C(M, l)
    exceeds the subset budget.  Every support fits the zero signal, so
    within the budget it gets that answer too, without a search.
    """
    xs, norms = _signals(frame, np.ravel(x)[None, :], l)
    if l == 0:
        return SmddResult((), float(norms[0]), False)
    if l >= frame.n and frame.kind == VANDERMONDE:
        return SmddResult(tuple(range(1, l + 1)), 0.0, l < frame.m)
    if norms[0] == 0.0:
        _over_budget(frame.m, l, budget)
        return SmddResult(tuple(range(1, l + 1)), 0.0, l < frame.m)
    # Ties are judged against the global minimum.  Each block's supports
    # within the margin of the running one join those kept, and only the
    # ones that no lexicographically smaller one matches or beats stay: the
    # pick is among them, and the smallest residual of the rest tells
    # whether one of those ties.  Orbit blocks repeat the supports their
    # shifts fix: np.unique keeps each one's first residual, sorted.
    margin, best, dominated = TIE_TOL * norms[0], np.inf, np.inf
    res, supports = np.empty(0), np.empty((0, l), dtype=np.intp)
    for _, support_of, energy in _energies(frame, xs, l, budget):
        block = np.maximum(norms[0] - energy[0], 0.0)
        best = min(best, block.min())
        cols = np.flatnonzero(block <= best + margin)
        supports, first = np.unique(np.concatenate([supports, support_of(cols)]), axis=0,
                                    return_index=True)
        res = np.concatenate([res, block[cols]])[first]
        beaten = np.r_[False, res[1:] >= np.minimum.accumulate(res)[:-1]]
        dominated = min(dominated, res[beaten].min(initial=np.inf))
        res, supports = res[~beaten], supports[~beaten]
    cand = np.flatnonzero(res <= res.min() + margin)
    pick = int(cand[0])
    return SmddResult(tuple(int(i) + 1 for i in supports[pick]), float(res[pick]),
                      bool(cand.size > 1 or dominated <= res.min() + margin))


def smdd_residuals(frame: Frame, X, l: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """smdd_exact's squared residual for each row of the (S, N) batch X: the
    norm less the largest projection energy over supports, kept as a running
    maximum while they are scored block by block, _chunk_rows rows at a
    time.  At l >= N it is 0 without a search: every frame spans C^N, so
    some size-l support does (the bound's L = N branch).  Raises
    BudgetExceeded when C(M, l) exceeds the subset budget at 1 <= l < N,
    where supports are scored."""
    return _residuals(frame, *_signals(frame, X, l), l, budget)


def _residuals(frame: Frame, X: np.ndarray, norms: np.ndarray, l: int, budget: int) -> np.ndarray:
    """smdd_residuals of a batch X that _signals has checked, or of its
    _lift, with the squared row norms it returned."""
    if l == 0:
        return norms
    if l >= frame.n:
        return np.zeros(len(X))
    _over_budget(frame.m, l, budget)
    top = np.full(X.shape[0], -np.inf)
    chunk = _chunk_rows(frame, l)
    for start in range(0, len(X), chunk):
        best = top[start:start + chunk]
        for rows, _, energy in _energies(frame, X[start:start + chunk], l, budget):
            best[rows] = np.maximum(best[rows], energy.max(axis=1))
    return np.maximum(norms - top, 0.0)


def smdd_greedy(frame: Frame, x, l: int) -> SmddResult:
    """Greedy (matching-pursuit style) approximation of smdd_exact.

    Picks the row best aligned with the running residual l times,
    re-projecting x onto the chosen span after each pick, until the best
    normalized correlation falls to 1e-14 ||x|| or the squared residual
    to 1e-28 ||x||^2.  The result
    upper-bounds the exact minimum and is labeled approximate wherever
    it is surfaced; it never feeds bound-comparison verdicts.
    """
    xs, norms = _signals(frame, np.ravel(x)[None, :], l)
    x = xs[0]
    chosen: list[int] = []
    residual = x.copy()
    norm_sq = resid_sq = float(norms[0])
    row_norms = np.linalg.norm(frame.matrix, axis=1)
    for _ in range(l):
        scores = np.abs(frame.matrix.conj() @ residual) / row_norms
        scores[chosen] = -1.0
        best = int(np.argmax(scores))
        if scores[best] <= 1e-14 * math.sqrt(norm_sq):
            break
        chosen.append(best)
        # One basis of the chosen rows gives both the residual that drives
        # the next pick and its squared norm (as in projection_residual).
        basis = _bases(frame.matrix[chosen][None])[0]
        coeffs = basis @ x
        residual = x - basis.conj().T @ coeffs
        resid_sq = max(norm_sq - float(np.vdot(coeffs, coeffs).real), 0.0)
        if resid_sq <= 1e-28 * norm_sq:
            break
    chosen.sort()
    return SmddResult(tuple(i + 1 for i in chosen), resid_sq, False)


def bds_decode(frame: Frame, x, delta: float, budget: int = DEFAULT_BUDGET):
    """Smallest L whose SMDD residual meets ||x - proj||^2 <= delta ||x||^2.

    Binary search over L in [0, N], valid because the SMDD residual is
    non-increasing in L and reaches 0 at L = N (every frame spans C^N),
    so L = N, never probed, is searched only when the search ends there.
    Comparisons carry a 1e-12 relative slack so exactly-representable
    signals at delta = 0 resolve correctly.
    Returns (l_min, smdd_exact result at l_min).
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta {delta} outside [0, 1]")
    found = smdd_exact(frame, x, 0, budget=budget)     # residual ||x||^2
    norm_sq = found.residual_sq
    thr = delta * norm_sq + 1e-12 * norm_sq
    if norm_sq <= thr:
        return 0, found
    lo, hi = 0, frame.n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe = smdd_exact(frame, x, mid, budget=budget)
        if probe.residual_sq <= thr:
            hi, found = mid, probe
        else:
            lo = mid
    return hi, found if hi < frame.n else smdd_exact(frame, x, hi, budget=budget)


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

    ratios holds the per-sample values in sample-index order, 8 bytes per
    sample (None on an estimate built by hand)."""

    mean: float
    stderr: float
    n_samples: int
    config: EstimateConfig
    approximate: bool = False
    ratios: np.ndarray | None = field(default=None, repr=False, compare=False)


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

    Deterministic given (frame, l, n_samples, seed): the samples are
    sample_sphere_batch(frame.n, n_samples, seed), drawn and scored a
    chunk of whole blocks at a time, as many as _chunk_rows gives (at
    least one), and reduced in index order.  Only the
    ratios are kept, so memory grows by 8 bytes per sample.  The seed and
    the arguments are checked before any sample is drawn: DomainError on
    bad arguments.  When C(M, l) exceeds the budget at 1 <= l < N, either
    raises BudgetExceeded or, with fallback_greedy, substitutes the greedy
    search and labels the estimate approximate.  No sample is drawn and no
    support counted where the exact search reads none: at l = 0 every
    ratio is 1, at l >= N every ratio is 0.
    """
    return _estimates(frame, (l,), n_samples, seed, budget, sample_sphere_batch,
                      fallback_greedy)[0]


def _estimates(frame: Frame, ls, n_samples: int, seed, budget: int, draw,
               fallback_greedy: bool = False) -> list[DistortionEstimate]:
    """estimate_distortion of frame at each weight of ls, in ls order.

    The weights of one chunk size (_chunk_rows) share each chunk: it is
    read through draw(n, rows, seed, start), which must return
    sample_sphere_batch(n, rows, seed, start), checked and normed once,
    and lifted once per scoring form (_lift), one lift held at a time, so
    each estimate is estimate_distortion's.  Chunk sizes run largest
    first and no chunk is written to, so a draw that keeps its last chunk
    can hand out the smaller ones as slices of it, as vframe sweep's does.
    The ratios of every weight are kept, 8 bytes per sample each."""
    seed = _seed(seed)
    if n_samples < 1:
        raise DomainError("need n_samples >= 1")
    n, ratios, approximate = frame.n, {}, {}
    for l in ls:
        if not 0 <= l <= frame.m:
            raise DomainError(f"need 0 <= L <= M, got L={l}")
        approximate[l] = 0 < l < n and _over_budget(frame.m, l, budget,
                                                    refuse=not fallback_greedy)
        ratios[l] = np.ones(n_samples) if l == 0 else np.zeros(n_samples)
    searched = {l for l in ls if 0 < l < n}
    for chunk in sorted({_chunk_rows(frame, l) for l in searched}, reverse=True):
        group = sorted(l for l in searched if _chunk_rows(frame, l) == chunk)
        for start in range(0, n_samples, chunk):
            lifted = None
            X, norms = _signals(frame, draw(n, min(chunk, n_samples - start), seed, start),
                                group[0])
            for l in group:
                if approximate[l]:
                    mins = np.array([smdd_greedy(frame, x, l).residual_sq for x in X])
                else:
                    # The stacked bases (N > 4l) score X itself; the frame
                    # has one real form for every other weight.
                    if lifted is None and n <= 4 * l:
                        lifted = _lift(frame, X, l)
                    mins = _residuals(frame, X if n > 4 * l else lifted, norms, l, budget)
                ratios[l][start:start + len(X)] = mins / norms
    estimates, fid = [], frame_id(frame)
    for l in ls:
        config = EstimateConfig(fid, n, frame.m, l, seed)
        stderr = float(ratios[l].std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
        estimates.append(DistortionEstimate(float(ratios[l].mean()), stderr, n_samples, config,
                                            approximate[l], ratios[l]))
    return estimates


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

"""Sparsest-representation recovery over Vandermonde frames.

A signal r in C^N synthesized from a coefficient vector of weight
w <= floor(N/2) is recovered exactly: in that regime the minimal-weight
representation is unique, and the classical algebraic decoding
pipeline, run in complex floating point, finds it.  decode reads one
lazily generated stream of candidate supports, minimal weight first,
and judges each with one gate:

    1. syndromes  -- the coordinates of r, read off verbatim;
    2. Euclid     -- extended Euclid division on (z^N, S1[z]) yields the
                     locator sigma; its roots among the inverse nodes,
                     when they number its degree, are the first candidate;
    3. recurrence -- one QR of the syndromes' Hankel rows gives the
                     recurrence misfit of every weight <= floor(N/2);
                     each passing weight, lightest first, yields a
                     least-squares locator, and the w inverse nodes
                     where a weight-w locator is smallest in modulus
                     are the next candidates;
    4. values     -- Forney's formula and one least-squares refinement on
                     a candidate's rows; near-zero phantom values drop
                     their locations, until none is left;
    5. gate       -- a candidate that re-synthesizes r to machine level
                     ends the stream; otherwise the lowest relative
                     residual wins, and it is "ok" within the tolerance.

The recurrence candidates exist for numerical stability.  The Euclid
recursion is exact-arithmetic math; in doubles its remainder sequence
degrades as the weight approaches floor(N/2) for N beyond ~16 (leading
remainder coefficients suffer heavy cancellation).  The recurrence QR
stacks the conjugate-reversed syndromes when the nodes are
unit-modulus, which doubles the data and tames clustered supports.

"ok" certifies the residual only: near the decoding radius, and for
clustered supports inside it, another support can meet the tolerance
too (README, "Decoding accuracy").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateDenominator,
    DomainError,
    LengthMismatch,
    NumericBreakdown,
    RootCountMismatch,
    VframeError,
)
from .frames import VANDERMONDE, ZERO_REL_TOL, Frame, SparseRep, complex_to_pairs
from .poly import _max, poly_degree, poly_divmod, poly_eval, poly_trim

# Root acceptance factor: sigma(1/z_j) counts as zero below
# ROOT_ACCEPT_TOL * (1 + max_k |sigma(1/z_k)|).
ROOT_ACCEPT_TOL = 1e-6

# Default relative residual accepted by decode().
RESIDUAL_TOL = 1e-6

# A candidate decodes "exactly" below this residual; the candidate scan
# stops early there, otherwise it keeps looking for a better fit.
STRICT_RESIDUAL = 1e-9

# A candidate weight enters the fallback scan when its syndrome
# recurrence misfit is below this (relative, per sqrt-row).
RECURRENCE_TOL = 1e-6

STATUS_OK = "ok"
STATUS_WEIGHT = "weight_exceeds_half_n"
STATUS_RESIDUAL = "residual_too_large"


def _norm(x) -> float:
    """2-norm of a complex vector, formed as np.linalg.norm forms it (the
    dot products of the real and imaginary parts, then the square root),
    without its dispatch."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of a decode attempt.

    rep is the recovered representation (empty when no candidate of
    weight <= floor(N/2) survived), residual the relative synthesis
    error of rep, locator_degree the degree of the accepted locator
    (-1 when the key equation already failed).  status "ok" guarantees
    residual <= tolerance and locator_degree == rep.weight.
    """

    rep: SparseRep
    residual: float
    locator_degree: int
    status: str


def syndromes(frame: Frame, r) -> np.ndarray:
    """The N syndrome values of r: its coordinates, read off verbatim.

    The i-th coordinate of a synthesized signal equals the i-th power
    sum sum_j c_j z_j**(i-1) of its coefficients, and annihilating
    vectors have power sums 1..N all zero, so every representation of
    r shares these values, and no linear solve is needed.
    """
    if frame.kind != VANDERMONDE:
        raise ValueError("syndrome decoding requires a vandermonde frame")
    r = np.asarray(r, dtype=complex).ravel()
    if r.size != frame.n:
        raise LengthMismatch(f"signal has length {r.size}, expected {frame.n}")
    return r.copy()


def solve_key_equation(s, t: int) -> np.ndarray:
    """Locator sigma from the syndromes.

    Runs the extended Euclid division algorithm on (z^N, S1[z]) with
    S1[z] = sum_j s_j z**(j-1), stopping at the first remainder of
    degree <= t - 1; sigma is the Bezout multiplier of S1 at that
    step, normalized so sigma(0) = 1.  For syndromes of a
    representation of weight w <= t this yields deg sigma = w, and
    S1 * sigma (mod z^N) has degree <= w - 1 to working precision.
    A caller's evaluator is S1 * sigma mod z^w of each candidate's own
    locator, as _values forms it for forney_values.

    All-zero syndromes return 1, signaling the zero representation.
    Raises NumericBreakdown when no stable normalized solution exists
    (constant term of the multiplier vanishes).
    """
    s = np.asarray(s, dtype=complex).ravel()
    n = s.size
    if n == 0:
        raise ValueError("need at least one syndrome")
    if not 0 <= t <= n:
        raise ValueError("t must lie in 0..N")
    one = np.array([1.0], dtype=complex)
    if _max(np.abs(s)) == 0.0:
        return one

    r_prev = np.zeros(n + 1, dtype=complex)
    r_prev[n] = 1.0                                # z^N
    r_cur = poly_trim(s)
    v_prev = s[:0]                                 # multipliers of S1
    v_cur = one.copy()
    # poly_divmod returns trimmed remainders, each shorter than its
    # divisor, so r_cur.size - 1 is the degree and the loop ends.
    while r_cur.size > t:
        q, rem = poly_divmod(r_prev, r_cur)
        # v_prev - q * v_cur, where q * v_cur is the longer of the two.
        v_next = -np.convolve(q, v_cur)
        v_next[: v_prev.size] += v_prev
        r_prev, v_prev = r_cur, v_cur
        r_cur, v_cur = rem, v_next
        # Joint rescale keeps the recursion well-scaled; each (r, v)
        # pair satisfies its own Bezout relation, so pairs may be
        # scaled independently of one another.  Both arrays are fresh,
        # so they are scaled in place.
        top = _max(np.abs(r_cur)) if r_cur.size else 0.0
        if top > 0.0:
            r_cur /= top
            v_cur /= top

    if abs(v_cur[0]) <= 1e-12 * _max(np.abs(v_cur)):
        raise NumericBreakdown("locator constant term vanished")
    return poly_trim(v_cur / v_cur[0])


def find_error_locations(sigma, frame: Frame) -> list[int]:
    """1-based indices j for which 1/z_j is a root of sigma.

    Evaluates sigma at every inverse node and accepts values below
    ROOT_ACCEPT_TOL * (1 + the largest evaluation magnitude); the
    absolute floor keeps the test meaningful when every evaluation is
    small.  The accepted count must equal deg sigma, otherwise the
    weight exceeded the decoding radius (or numerics failed) and
    RootCountMismatch is raised.
    """
    if frame.kind != VANDERMONDE:
        raise ValueError("root location requires a vandermonde frame")
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.size == 0 or abs(sigma[0] - 1.0) > 1e-6:
        raise ValueError("locator must be normalized with sigma(0) = 1")
    vals = np.abs(poly_eval(sigma, 1.0 / frame.nodes))
    hits = np.nonzero(vals < ROOT_ACCEPT_TOL * (1.0 + _max(vals)))[0]
    deg = poly_degree(sigma)
    if hits.size != deg:
        raise RootCountMismatch(
            f"locator degree {deg} but {hits.size} roots among inverse nodes"
        )
    return (hits + 1).tolist()


def forney_values(omega, locations, frame: Frame) -> np.ndarray:
    """Coefficient values at the located indices.

    Uses the explicit product form
        Y_j = omega(1/X_j) / prod_{i != j} (1 - X_i / X_j)
    with X_j the located nodes (the empty product is 1).  omega is
    S1 * sigma mod z^w for their locator sigma = prod_j (1 - X_j z), as
    _values forms it.
    """
    x = frame.nodes[np.asarray(locations, dtype=int) - 1]
    if x.size == 0:
        return np.zeros(0, dtype=complex)
    xinv = 1.0 / x
    factors = 1.0 - x[:, None] * xinv          # [i, j] = 1 - X_i / X_j
    factors.reshape(-1)[:: x.size + 1] = 1.0   # empty product over i == j
    dens = factors.prod(axis=0)
    small = np.abs(dens) <= 1e-12
    if small.any():
        j = int(np.nonzero(small)[0][0])
        raise DegenerateDenominator(f"denominator vanished at location {locations[j]}")
    return poly_eval(omega, xinv) / dens


# -- decode internals ---------------------------------------------------------

# scipy.linalg.lstsq's default rank cutoff for complex128 gelsy.
_GELSY_COND = float(np.finfo(np.complex128).eps)


@functools.cache
def _gelsy():
    """LAPACK zgelsy and its workspace query.  scipy is imported here, on
    the first least-squares solve, so importing vframe does not load it."""
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs(("gelsy", "gelsy_lwork"), dtype=np.complex128)


def _lstsq(a, b):
    """Least-squares solution of the complex system a x = b, b a vector,
    as scipy.linalg.lstsq(a, b, lapack_driver="gelsy") returns it: the
    same LAPACK call, cutoff and workspace, without its checks.  The
    decoder's systems have at least as many rows as columns."""
    m, n = a.shape
    if m == 0 or n == 0:
        # LAPACK rejects empty systems; a weight-0 candidate has n == 0.
        return np.zeros(n, dtype=complex)
    gelsy, gelsy_lwork = _gelsy()
    work, _ = gelsy_lwork(m, n, 1, _GELSY_COND)
    _, x, _, _, info = gelsy(a, b, np.zeros((n, 1), dtype=np.int32), _GELSY_COND,
                             int(work.real), False, False)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gelsy")
    return x[:n]


def _values(frame, s, support):
    """Forney values on a support, from the truncated evaluator
    S1 * sigma mod z^w of its exact product locator sigma, refined by one
    least-squares step; returned with the support's frame rows, or None
    when a Forney denominator vanishes."""
    idx = np.asarray(support, dtype=int) - 1
    factors = np.empty((idx.size, 2), dtype=complex)  # row j: 1 - X_j z
    factors[:, 0] = 1.0
    np.negative(frame.nodes[idx], out=factors[:, 1])
    sigma = np.array([1.0], dtype=complex)
    for factor in factors:
        sigma = np.convolve(sigma, factor)
    omega = poly_trim(np.convolve(s, sigma)[: idx.size]) if idx.size else s[:0]
    try:
        values = forney_values(omega, support, frame)
    except DegenerateDenominator:
        return None
    rows = frame.matrix[idx]
    return values + _lstsq(rows.T, s - values @ rows), rows


def _candidate(frame, s, support, norm_s):
    """(support, values, residual) for a candidate support, or None when
    a Forney denominator vanishes.  A superset of the true support carries
    near-zero phantom values: locations whose values fall below the dense
    zero threshold are dropped and the rest valued afresh, until every
    value passes it.  Each round drops a location, so the rounds end."""
    fit = _values(frame, s, support)
    while fit is not None and support:
        mags = np.abs(fit[0])
        keep = mags > ZERO_REL_TOL * _max(mags)
        if keep.all():
            break
        support = tuple(loc for loc, k in zip(support, keep) if k)
        fit = _values(frame, s, support)
    if fit is None:
        return None
    values, rows = fit
    return support, values, _norm(s - values @ rows) / norm_s


def _recurrence_locators(s, nodes):
    """Locators fitted to the syndrome recurrence, of every weight
    w <= t = floor(N/2) whose misfit passes RECURRENCE_TOL, lightest
    first; none when weight t fails.  nodes decide whether the
    conjugate-reversed syndromes, which obey the same recurrence when the
    nodes are unit-modulus, are stacked too.

    One QR serves every weight.  Row i of a sequence is (s_i, ..., s_{i+t}),
    so the first w columns of the stack H predict column w through
    s_{i+w} = -sum_k sigma_k s_{i+w-k}; with H = QR, |R_ww| is the
    least-squares misfit of that fit and R[:w, :w] x = -R[:w, w] gives
    its tail (sigma_w, ..., sigma_1).  Past the minimal order the block
    R[:w, :w] is near-singular, and the minimum-norm solution is an
    overshot locator whose phantom roots carry near-zero values; the
    candidate step collapses them.  A non-unit frame at even N has t
    rows for t + 1 columns: weight t then fits exactly, and its missing
    diagonal entry counts as 0.
    """
    t = s.size // 2
    seqs = [s]
    if np.all(np.abs(np.abs(nodes) - 1.0) <= 1e-9):   # unit-modulus nodes
        seqs.append(np.conj(s[::-1]))
    h = np.concatenate([sliding_window_view(seq, t + 1) for seq in seqs])
    r = np.linalg.qr(h, mode="r")
    misfit = np.zeros(t + 1)
    misfit[: min(r.shape)] = np.abs(np.diagonal(r))
    # Relative, per sqrt-row, as RECURRENCE_TOL is stated.
    passing = misfit <= RECURRENCE_TOL * np.abs(s).max() * math.sqrt(h.shape[0])
    if not passing[t]:
        return
    for w in range(1, t + 1):
        if passing[w]:
            x = _lstsq(r[:w, :w], -r[:w, w])
            yield np.concatenate((np.ones(1, dtype=complex), x[::-1]))


def _smallest_at_nodes(sigma, nodes):
    """Support of the w inverse nodes where |sigma| is smallest, with
    w = deg sigma >= 1 (_recurrence_locators offers no weight 0); None
    when sigma does not evaluate to finite values.

    A soft Chien search: the locator of a weight-w representation
    vanishes at its w inverse nodes.  Unlike find_error_locations it
    applies no threshold, so a locator fitted slightly off the nodes
    still names its support, and a wrong pick is caught by the
    synthesis-residual gate.  One Horner pass over the M nodes costs
    O(M w), against O(w^3) for the roots of sigma.
    """
    w = sigma.size - 1
    vals = np.abs(poly_eval(sigma, 1.0 / nodes))
    if not np.all(np.isfinite(vals)):
        return None
    idx = np.argpartition(vals, w - 1)[:w]
    return tuple(sorted(int(i) + 1 for i in idx))


def _supports(frame, s, sigma):
    """Candidate supports, minimal weight first: the roots of the Euclid
    locator sigma (None when the key equation broke down) when its
    degree is at most floor(N/2) and they number it, then the support of
    each recurrence locator."""
    if sigma is not None and sigma.size - 1 <= frame.n // 2:   # sigma comes back trimmed
        try:
            roots = find_error_locations(sigma, frame)
        except RootCountMismatch:
            pass
        else:
            yield tuple(roots)
    for locator in _recurrence_locators(s, frame.nodes):
        support = _smallest_at_nodes(locator, frame.nodes)
        if support is not None:
            yield support


def decode(frame: Frame, r, tol: float = RESIDUAL_TOL) -> DecodeOutcome:
    """Recover the unique representation of weight <= floor(N/2), if any.

    Returns status "ok" with the exact sparsest representation when
    one of weight <= floor(N/2) exists; otherwise
    "weight_exceeds_half_n" (no admissible locator was found) or
    "residual_too_large" (best candidate misses r by more than tol in
    relative error).  Failures are reported as data, never raised; a
    signal of the wrong length (LengthMismatch) or with a non-finite
    entry or norm (ValueError) is refused, and so is a tol that is not
    finite with 0 < tol < 1 (DomainError).
    """
    _check_tol(tol)
    # The syndromes are r's coordinates, so they serve as the signal too.
    s = syndromes(frame, r)
    norm_s = _norm(s)
    # A nan or infinite entry makes the norm non-finite, and so does a
    # finite signal whose norm overflows; neither can be decoded.
    if not math.isfinite(norm_s):
        raise ValueError("signal must be finite, with a finite norm")
    sigma = None
    if norm_s == 0.0:
        best = ((), s[:0], 0.0)                    # the zero signal, exactly
    else:
        try:
            sigma = solve_key_equation(s, frame.n // 2)
        except VframeError:
            pass
        # The gate: the first candidate at machine-level residual ends the
        # scan; otherwise the lowest residual wins, the earlier on a tie.
        strict = min(tol, STRICT_RESIDUAL)
        best = None
        for support in _supports(frame, s, sigma):
            cand = _candidate(frame, s, support, norm_s)
            if cand is not None and (best is None or cand[2] < best[2]):
                best = cand
                if best[2] <= strict:
                    break
    if best is None:
        degree = -1 if sigma is None else sigma.size - 1
        return DecodeOutcome(SparseRep(frame.m, (), s[:0]), 1.0, degree, STATUS_WEIGHT)
    support, values, residual = best
    status = STATUS_OK if residual <= tol else STATUS_RESIDUAL
    return DecodeOutcome(SparseRep(frame.m, support, values), residual, len(support), status)


def _check_tol(tol: float) -> None:
    """Raise DomainError unless tol is a relative residual decode can
    meet and that still rejects something: finite, 0 < tol < 1."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must be finite with 0 < tol < 1, got {tol}")


def outcome_to_json(outcome: DecodeOutcome) -> dict:
    """JSON-ready dict: status, 1-based support, [re, im] values, residual."""
    return {
        "status": outcome.status,
        "support": list(outcome.rep.support),
        "values": complex_to_pairs(outcome.rep.values),
        "residual": outcome.residual,
        "locator_degree": outcome.locator_degree,
    }

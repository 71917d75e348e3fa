"""Sparsest-representation recovery over Vandermonde frames.

A signal r in C^N synthesized from a coefficient vector of weight
w <= floor(N/2) is recovered exactly: in that regime the minimal-weight
representation is unique, and it is found by the classical algebraic
decoding pipeline run in complex floating point:

    1. syndromes      -- the coordinates of r, read off verbatim;
    2. key equation   -- extended Euclid division on (z^N, S1[z])
                         yields locator sigma and evaluator omega;
                         each division returns a trimmed remainder,
                         so the loop reads degrees off array lengths;
    3. root location  -- sigma is evaluated at every inverse node;
    4. value recovery -- Forney's formula, then one least-squares
                         refinement step on the located support;
    5. verification   -- re-synthesize and check the relative residual.

Every decode is self-checking: a result is reported "ok" only when the
re-synthesized signal matches r to the requested tolerance, so the
decoder may reject an input but never silently mis-decodes one.

Numerical stability.  The Euclid recursion is exact-arithmetic math;
in doubles its remainder sequence degrades as the weight approaches
floor(N/2) for N beyond ~16 (leading remainder coefficients suffer
heavy cancellation).  When the Euclid route fails its own
verification, decode falls back to a stabilized locator estimate: the
locator coefficients are re-fit by least squares to the syndrome
recurrence (stacked with the conjugate-reversed syndromes when the
nodes are unit-modulus, which doubles the data and tames clustered
supports), candidate weights are scanned in increasing order, the
support of a weight-w locator is the w inverse nodes where it is
smallest in modulus, and each candidate must pass
the synthesis-residual gate.  Worst-case configurations at w = N/2
sit at the edge of double-precision identifiability, so a small
failure rate remains near N = 64 at full weight; failures surface as
non-"ok" statuses, never as wrong answers.
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
from .poly import poly_degree, poly_divmod, poly_eval, poly_trim

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


def solve_key_equation(s, t: int):
    """Locator/evaluator pair (sigma, omega) from the syndromes.

    Runs the extended Euclid division algorithm on (z^N, S1[z]) with
    S1[z] = sum_j s_j z**(j-1), stopping at the first remainder of
    degree <= t - 1; sigma is the Bezout multiplier of S1 at that
    step, normalized so sigma(0) = 1, and omega the remainder.  For
    syndromes of a representation of weight w <= t this yields
    deg sigma = w, deg omega <= w - 1 and omega = S1 * sigma
    (mod z^N) to working precision.

    All-zero syndromes return (1, 0), signaling the zero
    representation.  Raises NumericBreakdown when no stable normalized
    solution exists (constant term of the multiplier vanishes).
    """
    s = np.asarray(s, dtype=complex).ravel()
    n = s.size
    if n == 0:
        raise ValueError("need at least one syndrome")
    if not 0 <= t <= n:
        raise ValueError("t must lie in 0..N")
    one = np.ones(1, dtype=complex)
    if np.abs(s).max() == 0.0:
        return one, s[:0]

    r_prev = np.zeros(n + 1, dtype=complex)
    r_prev[n] = 1.0                                # z^N
    r_cur = poly_trim(s)
    v_prev = s[:0]                                 # multipliers of S1
    v_cur = one.copy()
    # poly_divmod returns trimmed remainders, each shorter than its
    # divisor, so r_cur.size - 1 is the degree and the loop ends.
    while r_cur.size > t:
        q, rem = poly_divmod(r_prev, r_cur)
        # q * v_cur is longer than v_prev: pad v_prev, then subtract.
        qv = np.convolve(q, v_cur)
        v_next = np.concatenate((v_prev, np.zeros(qv.size - v_prev.size, dtype=complex))) - qv
        r_prev, v_prev = r_cur, v_cur
        r_cur, v_cur = rem, v_next
        # Joint rescale keeps the recursion well-scaled; each (r, v)
        # pair satisfies its own Bezout relation, so pairs may be
        # scaled independently of one another.
        top = np.abs(r_cur).max() if r_cur.size else 0.0
        if top > 0.0:
            r_cur = r_cur / top
            v_cur = v_cur / top

    if abs(v_cur[0]) <= 1e-12 * np.abs(v_cur).max():
        raise NumericBreakdown("locator constant term vanished")
    sigma = poly_trim(v_cur / v_cur[0])
    omega = poly_trim(r_cur / v_cur[0])
    return sigma, omega


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
    hits = np.nonzero(vals < ROOT_ACCEPT_TOL * (1.0 + vals.max()))[0]
    deg = poly_degree(sigma)
    if hits.size != deg:
        raise RootCountMismatch(
            f"locator degree {deg} but {hits.size} roots among inverse nodes"
        )
    return [int(j) + 1 for j in hits]


def forney_values(omega, locations, frame: Frame) -> np.ndarray:
    """Coefficient values at the located indices.

    Uses the explicit product form
        Y_j = omega(1/X_j) / prod_{i != j} (1 - X_i / X_j)
    with X_j the located nodes (the empty product is 1).
    """
    x = frame.nodes[np.asarray(locations, dtype=int) - 1]
    if x.size == 0:
        return np.zeros(0, dtype=complex)
    xinv = 1.0 / x
    factors = 1.0 - np.outer(x, xinv)          # [i, j] = 1 - X_i / X_j
    np.fill_diagonal(factors, 1.0)             # empty product over i == j
    dens = factors.prod(axis=0)
    small = np.abs(dens) <= 1e-12
    if np.any(small):
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


def _evaluator_for_support(s, nodes, locations):
    """Truncated evaluator S1 * sigma mod z^w for a known support of
    weight w, with sigma its exact product locator."""
    x = nodes[np.asarray(locations, dtype=int) - 1]
    sigma = np.ones(1, dtype=complex)
    for xi in x:
        sigma = np.convolve(sigma, np.array([1.0, -xi]))
    return poly_trim(np.convolve(s, sigma)[: x.size]) if x.size else s[:0]


def _candidate(frame, r, s, locations, norm_r, _collapsed=False):
    """(rep, residual) for a candidate support, or None when unusable.

    Values come from Forney's formula plus one least-squares
    refinement step on the located rows.  Values below the dense zero
    threshold collapse the support (a superset of the true support
    carries near-zero phantom values) and the reduced candidate is
    rebuilt once.
    """
    w = len(locations)
    omega = _evaluator_for_support(s, frame.nodes, locations)
    try:
        values = forney_values(omega, list(locations), frame)
    except DegenerateDenominator:
        return None
    rows = frame.matrix[np.asarray(locations, dtype=int) - 1]
    values = values + _lstsq(rows.T, r - values @ rows)
    if not _collapsed and w:
        keep = np.abs(values) > ZERO_REL_TOL * np.abs(values).max()
        if not np.all(keep):
            reduced = tuple(loc for loc, k in zip(locations, keep) if k)
            return _candidate(frame, r, s, reduced, norm_r, _collapsed=True)
    rep = SparseRep(frame.m, tuple(locations), values)
    residual = float(np.linalg.norm(r - values @ rows) / norm_r) if w else 1.0
    return rep, residual


def _recurrence_fit(s, seqs, w):
    """Least-squares locator tail for weight w plus its relative misfit.

    Fits s_i = -sum_k sigma_k s_{i-k} over every stacked sequence (the
    conjugate-reversed syndromes obey the same recurrence when the
    nodes are unit-modulus, doubling the equations).  Row i of a sequence
    reads its entries i+w-1 down to i, and its right-hand side entry i+w.
    """
    a = np.concatenate([sliding_window_view(seq[:-1], w)[:, ::-1] for seq in seqs])
    b = -np.concatenate([seq[w:] for seq in seqs])
    x = _lstsq(a, b)
    misfit = float(np.linalg.norm(a @ x - b))
    scale = np.abs(s).max() * math.sqrt(a.shape[0])
    return np.concatenate((np.ones(1, dtype=complex), x)), misfit / scale


def _recurrence_candidates(s, t, unit_circle):
    """Candidate (weight, locator) pairs from the syndrome recurrence,
    minimal weight first.

    The misfit drops from O(1) to rounding level at the minimal
    recurrence order, so the transition is found by bisection.  Near
    the decoding radius the syndrome matrix can be degenerate enough
    that the misfit dips early, so a window of weights above the
    transition is offered too, always ending at t; phantom roots of
    overshot weights carry near-zero values and collapse in the gate.
    """
    n = s.size
    seqs = [s]
    if unit_circle:
        seqs.append(np.conj(s[::-1]))
    cache: dict[int, tuple[np.ndarray, float]] = {}

    def fits(w):
        if w not in cache:
            cache[w] = _recurrence_fit(s, seqs, w)
        return cache[w][1] <= RECURRENCE_TOL

    if t < 1 or not fits(t):
        return []
    lo, hi = 1, t
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    weights = list(range(lo, min(lo + 8, t) + 1))
    if weights[-1] != t:
        weights.append(t)
    out = []
    for w in weights:
        if fits(w):
            out.append((w, cache[w][0]))
    return out


def _smallest_at_nodes(sigma, nodes):
    """Support of the w inverse nodes where |sigma| is smallest, with
    w = deg sigma >= 1 (_recurrence_candidates offers no weight 0); None
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
    r = s = syndromes(frame, r)
    m, t = frame.m, frame.n // 2
    norm_r = float(np.linalg.norm(r))
    # A nan or infinite entry makes the norm non-finite, and so does a
    # finite signal whose norm overflows; neither can be decoded.
    if not math.isfinite(norm_r):
        raise ValueError("signal must be finite, with a finite norm")
    if norm_r == 0.0:
        return DecodeOutcome(SparseRep(m, (), np.zeros(0, dtype=complex)), 0.0, 0, STATUS_OK)

    strict = min(tol, STRICT_RESIDUAL)
    best = None

    def settle(cand):
        nonlocal best
        if cand is not None and (best is None or cand[1] < best[1]):
            best = cand
        return cand is not None and cand[1] <= strict

    # Fast path: Euclid key equation, threshold root location.
    euclid_degree = -1
    try:
        sigma, omega = solve_key_equation(s, t)
        euclid_degree = sigma.size - 1             # sigma comes back trimmed
        if euclid_degree <= t:
            locations = find_error_locations(sigma, frame)
            if settle(_candidate(frame, r, s, tuple(locations), norm_r)):
                rep, residual = best
                return DecodeOutcome(rep, residual, rep.weight, STATUS_OK)
    except VframeError:
        pass

    # Fallback: least-squares locator refit per candidate weight,
    # scanned in increasing order so the minimal weight wins.  Only a
    # strict (machine-level) fit stops the scan; near-fits of the
    # wrong weight stay mere candidates.
    unit_circle = bool(np.all(np.abs(np.abs(frame.nodes) - 1.0) <= 1e-9))
    for w, sigma in _recurrence_candidates(s, t, unit_circle):
        support = _smallest_at_nodes(sigma, frame.nodes)
        if support is None:
            continue
        if settle(_candidate(frame, r, s, support, norm_r)):
            break

    if best is not None:
        rep, residual = best
        status = STATUS_OK if residual <= tol else STATUS_RESIDUAL
        return DecodeOutcome(rep, residual, rep.weight, status)
    return DecodeOutcome(SparseRep(m, (), np.zeros(0, dtype=complex)), 1.0, euclid_degree,
                         STATUS_WEIGHT)


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

"""Sparsest-representation recovery over Vandermonde frames.

A signal r in C^N synthesized from a coefficient vector of weight
w <= floor(N/2) is recovered exactly: in that regime the minimal-weight
representation is unique, and the classical algebraic decoding
pipeline, run in complex floating point, finds it.  decode reads one
lazily generated stream of candidate supports, the Euclid roots first
and then the subspace candidates, lightest first, and judges each with
one gate:

    1. syndromes  -- the coordinates of r, read off verbatim;
    2. Euclid     -- extended Euclid division on (z^N, S1[z]) yields the
                     locator sigma; its roots among the inverse nodes,
                     read off one product with the frame's rows, are the
                     first candidate when they number its degree and that
                     is at most floor(N/2);
    3. subspace   -- one QR of the syndromes' Hankel rows and one SVD of
                     its R give the rank test of every weight
                     <= floor(N/2); for each passing weight w, lightest
                     first, the w nodes where the null vectors' polynomials
                     are smallest are the next candidate;
    4. values     -- least squares on a candidate's rows, then one
                     refinement step on its residual, both by numpy's
                     lstsq; near-zero phantom values drop their
                     locations, until none is left;
    5. gate       -- among candidates that re-synthesize r to machine
                     level (strict), the lightest wins; without one the
                     lowest relative residual wins.  It is "ok" within
                     the tolerance.

The subspace candidates exist for numerical stability.  The Euclid
recursion is exact-arithmetic math; in doubles its remainder sequence
degrades as the weight approaches floor(N/2) for N beyond ~16 (leading
remainder coefficients suffer heavy cancellation).  The subspace step
forms no polynomial coefficients: it scores the nodes with the null
space of the Hankel stack (MUSIC on the node grid), and it stacks the
conjugate-reversed syndromes when the nodes are unit-modulus, which
doubles the data and tames clustered supports.

"ok" promises a representation of weight <= floor(N/2) within the
tolerance, with no lighter strict candidate found; it does not promise
the generating one: near the decoding radius, and for clustered supports
inside it, another support can meet the tolerance too (README, "Decoding
accuracy").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LengthMismatch, NumericBreakdown, RootCountMismatch, VframeError
from .frames import VANDERMONDE, ZERO_REL_TOL, Frame, SparseRep, complex_to_pairs
from .poly import _max, poly_divmod, poly_trim

# Root acceptance factor: sigma(1/z_j), read off the frame's rows,
# counts as zero below ROOT_ACCEPT_TOL * (1 + max_k |sigma(1/z_k)|).
ROOT_ACCEPT_TOL = 1e-6

# Default relative residual accepted by decode().
RESIDUAL_TOL = 1e-6

# A candidate at or below this residual is strict: the lightest strict
# candidate wins, and one ends the candidate scan once no lighter weight
# is left; without one the scan looks on for a better fit.
STRICT_RESIDUAL = 1e-9

# A weight w enters the fallback scan when singular value w of the
# syndromes' Hankel stack is at or below this (relative to the largest
# syndrome, per sqrt-row).
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
    weight <= floor(N/2) was found), residual the relative synthesis
    error of rep (1.0 when none was found).  status "ok" guarantees a
    representation of weight <= floor(N/2) with residual <= tolerance,
    and that decode found no lighter candidate at the strict residual;
    it does not guarantee that rep is the representation r was
    synthesized from.
    """

    rep: SparseRep
    residual: float
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

    All-zero syndromes trim to the zero remainder and return 1, the
    locator of the zero representation.  Raises NumericBreakdown when no
    stable normalized solution exists (a division overflows, or the
    multiplier's constant term vanishes or is not finite), and
    ValueError on non-finite syndromes.
    """
    s = np.asarray(s, dtype=complex).ravel()
    n = s.size
    if n == 0:
        raise ValueError("need at least one syndrome")
    if not 0 <= t <= n:
        raise ValueError("t must lie in 0..N")

    r_prev = np.zeros(n + 1, dtype=complex)
    r_prev[n] = 1.0                                # z^N
    r_cur = poly_trim(s)
    v_prev = s[:0]                                 # multipliers of S1
    v_cur = np.ones(1, dtype=complex)
    # poly_divmod returns trimmed remainders, each shorter than its
    # divisor, so r_cur.size - 1 is the degree and the loop ends.  A
    # quotient that overflows leaves a non-finite remainder, which
    # poly_divmod refuses with ValueError; a multiplier that overflows
    # fails the constant-term check after the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        while r_cur.size > t:
            try:
                q, rem = poly_divmod(r_prev, r_cur)
            except ValueError:
                raise NumericBreakdown("Euclid division overflowed") from None
            # v_prev - q * v_cur, where q * v_cur is the longer of the two.
            v_next = -np.convolve(q, v_cur)
            v_next[: v_prev.size] += v_prev
            r_prev, v_prev = r_cur, v_cur
            r_cur, v_cur = rem, v_next
            # Joint rescale keeps the recursion well-scaled; each (r, v)
            # pair satisfies its own Bezout relation, so pairs may be
            # scaled independently of one another.  Both arrays are
            # fresh, so they are scaled in place.
            top = _max(np.abs(r_cur)) if r_cur.size else 0.0
            if top > 0.0:
                r_cur /= top
                v_cur /= top

    # Written as "not above" so that a nan multiplier breaks down too.
    if not abs(v_cur[0]) > 1e-12 * _max(np.abs(v_cur)):
        raise NumericBreakdown("locator constant term vanished")
    return poly_trim(v_cur / v_cur[0])


def find_error_locations(sigma, frame: Frame) -> list[int]:
    """1-based indices j for which 1/z_j is a root of sigma.

    sigma, trimmed, has degree d; it is a locator only for d <= floor(N/2),
    the decoding radius, and RootCountMismatch is raised past it.  The
    frame's rows evaluate it at every inverse node in one product:
    sigma(1/z_j) = z_j**-d * sum_k sigma_{d-k} z_j**k, and row j holds
    z_j**k for k < N.  Values below ROOT_ACCEPT_TOL * (1 + the largest
    magnitude) are accepted; the absolute floor keeps the test
    meaningful when every value is small.  The accepted count must equal
    d, otherwise the weight exceeded the decoding radius (or numerics
    failed) and RootCountMismatch is raised.
    """
    if frame.kind != VANDERMONDE:
        raise ValueError("root location requires a vandermonde frame")
    sigma = poly_trim(sigma)
    if sigma.size == 0 or abs(sigma[0] - 1.0) > 1e-6:
        raise ValueError("locator must be normalized with sigma(0) = 1")
    deg = sigma.size - 1
    if deg > frame.n // 2:
        raise RootCountMismatch(f"locator degree {deg} exceeds floor(N/2) = {frame.n // 2}")
    vals = np.abs(frame.matrix[:, : deg + 1] @ sigma[::-1]) / np.abs(frame.nodes) ** deg
    hits = np.nonzero(vals < ROOT_ACCEPT_TOL * (1.0 + _max(vals)))[0]
    if hits.size != deg:
        raise RootCountMismatch(
            f"locator degree {deg} but {hits.size} roots among inverse nodes"
        )
    return (hits + 1).tolist()


# -- decode internals ---------------------------------------------------------

def _values(frame, s, support):
    """Least-squares values on a support, refined by one step on their
    residual; returned with the support's frame rows.  Both solves are
    numpy's lstsq (LAPACK gelsd): singular values of the rows at or below
    eps times the largest count as zero, as in gelsy's default cutoff.
    Raises numpy.linalg.LinAlgError when the factorization fails."""
    rows = frame.matrix[np.asarray(support, dtype=int) - 1]
    eps = np.finfo(float).eps
    values = np.linalg.lstsq(rows.T, s, rcond=eps)[0]
    values += np.linalg.lstsq(rows.T, s - values @ rows, rcond=eps)[0]
    return values, rows


def _candidate(frame, s, support, norm_s):
    """(support, values, residual) for a candidate support.  A superset of
    the true support carries near-zero phantom values: locations whose
    values fall below the dense zero threshold are dropped and the rest
    valued afresh, until every value passes it.  Each round drops a
    location, so the rounds end."""
    values, rows = _values(frame, s, support)
    while support:
        mags = np.abs(values)
        keep = mags > ZERO_REL_TOL * _max(mags)
        if keep.all():
            break
        support = tuple(loc for loc, k in zip(support, keep) if k)
        values, rows = _values(frame, s, support)
    return support, values, _norm(s - values @ rows) / norm_s


def _subspace_supports(frame, s):
    """Candidate supports from the null space of the syndromes' Hankel
    stack, of every weight w <= t = floor(N/2) that passes the rank test,
    lightest first.

    Row i of a sequence is (s_i, ..., s_{i+t}); when the nodes are
    unit-modulus, the conjugate-reversed syndromes obey the same
    recurrence and their rows are stacked too.  For a weight-w
    representation the stack H has rank w, and every vector v of its null
    space, read as the polynomial sum_k v_k z**k, vanishes at the
    support's nodes.  One QR, H = QR, and one SVD of R give the spectrum:
    weight w passes when singular value w (0-based, 0 past the last) is
    at most RECURRENCE_TOL relative to the largest syndrome, per
    sqrt-row.  The right singular vectors v_w, ..., v_t then span the
    null space, and the weight-w candidate is the w nodes where
    sum_{k>=w} |v_k(z_j)|**2 is smallest: MUSIC on the node grid.  Since
    the singular values fall, the passing weights run from the lightest
    one up to t.
    """
    t = s.size // 2
    seq, starts = s, np.arange(s.size - t)
    if np.all(np.abs(np.abs(frame.nodes) - 1.0) <= 1e-9):   # unit-modulus nodes
        seq = np.concatenate((s, np.conj(s[::-1])))
        starts = np.concatenate((starts, starts + s.size))
    h = seq[starts[:, None] + np.arange(t + 1)]
    sing, vh = np.linalg.svd(np.linalg.qr(h, mode="r"))[1:]
    # Relative, per sqrt-row, as RECURRENCE_TOL is stated.
    cut = RECURRENCE_TOL * np.abs(s).max() * math.sqrt(h.shape[0])
    first = max(1, int(np.count_nonzero(sing > cut)))
    if first > t:
        return
    # tail[j, w - first] = sum_{k >= w} |v_k(z_j)|**2
    vals = frame.matrix[:, : t + 1] @ vh[first:].conj().T
    tail = np.cumsum((vals.real ** 2 + vals.imag ** 2)[:, ::-1], axis=1)[:, ::-1]
    for w in range(first, t + 1):
        idx = np.argpartition(tail[:, w - first], w - 1)[:w]
        yield tuple(sorted(int(i) + 1 for i in idx))


def decode(frame: Frame, r, tol: float = RESIDUAL_TOL) -> DecodeOutcome:
    """Recover the unique representation of weight <= floor(N/2), if any.

    Returns status "ok" with a representation of weight <= floor(N/2)
    that re-synthesizes r within tol in relative error, when decode found
    no lighter candidate at the strict residual; for clustered supports
    it need not be the one r was synthesized from (README, "Decoding
    accuracy").  Otherwise it returns "weight_exceeds_half_n" (no
    candidate support was found) or "residual_too_large" (the best
    candidate misses r by more than tol), each with the representation
    and its residual, as DecodeOutcome.  Failures are reported as data:
    on a signal of length N with a finite norm decode never raises, and a
    factorization that fails ends the scan with the candidates valued so
    far.  A signal of the wrong length (LengthMismatch) or with a
    non-finite entry or norm (ValueError) is refused, and so is a tol
    that is not finite with 0 < tol < 1 (DomainError).
    """
    _check_tol(tol)
    # The syndromes are r's coordinates, so they serve as the signal too.
    s = syndromes(frame, r)
    norm_s = _norm(s)
    # A nan or infinite entry makes the norm non-finite, and so does a
    # finite signal whose norm overflows; neither can be decoded.
    if not math.isfinite(norm_s):
        raise ValueError("signal must be finite, with a finite norm")
    if norm_s == 0.0:                              # the zero signal, exactly
        return DecodeOutcome(SparseRep(frame.m, (), s[:0]), 0.0, STATUS_OK)
    try:
        euclid = [tuple(find_error_locations(solve_key_equation(s, frame.n // 2), frame))]
    except VframeError:
        euclid = []
    # The gate: the Euclid roots, then the subspace candidates, lightest
    # first.  The lightest strict candidate wins: one ends the scan once no
    # lighter weight is left, and one of weight <= N/4 at once, so a light
    # Euclid answer never computes the spectrum.  Without a strict
    # candidate the lowest residual wins, the earlier on a tie.
    # A factorization that fails (LinAlgError, in a candidate's values or
    # in the spectrum) ends the scan with the candidates valued so far.
    strict = min(tol, STRICT_RESIDUAL)
    best = lightest = None
    try:
        for support in itertools.chain(euclid, _subspace_supports(frame, s)):
            if lightest is not None and len(support) >= len(lightest[0]):
                break
            cand = _candidate(frame, s, support, norm_s)
            if best is None or cand[2] < best[2]:
                best = cand
            if cand[2] <= strict:
                lightest = cand
                if len(cand[0]) <= frame.n // 4:
                    break
    except np.linalg.LinAlgError:
        pass
    if lightest is not None:
        best = lightest
    if best is None:
        return DecodeOutcome(SparseRep(frame.m, (), s[:0]), 1.0, STATUS_WEIGHT)
    support, values, residual = best
    status = STATUS_OK if residual <= tol else STATUS_RESIDUAL
    return DecodeOutcome(SparseRep(frame.m, support, values), residual, status)


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
    }

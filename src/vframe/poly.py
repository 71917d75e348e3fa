"""Trim and division of dense complex polynomials: the Euclid loop's arithmetic.

Coefficient arrays run low to high: ``p[k]`` multiplies ``z**k``.  The
zero polynomial is the empty array.  Degree decisions ignore trailing
coefficients below ``DEGREE_REL_TOL`` times the largest coefficient
magnitude, so floating-point residue does not inflate degrees.
"""

from __future__ import annotations

import numpy as np

from .errors import DivideByZeroPoly

DEGREE_REL_TOL = 1e-9

_COMPLEX = np.dtype(complex)
_max = np.maximum.reduce


def _as_poly(coeffs) -> np.ndarray:
    """Coerce to a 1-D complex coefficient array (no trimming)."""
    if type(coeffs) is np.ndarray and coeffs.dtype == _COMPLEX and coeffs.ndim == 1:
        return coeffs                              # hot path: already one
    p = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if p.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    return p


def poly_trim(p) -> np.ndarray:
    """Drop trailing coefficients below DEGREE_REL_TOL times the max magnitude.

    Raises ValueError on a nan or infinite coefficient.
    """
    p = _as_poly(p)
    if p.size == 0:
        return p
    mags = np.abs(p)
    top = _max(mags)
    if not top < np.inf:                           # nan propagates to the max
        raise ValueError("polynomial coefficients must be finite")
    if top == 0.0:
        return p[:0]
    floor = DEGREE_REL_TOL * top
    if mags[-1] > floor:
        return p
    keep = (mags > floor).nonzero()[0]
    return p[: keep[-1] + 1]


def poly_divmod(p, q):
    """Quotient and remainder of p by q with deg(rem) < deg(q).

    The divisor and the remainder are trimmed; the dividend is taken as
    given, so a caller passes it trimmed (trailing dust in it only adds
    near-zero leading quotient terms).  Raises DivideByZeroPoly when q
    trims to the zero polynomial.
    """
    p = _as_poly(p)
    q = poly_trim(q)
    if q.size == 0:
        raise DivideByZeroPoly("division by the zero polynomial")
    if p.size < q.size:
        return p[:0], poly_trim(p)
    dq = q.size - 1
    lead = q[-1]
    rem = p.copy()
    quot = np.empty(p.size - dq, dtype=complex)
    for k in range(p.size - q.size, -1, -1):
        c = rem[dq + k] / lead
        quot[k] = c
        rem[k : dq + k + 1] -= c * q
    # positions dq and above are eliminated exactly; drop their dust
    return quot, poly_trim(rem[:dq])

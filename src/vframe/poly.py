"""Dense polynomial arithmetic over complex double coefficients.

Coefficient arrays run low to high: ``p[k]`` multiplies ``z**k``.  The
zero polynomial is the empty array and has degree ``-inf``.  Degree
decisions ignore trailing coefficients below ``DEGREE_REL_TOL`` times
the largest coefficient magnitude, so floating-point residue does not
inflate degrees.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivideByZeroPoly

DEGREE_REL_TOL = 1e-9

NEG_INF = -math.inf

_COMPLEX = np.dtype(complex)
_max = np.maximum.reduce


def as_poly(coeffs) -> np.ndarray:
    """Coerce to a 1-D complex coefficient array (no trimming)."""
    if type(coeffs) is np.ndarray and coeffs.dtype == _COMPLEX and coeffs.ndim == 1:
        return coeffs                              # hot path: already one
    p = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if p.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    return p


def poly_trim(p) -> np.ndarray:
    """Drop trailing coefficients below DEGREE_REL_TOL times the max magnitude."""
    p = as_poly(p)
    if p.size == 0:
        return p
    mags = np.abs(p)
    top = _max(mags)
    if top == 0.0:
        return p[:0]
    floor = DEGREE_REL_TOL * top
    if mags[-1] > floor:
        return p
    keep = (mags > floor).nonzero()[0]
    if keep.size == 0:
        return p[:0]
    return p[: keep[-1] + 1]


def poly_degree(p):
    """Degree after trimming; -inf for the zero polynomial."""
    t = poly_trim(p)
    return NEG_INF if t.size == 0 else t.size - 1


def poly_eval(p, z):
    """Evaluate by Horner's scheme; z may be a scalar or an array."""
    p = as_poly(p)
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in p[::-1]:
        out = out * z + c
    return complex(out) if out.ndim == 0 else out


def poly_divmod(p, q):
    """Quotient and remainder of p by q with deg(rem) < deg(q).

    Raises DivideByZeroPoly when q trims to the zero polynomial.
    """
    p = poly_trim(p)
    q = poly_trim(q)
    if q.size == 0:
        raise DivideByZeroPoly("division by the zero polynomial")
    if p.size < q.size:
        return p[:0], p
    dq = q.size - 1
    lead = q[-1]
    rem = p.copy()
    quot = np.zeros(p.size - dq, dtype=complex)
    for k in range(p.size - q.size, -1, -1):
        c = rem[dq + k] / lead
        quot[k] = c
        rem[k : dq + k + 1] -= c * q
    # positions dq and above are eliminated exactly; drop their dust
    return quot, poly_trim(rem[:dq])

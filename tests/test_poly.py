import numpy as np
import pytest

from vframe import poly
from vframe.errors import DivideByZeroPoly


def test_divmod_basic():
    # z^3 / z = z^2 remainder 0
    q, r = poly.poly_divmod([0, 0, 0, 1], [0, 1])
    assert np.allclose(q, [0, 0, 1])
    assert r.size == 0


def test_trim_drops_trailing_dust_only():
    p = np.array([1e-15, 1.0, 1e-12], dtype=complex)
    t = poly.poly_trim(p)
    # interior/low-order dust is kept, trailing dust removed
    assert t.size == 2
    assert t[0] == 1e-15


def test_trim_refuses_two_dimensional_coefficients():
    with pytest.raises(ValueError, match="one-dimensional"):
        poly.poly_trim(np.ones((2, 2)))


def test_divide_by_zero_poly():
    with pytest.raises(DivideByZeroPoly):
        poly.poly_divmod([1, 2, 3], [0.0, 0.0])


def test_divmod_reconstruction_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        da = int(rng.integers(0, 12))
        db = int(rng.integers(0, 8))
        a = rng.standard_normal(da + 1) + 1j * rng.standard_normal(da + 1)
        b = rng.standard_normal(db + 1) + 1j * rng.standard_normal(db + 1)
        q, r = poly.poly_divmod(a, b)
        back = np.convolve(q, b) if q.size else q
        pad = np.zeros(max(back.size, r.size, a.size), dtype=complex)
        pad[: back.size] = back
        pad[: r.size] += r
        pad[: a.size] -= a
        assert np.abs(pad).max() <= 1e-10 * (1 + np.abs(a).max())
        assert r.size < poly.poly_trim(b).size


def _random_poly(rng, deg):
    return rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)


def test_divmod_dividend_trailing_dust_gives_the_same_trimmed_remainder():
    # The dividend is taken as given: exact trailing zeros only add zero
    # leading quotient terms, and dust below the trim floor adds
    # near-zero ones, so the trimmed remainder stays the same.
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = _random_poly(rng, int(rng.integers(3, 12)))
        b = _random_poly(rng, int(rng.integers(1, 4)))
        b[-1] = 1.0                                # dust / lead stays dust
        q, r = poly.poly_divmod(a, b)
        q0, r0 = poly.poly_divmod(np.concatenate((a, np.zeros(3))), b)
        assert np.array_equal(r0, r) and np.array_equal(q0[: q.size], q)
        assert not q0[q.size:].any()
        dust = 1e-13 * np.abs(a).max() * np.array([1.0, -1j, 0.5])
        _, rd = poly.poly_divmod(np.concatenate((a, dust)), b)
        assert rd.size == r.size == b.size - 1
        assert np.abs(rd - r).max() <= 1e-10 * np.abs(r).max()


def test_divmod_short_dividend_returns_a_trimmed_remainder():
    # deg p < deg q: the quotient is zero and the remainder is p, trimmed.
    q, r = poly.poly_divmod([1.0, 2.0, 1e-14, 0.0], [1.0, 0.0, 0.0, 0.0, 3.0])
    assert q.size == 0
    assert np.array_equal(r, np.array([1.0, 2.0], dtype=complex))
    q, r = poly.poly_divmod([0.0, 0.0], [1.0, 1.0, 1.0])
    assert q.size == 0 and r.size == 0


@pytest.mark.parametrize("divisor", [[], [0.0], [0.0, 0.0, 0.0]])
def test_divmod_by_an_empty_or_zero_divisor_raises(divisor):
    with pytest.raises(DivideByZeroPoly):
        poly.poly_divmod([1.0, 2.0, 3.0], divisor)

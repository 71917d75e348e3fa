import math

import numpy as np
import pytest

from vframe import poly
from vframe.errors import DivideByZeroPoly


def test_mul_basic():
    # (1 + z)(1 - z) = 1 - z^2
    out = poly.poly_mul([1, 1], [1, -1])
    assert np.allclose(out, [1, 0, -1])


def test_divmod_basic():
    # z^3 / z = z^2 remainder 0
    q, r = poly.poly_divmod([0, 0, 0, 1], [0, 1])
    assert np.allclose(q, [0, 0, 1])
    assert r.size == 0


def test_zero_poly_degree_sentinel():
    assert poly.poly_degree([]) == -math.inf
    assert poly.poly_degree([0.0, 0.0]) == -math.inf
    assert poly.poly_degree([0.0, 2.0]) == 1


def test_trim_drops_trailing_dust_only():
    p = np.array([1e-15, 1.0, 1e-12], dtype=complex)
    t = poly.poly_trim(p)
    # interior/low-order dust is kept, trailing dust removed
    assert t.size == 2
    assert t[0] == 1e-15


def test_divide_by_zero_poly():
    with pytest.raises(DivideByZeroPoly):
        poly.poly_divmod([1, 2, 3], [0.0, 0.0])


def test_eval_matches_numpy_polyval():
    rng = np.random.default_rng(5)
    for _ in range(50):
        deg = int(rng.integers(0, 9))
        p = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        z = complex(rng.standard_normal(), rng.standard_normal())
        # independent oracle: numpy's high-to-low evaluation
        expect = np.polyval(p[::-1], z)
        assert abs(poly.poly_eval(p, z) - expect) <= 1e-12 * (1 + abs(expect))


def test_eval_vectorized():
    zs = np.array([1.0, 1j, -1.0])
    out = poly.poly_eval([1, 0, 1], zs)  # 1 + z^2
    assert np.allclose(out, [2.0, 0.0, 2.0])


def test_divmod_reconstruction_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        da = int(rng.integers(0, 12))
        db = int(rng.integers(0, 8))
        a = rng.standard_normal(da + 1) + 1j * rng.standard_normal(da + 1)
        b = rng.standard_normal(db + 1) + 1j * rng.standard_normal(db + 1)
        q, r = poly.poly_divmod(a, b)
        back = poly.poly_mul(q, b)
        pad = np.zeros(max(back.size, r.size, a.size), dtype=complex)
        pad[: back.size] = back
        pad[: r.size] += r
        pad[: a.size] -= a
        assert np.abs(pad).max() <= 1e-10 * (1 + np.abs(a).max())
        assert poly.poly_degree(r) < poly.poly_degree(b) or r.size == 0


def test_sub_pads_the_shorter_operand():
    a, b = [1, 2], [0, 1, 3]
    assert np.allclose(poly.poly_sub(b, a), [-1, -1, 3])
    assert np.allclose(poly.poly_sub(a, b), [1, 1, -3])
    assert np.allclose(poly.poly_sub([1j, 2], [1, 2]), [-1 + 1j, 0])
    assert np.allclose(poly.poly_sub([], a), [-1, -2])
    assert np.allclose(poly.poly_sub(a, []), a)
    assert poly.poly_sub([], []).size == 0
    # the operands are left untouched
    p = np.array([1, 2], dtype=complex)
    poly.poly_sub(p, [5, 5, 5])
    assert np.array_equal(p, [1, 2])

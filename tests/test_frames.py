import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import vframe as vf
from vframe.errors import (
    BudgetExceeded,
    DegenerateSupport,
    DuplicateNode,
    LengthMismatch,
    TooFewNodes,
    ZeroNode,
)


def roots_frame(n, m):
    return vf.make_vandermonde_frame(vf.default_nodes(m), n)


# -- construction -------------------------------------------------------------

def test_vandermonde_rows_quartic_nodes():
    frame = vf.make_vandermonde_frame([1, 1j, -1, -1j], 2)
    assert np.allclose(frame.matrix, [[1, 1], [1, 1j], [1, -1], [1, -1j]])
    assert frame.kind == "vandermonde"
    assert (frame.m, frame.n) == (4, 2)


def test_duplicate_node_rejected():
    with pytest.raises(DuplicateNode):
        vf.make_vandermonde_frame([1.0, 1.0], 1)
    # The closest pair, first in row-major order, is named whichever chunk
    # of rows holds it: row 4000 is in the last of 16 chunks, and of two
    # exact duplicates (6, 3001) comes first.
    nodes = vf.default_nodes(4096)
    nodes[4090] = nodes[4000]
    with pytest.raises(DuplicateNode, match="nodes 4001 and 4091 coincide"):
        vf.make_vandermonde_frame(nodes, 4)
    nodes[3000] = nodes[5]
    nodes[200] = nodes[100] * (1 + 1e-13)
    with pytest.raises(DuplicateNode, match="nodes 6 and 3001 coincide"):
        vf.make_vandermonde_frame(nodes, 4)


def test_distinct_node_check_takes_no_m_by_m_array():
    # One M x M complex difference array would be 268 MB at M = 4096.
    tracemalloc.start()
    try:
        vf.make_vandermonde_frame(vf.default_nodes(4096), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 10**6


def test_zero_node_rejected():
    with pytest.raises(ZeroNode):
        vf.make_vandermonde_frame([0.0, 1.0], 1)


def test_too_few_nodes_rejected():
    with pytest.raises(TooFewNodes):
        vf.make_vandermonde_frame([1.0, -1.0], 3)


def test_default_nodes_small_cases():
    assert np.allclose(vf.default_nodes(1), [1.0])
    assert np.allclose(vf.default_nodes(4), [1, 1j, -1, -1j], atol=1e-14)
    s3 = math.sqrt(3) / 2
    assert np.allclose(vf.default_nodes(3), [1, -0.5 + 1j * s3, -0.5 - 1j * s3], atol=1e-14)


def test_eighth_roots_every_square_submatrix_nonsingular():
    # exhaustive determinant oracle over all C(8,4) = 70 subsets
    frame = roots_frame(4, 8)
    count = 0
    for rows in itertools.combinations(range(8), 4):
        det = np.linalg.det(frame.matrix[list(rows)])
        assert abs(det) > 1e-8
        count += 1
    assert count == 70
    ok, witness = vf.check_condition_I(frame)
    assert ok and witness is None


def test_matrix_is_readonly():
    frame = roots_frame(2, 4)
    with pytest.raises(ValueError):
        frame.matrix[0, 0] = 5.0


# -- sparse representations ---------------------------------------------------

def test_sparse_rep_validation():
    with pytest.raises(ValueError):
        vf.SparseRep(4, (2, 2), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        vf.SparseRep(4, (0,), np.array([1.0]))
    with pytest.raises(ValueError):
        vf.SparseRep(4, (5,), np.array([1.0]))
    rep = vf.SparseRep(4, (1, 3), np.array([1.0, 2.0]))
    assert rep.weight == 2 and rep.support == (1, 3)
    assert np.array_equal(rep.values, [1.0, 2.0])


@pytest.mark.parametrize("value", [3, 2.5, 1 - 2j, np.complex128(1j)])
def test_sparse_rep_takes_a_scalar_value_for_one_atom(value):
    rep = vf.SparseRep(4, (2,), value)
    assert rep.support == (2,) and rep.values.shape == (1,) and rep.values[0] == value


# -- synthesis ----------------------------------------------------------------

def test_synthesize_zero_rep():
    frame = roots_frame(2, 4)
    assert np.allclose(vf.synthesize(frame, np.zeros(4)), 0.0)


def test_synthesize_single_atom():
    frame = roots_frame(2, 4)
    rep = vf.SparseRep(4, (3,), np.array([2.0 + 0j]))
    assert np.allclose(vf.synthesize(frame, rep), [2.0, -2.0])


def test_synthesize_unit_coefficient_returns_row():
    frame = roots_frame(3, 6)
    for j in range(6):
        e = np.zeros(6, dtype=complex)
        e[j] = 1.0
        assert np.allclose(vf.synthesize(frame, e), frame.matrix[j])


def test_synthesize_length_mismatch():
    frame = roots_frame(2, 4)
    with pytest.raises(LengthMismatch):
        vf.synthesize(frame, np.zeros(3))
    with pytest.raises(LengthMismatch):
        vf.synthesize(frame, vf.SparseRep(5, (1,), np.array([1.0])))


def test_synthesize_linearity():
    frame = roots_frame(4, 9)
    rng = np.random.default_rng(21)
    for _ in range(25):
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        d = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        lhs = vf.synthesize(frame, a * c + b * d)
        rhs = a * vf.synthesize(frame, c) + b * vf.synthesize(frame, d)
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())


# -- condition I --------------------------------------------------------------

def test_condition_I_repeated_row():
    frame = vf.make_general_frame([[1, 0], [1, 0], [0, 1]])
    ok, witness = vf.check_condition_I(frame)
    assert not ok
    assert witness == (1, 2)


def test_condition_I_proportional_rows_witness():
    frame = vf.make_general_frame([[1, 0], [0, 1], [1, 1], [2, 2]])
    ok, witness = vf.check_condition_I(frame)
    assert not ok
    assert witness == (3, 4)


@pytest.mark.parametrize("n,m", [(1, 5), (2, 8), (3, 9), (4, 12), (6, 12)])
def test_condition_I_vandermonde_always_holds(n, m):
    ok, witness = vf.check_condition_I(roots_frame(n, m))
    assert ok and witness is None


def test_condition_I_budget():
    with pytest.raises(BudgetExceeded):
        vf.check_condition_I(roots_frame(4, 8), budget=10)


# -- null vectors -------------------------------------------------------------

def test_null_vector_two_node_line():
    frame = vf.make_vandermonde_frame([1.0, -1.0], 1)
    v = vf.null_vector_on_support(frame, [1, 2])
    assert v.support == (1, 2)
    assert np.allclose(v.values, [1.0, -1.0])


def test_null_vector_three_nodes():
    frame = vf.make_vandermonde_frame([1.0, 1j, -1.0], 2)
    v = vf.null_vector_on_support(frame, [1, 2, 3])
    # hand solve: v3 = 1 gives v = (i, -(1+i), 1); largest entry is v2
    expect = np.array([1j, -(1 + 1j), 1.0])
    expect = expect / expect[1]
    assert v.weight == 3
    assert np.allclose(v.values, expect, atol=1e-10)
    assert np.abs(vf.synthesize(frame, v)).max() <= 1e-10


def test_null_vector_normalization_and_annihilation():
    frame = roots_frame(5, 11)
    rng = np.random.default_rng(3)
    for _ in range(10):
        rows = tuple(sorted(rng.choice(11, size=6, replace=False) + 1))
        v = vf.null_vector_on_support(frame, rows)
        assert v.weight == 6
        assert np.isclose(np.abs(v.values).max(), 1.0)
        assert np.abs(vf.synthesize(frame, v)).max() <= 1e-10


def test_null_vector_degenerate_support():
    frame = vf.make_general_frame([[1, 0], [2, 0], [0, 1], [1, 1]])
    with pytest.raises(DegenerateSupport):
        vf.null_vector_on_support(frame, [1, 2, 3])


@pytest.mark.parametrize("n,m", [(2, 5), (3, 7), (4, 8), (5, 10)])
def test_minimum_annihilator_weight(n, m):
    # brute force: no k <= N rows of a Vandermonde frame are dependent
    frame = roots_frame(n, m)
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(m), k):
            s = np.linalg.svd(frame.matrix[list(rows)], compute_uv=False)
            assert s[-1] > 1e-10 * s[0]
    for rows in itertools.combinations(range(1, m + 1), n + 1):
        assert vf.null_vector_on_support(frame, rows).weight == n + 1


# -- input checks -------------------------------------------------------------

LINE_FRAME = [[1, 0], [2, 0], [3, 0], [0, 1]]


@pytest.mark.parametrize("call,error", [
    (lambda: vf.Frame(np.ones(3)), ValueError),
    (lambda: vf.Frame(np.ones((2, 3))), TooFewNodes),
    (lambda: vf.Frame([[1, np.nan], [1, 2]]), ValueError),
    (lambda: vf.Frame([[1, 0], [0, 0], [0, 1]]), ValueError),
    (lambda: vf.Frame(np.ones((3, 1)), kind="vandermonde"), ValueError),
    (lambda: vf.Frame(np.ones((3, 1)), kind="vandermonde", nodes=[1, 2]), ValueError),
    (lambda: vf.Frame([[1, 1], [2, 2], [3, 3]]), ValueError),
    (lambda: vf.Frame(np.eye(2), kind="circulant"), ValueError),
    (lambda: vf.make_vandermonde_frame([1, 2], 0), ValueError),
    (lambda: vf.make_vandermonde_frame([1, np.inf], 1), ValueError),
    (lambda: vf.default_nodes(0), ValueError),
    (lambda: vf.SparseRep(4, (1, 2), np.array([1.0])), ValueError),
    (lambda: vf.SparseRep(4, (1,), np.array([np.nan])), ValueError),
    (lambda: vf.random_sparse_rep(4, 5, np.random.default_rng(0)), ValueError),
    (lambda: vf.random_sparse_rep(4, -1, np.random.default_rng(0)), ValueError),
    (lambda: vf.null_vector_on_support(vf.make_general_frame(LINE_FRAME), [1, 2]), ValueError),
    (lambda: vf.null_vector_on_support(vf.make_general_frame(LINE_FRAME), [1, 2, 5]), ValueError),
    (lambda: vf.null_vector_on_support(vf.make_general_frame(LINE_FRAME), [1, 2, 3]),
     DegenerateSupport),
    (lambda: vf.frame_from_json({"kind": "circulant"}), ValueError),
], ids=["1-d-matrix", "m-below-n", "non-finite", "zero-row", "vandermonde-no-nodes",
        "vandermonde-node-count", "non-spanning", "unknown-kind", "vandermonde-n-0",
        "non-finite-node", "default-nodes-0", "rep-length", "rep-non-finite",
        "weight-above-m", "weight-below-0", "null-row-count", "null-row-range",
        "null-rows-on-a-line", "json-unknown-kind"])
def test_input_checks_raise(call, error):
    with pytest.raises(error):
        call()


# -- serialization ------------------------------------------------------------

def test_frame_json_roundtrip_vandermonde():
    frame = roots_frame(3, 7)
    obj = vf.frame_to_json(frame)
    assert obj["kind"] == "vandermonde"
    assert obj["n"] == 3 and obj["m"] == 7
    back = vf.frame_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back.matrix, frame.matrix)
    assert np.array_equal(back.nodes, frame.nodes)


def test_frame_json_roundtrip_general():
    frame = vf.make_gaussian_frame(6, 3, seed=77)
    obj = vf.frame_to_json(frame)
    assert obj["kind"] == "general"
    back = vf.frame_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back.matrix, frame.matrix)


def test_save_load_frame(tmp_path):
    frame = roots_frame(2, 5)
    path = tmp_path / "frame.json"
    vf.save_frame(frame, path)
    back = vf.load_frame(path)
    assert np.array_equal(back.matrix, frame.matrix)


def test_frame_id_stable():
    a = roots_frame(3, 6)
    b = roots_frame(3, 6)
    assert vf.frame_id(a) == vf.frame_id(b)
    assert vf.frame_id(a) != vf.frame_id(roots_frame(3, 7))


def test_frame_id_pinned():
    vand = roots_frame(8, 32)
    general = vf.make_general_frame([[1, 0, 0], [1, 0, 1], [0, 1, -1], [0, 1, 0]])
    assert vf.frame_id(vand) == "vandermonde:m=32:n=8:ed880cf9"
    assert vf.frame_id(general) == "general:m=4:n=3:04fc2090"


def test_gaussian_frame_seeded():
    a = vf.make_gaussian_frame(8, 4, seed=5)
    b = vf.make_gaussian_frame(8, 4, seed=5)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, vf.make_gaussian_frame(8, 4, seed=6).matrix)

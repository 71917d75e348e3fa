import numpy as np
import pytest

import vframe as vf
from vframe.decoder import (
    STATUS_OK,
    STATUS_RESIDUAL,
    STATUS_WEIGHT,
    find_error_locations,
    forney_values,
    outcome_to_json,
    solve_key_equation,
    syndromes,
)
from vframe.errors import LengthMismatch, RootCountMismatch


def roots_frame(n, m):
    return vf.make_vandermonde_frame(vf.default_nodes(m), n)


def locator_from_values(nodes_at, values):
    """Oracle: sigma = prod (1 - X_i z) and
    omega = sum_i Y_i prod_{j != i} (1 - X_j z), straight from the definitions."""
    sigma = np.ones(1, dtype=complex)
    for x in nodes_at:
        sigma = np.convolve(sigma, [1.0, -x])
    omega = np.zeros(max(len(nodes_at), 1), dtype=complex)
    for i, y in enumerate(values):
        term = np.array([y], dtype=complex)
        for j, xj in enumerate(nodes_at):
            if j != i:
                term = np.convolve(term, [1.0, -xj])
        omega[: term.size] += term
    return sigma, omega[: max(len(nodes_at), 1)]


# -- syndromes ----------------------------------------------------------------

def test_syndromes_zero():
    frame = roots_frame(3, 6)
    assert np.allclose(syndromes(frame, np.zeros(3)), 0.0)


def test_syndromes_are_coordinates():
    frame = roots_frame(2, 4)
    assert np.allclose(syndromes(frame, [2.0, -2.0]), [2.0, -2.0])


def test_syndromes_match_power_sums():
    # e with value 1 at row 1: syndromes are (sum e_j z_j^0, sum e_j z_j^1)
    frame = roots_frame(2, 4)
    rep = vf.SparseRep(4, (1,), np.array([1.0 + 0j]))
    s = syndromes(frame, vf.synthesize(frame, rep))
    assert np.allclose(s, [1.0, 1.0])


def test_syndromes_length_check():
    frame = roots_frame(3, 6)
    with pytest.raises(LengthMismatch):
        syndromes(frame, np.zeros(4))


# -- key equation ---------------------------------------------------------------

def test_key_equation_zero_syndromes():
    sigma, omega = solve_key_equation(np.zeros(4, dtype=complex), 2)
    assert np.allclose(sigma, [1.0])
    assert omega.size == 0


def test_key_equation_single_error_at_minus_one():
    # error value 2 at node -1: sigma = 1 + z, omega = 2
    sigma, omega = solve_key_equation(np.array([2.0, -2.0]), 1)
    assert np.allclose(sigma, [1.0, 1.0], atol=1e-12)
    assert np.allclose(omega, [2.0], atol=1e-12)


def test_key_equation_single_error_at_one():
    sigma, omega = solve_key_equation(np.array([1.0, 1.0]), 1)
    assert np.allclose(sigma, [1.0, -1.0], atol=1e-12)
    assert np.allclose(omega, [1.0], atol=1e-12)


def test_key_equation_residual_small_on_decodable():
    rng = np.random.default_rng(8)
    frame = roots_frame(8, 24)
    for _ in range(40):
        rep = vf.random_sparse_rep(24, int(rng.integers(0, 5)), rng)
        s = syndromes(frame, vf.synthesize(frame, rep))
        sigma, omega = solve_key_equation(s, 4)
        # S1 * sigma - omega (mod z^N), coefficient by coefficient
        resid = np.convolve(s, sigma)[: s.size]
        resid[: omega.size] -= omega
        assert np.abs(resid).max() <= 1e-7 * (1 + np.abs(s).max())


def test_key_equation_degree_contract():
    rng = np.random.default_rng(12)
    frame = roots_frame(10, 20)
    for w in range(0, 6):
        rep = vf.random_sparse_rep(20, w, rng)
        s = syndromes(frame, vf.synthesize(frame, rep))
        sigma, omega = solve_key_equation(s, 5)
        assert sigma.size - 1 == w
        assert omega.size <= max(w, 1)


# -- root location --------------------------------------------------------------

def test_locations_constant_sigma():
    frame = roots_frame(2, 4)
    assert find_error_locations(np.array([1.0 + 0j]), frame) == []


def test_locations_single_root():
    frame = roots_frame(2, 4)
    assert find_error_locations(np.array([1.0, 1.0]), frame) == [3]


def test_locations_two_roots():
    frame = roots_frame(2, 4)
    sigma = np.convolve([1.0, -1.0], [1.0, -1j])  # roots 1 and -i = 1/i
    assert find_error_locations(sigma, frame) == [1, 2]


def test_locations_count_mismatch():
    frame = roots_frame(2, 4)
    with pytest.raises(RootCountMismatch):
        find_error_locations(np.array([1.0, -0.5]), frame)  # root at 2: off-grid


def test_locations_requires_normalization():
    frame = roots_frame(2, 4)
    with pytest.raises(ValueError):
        find_error_locations(np.array([2.0, 2.0]), frame)


# -- Forney --------------------------------------------------------------------

def test_forney_single_location_constant_omega():
    frame = roots_frame(2, 4)
    vals = forney_values(np.array([2.0 + 0j]), [3], frame)
    assert np.allclose(vals, [2.0])


def test_forney_two_errors_from_definitions():
    # nodes {1, i}, e1 = 1 at z=1, e2 = i at z=i; oracle builds sigma
    # and omega from their product/sum definitions
    frame = vf.make_vandermonde_frame([1.0, 1j], 2)
    x = [1.0 + 0j, 1j]
    y = [1.0 + 0j, 1j]
    _, omega = locator_from_values(x, y)
    vals = forney_values(omega, [1, 2], frame)
    assert np.allclose(vals, y, atol=1e-12)


# -- decode ---------------------------------------------------------------------

def test_decode_zero_signal():
    frame = roots_frame(2, 4)
    out = vf.decode(frame, np.zeros(2))
    assert out.status == STATUS_OK
    assert out.rep.weight == 0
    assert out.residual == 0.0
    assert out.locator_degree == 0


def test_decode_single_atom_worked_example():
    frame = roots_frame(2, 4)
    out = vf.decode(frame, [2.0, -2.0])
    assert out.status == STATUS_OK
    assert out.rep.support == (3,)
    assert np.allclose(out.rep.values, [2.0], atol=1e-10)
    assert out.locator_degree == 1


def test_decode_matches_brute_force_least_squares():
    # oracle: smallest projection residual over every weight-1 support
    frame = roots_frame(2, 4)
    rng = np.random.default_rng(2)
    for _ in range(20):
        rep = vf.random_sparse_rep(4, 1, rng)
        r = vf.synthesize(frame, rep)

        def resid(j):
            phi = frame.matrix[j]
            coeff = (r @ phi.conj()) / (phi @ phi.conj())
            return float(np.linalg.norm(r - coeff * phi))

        best = min(range(4), key=resid)
        out = vf.decode(frame, r)
        assert out.status == STATUS_OK
        assert out.rep.support == (best + 1,) == rep.support


def test_decode_rejects_weight_above_half_n():
    frame = roots_frame(2, 4)
    r = frame.matrix[0] + frame.matrix[1]
    out = vf.decode(frame, r)
    assert out.status != STATUS_OK


@pytest.mark.parametrize(
    "n,m", [(4, 8), (5, 15), (8, 32), (9, 18), (16, 48), (32, 128)]
)
def test_decode_roundtrip_exact(n, m):
    frame = roots_frame(n, m)
    rng = np.random.default_rng(1000 + n)
    for trial in range(30):
        w = int(rng.integers(0, n // 2 + 1))
        rep = vf.random_sparse_rep(m, w, rng)
        r = vf.synthesize(frame, rep)
        out = vf.decode(frame, r)
        assert out.status == STATUS_OK
        assert out.rep.support == rep.support
        assert out.locator_degree == out.rep.weight
        if w:
            err = np.linalg.norm(out.rep.values - rep.values) / np.linalg.norm(rep.values)
            assert err <= 1e-6


def test_decode_never_wrong_mixed_weights():
    # weights straddle the decodable radius; ok statuses must be real
    frame = roots_frame(8, 32)
    count_ok = 0
    for trial in range(10_000):
        rng = vf.sample_rng(909, trial)
        w = int(rng.integers(0, 9))
        rep = vf.random_sparse_rep(32, w, rng)
        r = vf.synthesize(frame, rep)
        out = vf.decode(frame, r)
        if out.status == STATUS_OK:
            count_ok += 1
            assert out.residual <= 1e-6
            assert out.locator_degree == out.rep.weight
            if w <= 4:
                assert out.rep.support == rep.support
    assert count_ok >= 10_000 // 2  # all decodable trials decoded


def _full_weight_case(trial):
    """Trial `trial` of the N=64, M=256 full-weight acceptance stream."""
    frame = roots_frame(64, 256)
    rng = vf.sample_rng(20260809, trial)
    rep = vf.random_sparse_rep(256, 32, rng, (0.5, 2.0))
    return frame, rep, vf.synthesize(frame, rep)


def test_decode_fallback_names_support_of_off_node_locator():
    # Euclid fails here and the fitted weight-32 locator's roots sit off
    # the nodes, close enough that two map to one nearest node; the
    # smallest locator values at the nodes still name the true support.
    frame, rep, r = _full_weight_case(221)
    out = vf.decode(frame, r)
    assert out.status == STATUS_OK
    assert out.rep.support == rep.support
    assert np.linalg.norm(out.rep.values - rep.values) <= 1e-9 * np.linalg.norm(rep.values)


def test_decode_rejects_near_fit_on_wrong_support():
    # A candidate that swaps two of the 32 nodes re-synthesizes to about
    # 2e-5; with tol=1e-4 it must not come back "ok".
    frame, rep, r = _full_weight_case(52)
    out = vf.decode(frame, r, tol=1e-4)
    assert out.status != STATUS_OK or out.rep.support == rep.support


@pytest.mark.parametrize("n", [68, 80])
def test_decode_clustered_full_weight_reports_a_status(n):
    # The product locator of the adjacent nodes 1..N/2 has a unit leading
    # coefficient below 1e-9 of its largest one, so a degree re-derived
    # by trimming comes out short; decode must report, never raise.
    m, w = 4 * n, n // 2
    frame = roots_frame(n, m)
    rep = vf.SparseRep(m, tuple(range(1, w + 1)), np.ones(w, dtype=complex))
    out = vf.decode(frame, vf.synthesize(frame, rep))
    assert out.status in (STATUS_OK, STATUS_RESIDUAL, STATUS_WEIGHT)


def test_uniqueness_boundary_two_representations():
    # split a weight-(N+1) annihilator into two reps of weight (N+1)/2
    n, m = 5, 10
    frame = roots_frame(n, m)
    v = vf.null_vector_on_support(frame, range(1, n + 2))
    half = (n + 1) // 2
    c = vf.SparseRep(m, v.support[:half], v.values[:half])
    d_dense = c.to_dense() - v.to_dense()
    d = vf.SparseRep.from_dense(d_dense)
    assert c.weight == half and d.weight == half
    assert c.support != d.support
    diff = vf.synthesize(frame, c) - vf.synthesize(frame, d)
    assert np.abs(diff).max() <= 1e-9


def test_outcome_json_schema():
    frame = roots_frame(2, 4)
    out = vf.decode(frame, [2.0, -2.0])
    obj = outcome_to_json(out)
    assert obj["status"] == "ok"
    assert obj["support"] == [3]
    assert obj["values"][0][0] == pytest.approx(2.0)
    assert obj["locator_degree"] == 1
    assert isinstance(obj["residual"], float)


def test_decode_requires_vandermonde():
    frame = vf.make_gaussian_frame(6, 3, seed=1)
    with pytest.raises(ValueError):
        vf.decode(frame, np.zeros(3))
    with pytest.raises(LengthMismatch):
        vf.decode(roots_frame(3, 6), np.zeros(4))


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0, -np.inf), 1e200])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_decode_rejects_non_finite_signals(bad):
    # 1e200 is finite, but its squared norm overflows (numpy warns first)
    frame = roots_frame(4, 8)
    with pytest.raises(ValueError, match="finite"):
        vf.decode(frame, [bad, 1, 0, 0])

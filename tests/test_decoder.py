import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import vframe as vf
from vframe import decoder, poly
from vframe.decoder import (
    RESIDUAL_TOL,
    STATUS_OK,
    STATUS_RESIDUAL,
    STATUS_WEIGHT,
    STRICT_RESIDUAL,
    _candidate,
    _values,
    find_error_locations,
    outcome_to_json,
    solve_key_equation,
    syndromes,
)
from vframe.errors import DomainError, LengthMismatch, NumericBreakdown, RootCountMismatch


def roots_frame(n, m):
    return vf.make_vandermonde_frame(vf.default_nodes(m), n)


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
    sigma = solve_key_equation(np.zeros(4, dtype=complex), 2)
    assert np.allclose(sigma, [1.0])


def test_key_equation_single_error_at_minus_one():
    # error value 2 at node -1: sigma = 1 + z
    sigma = solve_key_equation(np.array([2.0, -2.0]), 1)
    assert np.allclose(sigma, [1.0, 1.0], atol=1e-12)


def test_key_equation_single_error_at_one():
    sigma = solve_key_equation(np.array([1.0, 1.0]), 1)
    assert np.allclose(sigma, [1.0, -1.0], atol=1e-12)


def test_key_equation_residual_small_on_decodable():
    rng = np.random.default_rng(8)
    frame = roots_frame(8, 24)
    for _ in range(40):
        rep = vf.random_sparse_rep(24, int(rng.integers(0, 5)), rng)
        s = syndromes(frame, vf.synthesize(frame, rep))
        sigma = solve_key_equation(s, 4)
        # S1 * sigma (mod z^N) has degree < deg sigma: the key equation
        resid = np.convolve(s, sigma)[sigma.size - 1: s.size]
        assert np.abs(resid).max() <= 1e-7 * (1 + np.abs(s).max())


def test_key_equation_degree_contract():
    rng = np.random.default_rng(12)
    frame = roots_frame(10, 20)
    for w in range(0, 6):
        rep = vf.random_sparse_rep(20, w, rng)
        s = syndromes(frame, vf.synthesize(frame, rep))
        sigma = solve_key_equation(s, 5)
        assert sigma.size - 1 == w


# -- root location --------------------------------------------------------------

def test_locations_constant_sigma():
    frame = roots_frame(2, 4)
    assert find_error_locations(np.array([1.0 + 0j]), frame) == []


def test_locations_single_root():
    frame = roots_frame(2, 4)
    assert find_error_locations(np.array([1.0, 1.0]), frame) == [3]


def test_locations_two_roots():
    frame = roots_frame(4, 4)
    sigma = np.convolve([1.0, -1.0], [1.0, -1j])  # roots 1 and -i = 1/i
    assert find_error_locations(sigma, frame) == [1, 2]


def test_locations_count_mismatch():
    frame = roots_frame(2, 4)
    with pytest.raises(RootCountMismatch):
        find_error_locations(np.array([1.0, -0.5]), frame)  # root at 2: off-grid


def _locator(frame, support):
    """prod_{j in support} (1 - z_j x): its roots are the support's 1/z_j."""
    sigma = np.ones(1, dtype=complex)
    for j in support:
        sigma = np.convolve(sigma, [1.0, -frame.nodes[j - 1]])
    return sigma


def _oracle_hits(sigma, frame):
    # sigma evaluated at each 1/z_j directly, high-to-low
    vals = np.abs(np.polyval(sigma[::-1], 1.0 / frame.nodes))
    return (np.nonzero(vals < decoder.ROOT_ACCEPT_TOL * (1.0 + vals.max()))[0] + 1).tolist()


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("nodes", ["inside", "outside", "unit-irregular", "spread"])
def test_locations_off_the_roots_of_unity_match_direct_evaluation(nodes, n):
    m = 24
    rng = np.random.default_rng([n, len(nodes)])
    z = {"inside": 0.9 * vf.default_nodes(m),
         "outside": 1.1 * vf.default_nodes(m),
         # jittered, so no node is a root of unity and none crowds another
         "unit-irregular": np.exp(2j * np.pi * (np.arange(m) + 0.3 * rng.random(m)) / m),
         # moduli 0.2..5: sigma(1/z_j) differs from row j's sum by |z_j|**d
         "spread": vf.default_nodes(m) * np.exp(rng.uniform(np.log(0.2), np.log(5.0), m)),
         }[nodes]
    frame = vf.make_vandermonde_frame(z, n)
    for w in [w for w in range(0, n // 2 + 1) for _ in range(5)]:
        support = tuple(sorted(int(j) + 1 for j in rng.choice(m, w, replace=False)))
        sigma = _locator(frame, support)
        assert _oracle_hits(sigma, frame) == list(support)
        assert find_error_locations(sigma, frame) == list(support)
        if not w:
            continue
        # A bend of 1e-3 moves every root off its node; smaller bends cross
        # the acceptance threshold node by node, and the answer must still
        # follow direct evaluation.
        noise = np.abs(sigma).max() * (rng.standard_normal(w) + 1j * rng.standard_normal(w))
        for scale in (1e-3, 1e-5, 1e-6, 1e-7, 1e-8):
            bent = sigma.copy()
            bent[1:] += scale * noise
            hits = _oracle_hits(bent, frame)
            assert scale < 1e-3 or len(hits) != w
            if len(hits) == w:
                assert find_error_locations(bent, frame) == hits
            else:
                with pytest.raises(RootCountMismatch):
                    find_error_locations(bent, frame)


def test_locations_past_the_radius_raise_even_when_every_root_is_a_node():
    # At odd N the Euclid locator can come back of degree ceil(N/2).
    frame = roots_frame(5, 10)
    sigma = _locator(frame, (1, 4, 7))
    with pytest.raises(RootCountMismatch, match="exceeds"):
        find_error_locations(sigma, frame)


def test_locations_requires_normalization():
    frame = roots_frame(2, 4)
    with pytest.raises(ValueError):
        find_error_locations(np.array([2.0, 2.0]), frame)


@pytest.mark.parametrize("call", [
    lambda: solve_key_equation(np.zeros(0), 0),
    lambda: solve_key_equation(np.ones(4), -1),
    lambda: solve_key_equation(np.ones(4), 5),
    lambda: find_error_locations(np.array([1.0, 1.0]), vf.make_gaussian_frame(4, 2, seed=1)),
], ids=["no-syndromes", "t-below-0", "t-above-n", "locations-on-a-general-frame"])
def test_input_checks_raise(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda: poly.poly_trim([1.0, np.nan]),
    lambda: solve_key_equation(np.array([1.0, np.nan, 2.0, 1.0]), 2),
    lambda: find_error_locations(np.array([1.0, np.nan]), roots_frame(2, 4)),
    lambda: poly.poly_divmod([1.0, 2.0], [np.inf, 1.0]),
], ids=["trim", "key-equation", "locations", "divmod"])
def test_non_finite_coefficients_raise_value_error(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def test_key_equation_breaks_down_on_a_nan_multiplier(monkeypatch):
    monkeypatch.setattr(decoder, "poly_divmod",
                        lambda p, q: (np.array([np.nan], dtype=complex), p[:0]))
    with pytest.raises(NumericBreakdown):
        solve_key_equation(np.array([1.0, 2.0]), 0)


@pytest.mark.parametrize("seed", range(1, 7))
def test_an_overflowing_euclid_division_breaks_down_instead_of_raising(seed):
    # Entries 1..66 standard normal, entry 66 then set to 1e-8: dividing
    # z^128 by S1 grows the quotient by about 1e8 a term until it
    # overflows and the remainder turns nan.
    frame = roots_frame(128, 512)
    r = np.zeros(128, dtype=complex)
    r[:66] = np.random.default_rng(seed).standard_normal(66)
    r[65] = 1e-8
    with pytest.raises(NumericBreakdown):
        solve_key_equation(r, 64)
    assert vf.decode(frame, r).status == STATUS_WEIGHT


# -- decode ---------------------------------------------------------------------

def test_decode_zero_signal():
    frame = roots_frame(2, 4)
    out = vf.decode(frame, np.zeros(2))
    assert out.status == STATUS_OK
    assert out.rep.weight == 0
    assert out.residual == 0.0


def test_decode_single_atom_worked_example():
    frame = roots_frame(2, 4)
    out = vf.decode(frame, [2.0, -2.0])
    assert out.status == STATUS_OK
    assert out.rep.support == (3,)
    assert np.allclose(out.rep.values, [2.0], atol=1e-10)


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


@pytest.mark.parametrize("n,m,r,status", [
    (2, 4, [0, 1], STATUS_WEIGHT),                  # the key equation breaks down
    (4, 8, [1, 1, 0, 0], STATUS_RESIDUAL),          # one candidate, of weight 0
], ids=["breakdown", "weight-0"])
def test_decode_reports_its_exit_without_an_ok_candidate(n, m, r, status):
    out = vf.decode(roots_frame(n, m), r)
    assert (out.status, out.rep.weight) == (status, 0)
    assert out.residual == 1.0


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
        if w:
            err = np.linalg.norm(out.rep.values - rep.values) / np.linalg.norm(rep.values)
            assert err <= 1e-6


@pytest.mark.parametrize("scale", [1e-150, 1e-12, 1e150])
@pytest.mark.parametrize("w,status", [(5, STATUS_OK), (8, STATUS_OK), (9, STATUS_WEIGHT)])
def test_decode_does_not_depend_on_the_signal_scale(w, status, scale):
    # Every threshold of decode is relative to the signal, so a scaled
    # signal gets the same answer with its values scaled.
    frame = roots_frame(16, 64)
    rep = vf.random_sparse_rep(64, w, np.random.default_rng(w))
    r = vf.synthesize(frame, rep)
    out, scaled = vf.decode(frame, r), vf.decode(frame, scale * r)
    assert (scaled.status, scaled.rep.support) == (out.status, out.rep.support)
    assert out.status == status and (status != STATUS_OK or out.rep.support == rep.support)
    assert np.allclose(scaled.rep.values / scale, out.rep.values, rtol=1e-12, atol=0.0)


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
    # Euclid fails here, and a locator fitted to the syndromes has roots
    # off the nodes, close enough that two map to one nearest node; the
    # subspace fallback scores the nodes themselves and names the true
    # support.
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


def test_candidate_collapses_a_superset_to_the_true_support():
    # One node beyond a weight-5 support gets a phantom value near zero;
    # the candidate step drops it and values the true support afresh.
    frame = roots_frame(16, 32)
    rng = np.random.default_rng(5)
    support = (3, 8, 14, 22, 29)
    values = rng.uniform(0.5, 2.0, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
    s = vf.synthesize(frame, vf.SparseRep(32, support, values))
    found, found_values, residual = _candidate(frame, s, (3, 8, 14, 17, 22, 29),
                                               float(np.linalg.norm(s)))
    assert found == support
    assert residual <= 1e-14
    assert np.abs(found_values - values).max() <= 1e-12


def _clustered_decode(monkeypatch, w):
    """decode of unit values on nodes 1..w of roots(48, 96), and the size
    of the support offered to _candidate on each call."""
    seen = []

    def recording(frame, s, support, norm_s):
        seen.append(len(support))
        return _candidate(frame, s, support, norm_s)

    monkeypatch.setattr(decoder, "_candidate", recording)
    frame = roots_frame(48, 96)
    rep = vf.SparseRep(96, tuple(range(1, w + 1)), np.ones(w, dtype=complex))
    return vf.decode(frame, vf.synthesize(frame, rep)), seen


def test_decode_collapses_an_overshot_fallback_locator(monkeypatch):
    # The subspace fallback offers the true weight-22 support itself;
    # no heavier support is valued.
    out, seen = _clustered_decode(monkeypatch, 22)
    assert out.status == STATUS_OK
    assert out.rep.support == tuple(range(1, 23))
    assert seen[-1] == max(seen) == 22


def test_decode_of_a_clustered_support_inside_the_radius_is_not_a_wrong_ok(monkeypatch):
    # The subspace fallback offers the true weight-20 support itself;
    # no heavier support is valued.
    out, seen = _clustered_decode(monkeypatch, 20)
    assert out.status == STATUS_OK
    assert out.rep.support == tuple(range(1, 21))
    assert seen[-1] == max(seen) == 20


@pytest.mark.parametrize("w", [16, 32])
def test_decode_past_n_64_recovers_what_the_euclid_locator_misses(w):
    # Past N = 64 the Euclid locator's root count often misses in
    # doubles; the subspace fallback must still decode those inputs.
    frame = roots_frame(128, 512)
    missed = 0
    for trial in range(16):
        rep = vf.random_sparse_rep(512, w, vf.sample_rng(2128, trial))
        r = vf.synthesize(frame, rep)
        sigma = solve_key_equation(r, 64)
        try:
            find_error_locations(sigma, frame)
        except RootCountMismatch:
            missed += 1
            out = vf.decode(frame, r)
            assert out.status == STATUS_OK
            assert out.rep.support == rep.support
            assert np.linalg.norm(out.rep.values - rep.values) <= 1e-9 * np.linalg.norm(rep.values)
    assert missed >= 3


def test_decode_of_thirteen_adjacent_unit_values_is_exact():
    # The smallest Forney denominator of nodes 1..13 of roots(52, 208) is
    # 3e-13; least-squares values keep the true support, which wins.
    frame = roots_frame(52, 208)
    rep = vf.SparseRep(208, tuple(range(1, 14)), np.ones(13, dtype=complex))
    out = vf.decode(frame, vf.synthesize(frame, rep))
    assert out.status == STATUS_OK
    assert out.rep.support == rep.support
    assert out.residual <= 1e-14


def test_decode_at_n_512_and_weight_n_over_4_is_exact():
    # Coefficient-form locators of degree 128 break down on the unit
    # circle; the subspace fallback needs none.
    frame = roots_frame(512, 2048)
    rep = vf.random_sparse_rep(2048, 128, vf.sample_rng(11, 0))
    out = vf.decode(frame, vf.synthesize(frame, rep))
    assert out.status == STATUS_OK
    assert out.rep.support == rep.support
    assert np.linalg.norm(out.rep.values - rep.values) <= 1e-9 * np.linalg.norm(rep.values)


def test_fallback_on_non_unit_nodes_at_even_n_fits_weight_t_exactly(monkeypatch):
    # Without the conjugate-reversed syndromes an even N stacks t rows
    # for t + 1 columns: weight t always passes the rank test, and every
    # weight from the true one up to t is offered, the true support
    # first.  With Euclid's roots refused, the fallback alone must decode
    # every weight up to t.
    n, m = 8, 16
    frame = vf.make_vandermonde_frame(0.9 * vf.default_nodes(m), n)

    def miss(sigma, frame):
        raise RootCountMismatch("refused")

    monkeypatch.setattr(decoder, "find_error_locations", miss)
    for w in range(1, n // 2 + 1):
        rep = vf.random_sparse_rep(m, w, np.random.default_rng([n, w]))
        r = vf.synthesize(frame, rep)
        supports = list(decoder._subspace_supports(frame, r))
        assert [len(support) for support in supports] == list(range(w, n // 2 + 1))
        assert supports[0] == rep.support
        out = vf.decode(frame, r)
        assert out.status == STATUS_OK
        assert out.rep.support == rep.support
        assert out.residual <= 1e-14


def test_uniqueness_boundary_two_representations():
    # split a weight-(N+1) annihilator into two reps of weight (N+1)/2
    n, m = 5, 10
    frame = roots_frame(n, m)
    v = vf.null_vector_on_support(frame, range(1, n + 2))
    half = (n + 1) // 2
    c = vf.SparseRep(m, v.support[:half], v.values[:half])
    d = vf.SparseRep(m, v.support[half:], -v.values[half:])     # c - d = v
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
    assert isinstance(obj["residual"], float)
    assert set(obj) == {"status", "support", "values", "residual"}


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


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, 1.0, np.inf])
def test_decode_refuses_a_tolerance_outside_the_open_unit_interval(tol):
    # nan and tol <= 0 could never give "ok"; tol >= 1 would accept any candidate
    frame = roots_frame(4, 8)
    with pytest.raises(DomainError, match="tol"):
        vf.decode(frame, 2.0 * frame.matrix[2], tol=tol)
    assert vf.decode(frame, 2.0 * frame.matrix[2], tol=0.5).rep.support == (3,)


def test_least_squares_values_match_scipy_gelsy():
    # _values reads only the frame's rows, so any matrix stands in for a frame
    def solve(a, b):
        return _values(SimpleNamespace(matrix=a.T), b, tuple(range(1, a.shape[1] + 1)))[0]

    rng = np.random.default_rng(12)
    for rows, cols in [(64, 5), (9, 9), (30, 1), (12, 6)]:
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        b = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        expected, *_ = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")
        assert np.abs(solve(a, b) - expected).max() <= 1e-13 * np.abs(expected).max()
        # rank-deficient: the rank cut acts, and both give the minimum-norm solution
        a[:, -1] = a[:, 0]
        expected, *_ = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")
        assert np.abs(solve(a, b) - expected).max() <= 1e-13 * np.abs(expected).max()
    # a weight-0 candidate solves an (N, 0) system
    assert solve(np.zeros((4, 0), dtype=complex), np.ones(4, dtype=complex)).shape == (0,)


# Runs in a fresh interpreter, because OpenBLAS reads its thread count
# when it loads: unit values on nodes 6..105 of roots(256, 512).
ONE_THREAD_PROBE = """
import numpy as np
import vframe as vf
frame = vf.make_vandermonde_frame(vf.default_nodes(512), 256)
rep = vf.SparseRep(512, tuple(range(6, 106)), np.ones(100, dtype=complex))
print(vf.decode(frame, vf.synthesize(frame, rep)).status)
"""


def test_decode_of_an_ill_posed_contiguous_support_does_not_raise_on_one_blas_thread():
    # With one OpenBLAS thread, an SVD of this input's candidate rows
    # once failed to converge and the LinAlgError escaped decode.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", ONE_THREAD_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] in (STATUS_OK, STATUS_RESIDUAL, STATUS_WEIGHT)


def test_a_failed_factorization_ends_the_scan_with_the_candidates_valued_so_far(monkeypatch):
    # The Euclid support of this noisy weight-3 signal misses the strict
    # residual, so the scan goes on to the subspace candidates; the
    # solve of the second candidate fails.
    frame = roots_frame(16, 32)
    rep = vf.random_sparse_rep(32, 3, np.random.default_rng([16, 3]))
    r = vf.synthesize(frame, rep) + 1e-8 * np.random.default_rng(5).standard_normal(16)
    supports = []

    def failing(frame, s, support):
        supports.append(tuple(support))
        if len(supports) == 2:
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        return _values(frame, s, support)

    monkeypatch.setattr(decoder, "_values", failing)
    out = vf.decode(frame, r)
    assert len(supports) == 2 and supports[0] == rep.support
    support, values, residual = _candidate(frame, r, rep.support, float(np.linalg.norm(r)))
    assert out.rep.support == support == rep.support
    assert np.array_equal(out.rep.values, values)
    assert out.residual == residual
    assert STRICT_RESIDUAL < out.residual <= RESIDUAL_TOL and out.status == STATUS_OK

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import vframe as vf
from vframe import montecarlo
from vframe.errors import BudgetExceeded, ConfigMismatch, DomainError


def roots_frame(n, m):
    return vf.make_vandermonde_frame(vf.default_nodes(m), n)


# -- sphere sampling ------------------------------------------------------------

def test_sphere_samples_are_unit_norm():
    rng = vf.sample_rng(1, 0)
    for n in (1, 2, 5, 16):
        for _ in range(50):
            x = vf.sample_uniform_sphere(n, rng)
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_sphere_phase_uniform_in_dim_one():
    rng = vf.sample_rng(2, 0)
    phases = np.array(
        [np.angle(vf.sample_uniform_sphere(1, rng)[0]) for _ in range(10_000)]
    )
    ks = stats.kstest(phases, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert ks.pvalue > 0.01


def test_sphere_coordinate_energy():
    # E|w_1|^2 = 1/N by symmetry
    n = 4
    rng = vf.sample_rng(3, 0)
    vals = np.empty(100_000)
    for i in range(vals.size):
        vals[i] = abs(vf.sample_uniform_sphere(n, rng)[0]) ** 2
    stderr = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0 / n) <= 3 * stderr


def test_sample_batch_derives_per_index_streams():
    a = vf.sample_sphere_batch(3, 5, seed=42)
    b = vf.sample_sphere_batch(3, 5, seed=42)
    assert np.array_equal(a, b)
    # stream i is a function of (seed, i) alone, not of batch size
    c = vf.sample_sphere_batch(3, 9, seed=42)
    assert np.array_equal(c[:5], a)


SEEDS = [0, 7, 2**32 - 1, 2**32, 2**33 + 5, 2**64 + 3, (708, 6, 3), (2**33, 0, 9),
         (1, 2, 3, 4, 5), [3, 4], ()]


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("n_samples", [0, 1, 37])
def test_philox_keys_match_seed_sequence(seed, n_samples):
    # Keys are derived by a port of SeedSequence's entropy pool; this fails
    # if numpy ever changes SeedSequence, for int seeds of one, two and three
    # words and tuple seeds shorter and longer than its 4-word pool.
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    expected = np.array(
        [np.random.SeedSequence(entropy + (i,)).generate_state(2, np.uint64)
         for i in range(n_samples)], dtype=np.uint64).reshape(n_samples, 2)
    keys = montecarlo._philox_keys(seed, n_samples)
    assert keys.dtype == np.uint64 and keys.shape == (n_samples, 2)
    assert np.array_equal(keys, expected)
    for i in range(n_samples):
        assert np.array_equal(keys[i], vf.sample_rng(seed, i).bit_generator.state["state"]["key"])


@pytest.mark.parametrize("seed,error", [(-1, ValueError), ((5, -2), ValueError),
                                        (1.5, TypeError), ((2, 0.5), TypeError)])
def test_sample_seeds_refused_as_seed_sequence_refuses(seed, error):
    entropy = tuple(seed) if isinstance(seed, tuple) else (seed,)
    with pytest.raises(error):
        np.random.SeedSequence(entropy + (0,))
    with pytest.raises(error):
        vf.sample_rng(seed, 0)
    with pytest.raises(error):
        vf.sample_sphere_batch(3, 2, seed)


def test_philox_keys_refuse_sample_indices_past_one_word():
    # SeedSequence would give index 2**32 two entropy words; no batch is that long.
    with pytest.raises(DomainError):
        montecarlo._philox_keys(0, 2**32 + 1)


@pytest.mark.parametrize("seed", [0, 2**40 + 1, (708, 6, 3), (1, 2, 3, 4, 5)], ids=repr)
def test_sample_batch_rows_equal_per_sample_streams(seed):
    # The re-keyed generator of sample_sphere_batch reproduces a freshly
    # built one, bit for bit, in every dimension.
    for n in range(1, 65):
        batch = vf.sample_sphere_batch(n, 6, seed)
        for i, row in enumerate(batch):
            expected = vf.sample_uniform_sphere(n, vf.sample_rng(seed, i))
            assert row.tobytes() == expected.tobytes(), (n, i)


# -- projections -----------------------------------------------------------------

def test_projection_residual_in_span():
    frame = roots_frame(4, 8)
    rows = frame.matrix[[0, 2]]
    x = 0.3 * rows[0] - 1j * rows[1]
    assert vf.projection_residual(rows, x) <= 1e-10


def test_projection_residual_orthogonal():
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    x = np.array([0.0, 0.0, 1.0], dtype=complex)
    assert vf.projection_residual(rows, x) == pytest.approx(1.0, abs=1e-12)


def test_projection_residual_empty_and_rank_deficient():
    x = np.array([1.0, 1j]) / math.sqrt(2)
    assert vf.projection_residual(np.zeros((0, 2)), x) == pytest.approx(1.0)
    # duplicated row projects onto the same line as a single copy
    row = np.array([[1.0, 1.0]], dtype=complex)
    dup = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    assert vf.projection_residual(dup, x) == pytest.approx(
        vf.projection_residual(row, x), abs=1e-12
    )


def test_projection_residual_beta_law():
    # fixed random plane, uniform x: residual ~ Beta(N-L, L)
    n, l = 4, 2
    rng = vf.sample_rng(7, 0)
    plane = rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n))
    res = [
        vf.projection_residual(plane, vf.sample_uniform_sphere(n, rng))
        for _ in range(10_000)
    ]
    cdf = lambda a: np.array([vf.cap_area_ratio(float(v), n, l) for v in np.atleast_1d(a)])
    assert stats.kstest(res, cdf).statistic <= 0.02


# -- exact SMDD -------------------------------------------------------------------

def test_smdd_zero_weight():
    frame = roots_frame(3, 6)
    x = vf.sample_uniform_sphere(3, vf.sample_rng(4, 0))
    res = vf.smdd_exact(frame, x, 0)
    assert res.support == ()
    assert res.residual_sq == pytest.approx(1.0, abs=1e-12)


def test_smdd_spanning_weight():
    frame = roots_frame(3, 6)
    x = vf.sample_uniform_sphere(3, vf.sample_rng(4, 1))
    assert vf.smdd_exact(frame, x, 3).residual_sq <= 1e-10


def test_smdd_single_atom_signal():
    frame = roots_frame(2, 4)
    x = frame.matrix[2] / np.linalg.norm(frame.matrix[2])
    res = vf.smdd_exact(frame, x, 1)
    assert res.support == (3,)
    assert res.residual_sq <= 1e-12


def test_smdd_matches_naive_enumeration():
    import itertools

    frame = vf.make_gaussian_frame(7, 3, seed=13)
    x = vf.sample_uniform_sphere(3, vf.sample_rng(5, 0))
    for l in (1, 2, 3):
        naive = min(
            vf.projection_residual(frame.matrix[list(c)], x)
            for c in itertools.combinations(range(7), l)
        )
        assert vf.smdd_exact(frame, x, l).residual_sq == pytest.approx(naive, abs=1e-12)


def test_smdd_tie_breaks_lexicographic():
    # duplicate rows: supports {1} and {2} tie exactly; {1} must win
    frame = vf.make_general_frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x = np.array([1.0, 0.0], dtype=complex)
    res = vf.smdd_exact(frame, x, 1)
    assert res.support == (1,)
    assert res.ties_broken
    # {1,4} and {2,3} both fit exactly; {1,4} is lexicographically smaller
    # although {2,3} comes first in colexicographic order
    frame = vf.make_general_frame([[1, 0, 0], [1, 0, 1], [0, 1, -1], [0, 1, 0]])
    x = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
    res = vf.smdd_exact(frame, x, 2)
    assert res.support == (1, 4)
    assert res.residual_sq <= 1e-12
    assert res.ties_broken


def test_smdd_budget():
    frame = roots_frame(4, 24)
    with pytest.raises(BudgetExceeded):
        vf.smdd_exact(frame, np.zeros(4), 12, budget=1000)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_exact_search_rejects_non_finite_signals(bad):
    frame = roots_frame(4, 8)
    x = [bad, 1, 0, 0]
    searches = [
        lambda: vf.smdd_exact(frame, x, 1),
        lambda: vf.smdd_exact(frame, x, 0),
        lambda: vf.smdd_residuals(frame, [x, [1, 0, 0, 0]], 1),
        lambda: vf.smdd_greedy(frame, x, 1),
        lambda: vf.bds_decode(frame, x, 0.5),
    ]
    for search in searches:
        with pytest.raises(ValueError, match="finite"):
            search()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_projection_residual_rejects_non_finite_signals(bad):
    frame = roots_frame(4, 8)
    for rows in (frame.matrix[:2], frame.matrix[:0]):
        with pytest.raises(ValueError, match="signals must be finite"):
            vf.projection_residual(rows, [bad, 1, 0, 0])


def test_exact_search_checks_shape_and_weight():
    frame = roots_frame(4, 8)
    for search in (vf.smdd_exact, vf.smdd_residuals, vf.smdd_greedy):
        with pytest.raises(ValueError, match="shape"):
            search(frame, np.ones((2, 3)), 1)
        with pytest.raises(DomainError):
            search(frame, np.ones((1, 4)), 9)


def test_smdd_monotone_in_weight():
    frame = vf.make_gaussian_frame(10, 5, seed=29)
    x = vf.sample_uniform_sphere(5, vf.sample_rng(6, 0))
    res = [vf.smdd_exact(frame, x, l).residual_sq for l in range(0, 6)]
    assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))


def dup_rows_frame(m, n, seed):
    # Gaussian rows with two repeats (one scaled), so some supports are
    # rank-deficient.
    rows = vf.make_gaussian_frame(m, n, seed=seed).matrix.copy()
    rows[m - 1] = rows[0]
    rows[m - 2] = 2j * rows[1]
    return vf.make_general_frame(rows)


@pytest.mark.parametrize("m,n", [(9, 3), (12, 10)])
@pytest.mark.parametrize("kind", ["gaussian", "duplicated"])
def test_support_energies_match_projection_residual(m, n, kind):
    # N <= 4L scores with the Gram table, N > 4L with stacked bases:
    # (9, 3) is Gram at every L, (12, 10) stacked at L = 1, 2, Gram at L = 3
    frame = vf.make_gaussian_frame(m, n, seed=(41, m)) if kind == "gaussian" else dup_rows_frame(m, n, 43)
    X = vf.sample_sphere_batch(n, 3, seed=(45, m)) * np.array([[1.0], [0.5], [3.0]])
    for l in (1, 2, 3):
        table = montecarlo._support_table(frame, l, montecarlo.DEFAULT_BUDGET)
        assert table.gram == (n <= 4 * l)
        assert table.supports.shape == (math.comb(m, l), l)
        energies = table.energies(X)
        for x, energy in zip(X, energies):
            norm = float(np.vdot(x, x).real)
            direct = [vf.projection_residual(frame.matrix[s], x) for s in table.supports]
            np.testing.assert_allclose(np.maximum(norm - energy, 0.0), direct, rtol=0, atol=1e-12)


def test_kernel_matches_stacked_reference_on_mc_enum_cell():
    # Values of the complex stacked-basis kernel (the only one before the
    # Gram table) on the N=8, M=32, L=4 cell, stream (1, 1).
    frame = roots_frame(8, 32)
    X = vf.sample_sphere_batch(8, 1000, seed=(1, 1))
    res = vf.smdd_residuals(frame, X, 4)
    assert montecarlo._support_table(frame, 4, montecarlo.DEFAULT_BUDGET).gram
    reference = [float.fromhex(h) for h in (
        "0x1.01863b0854510p-5", "0x1.9e7c34d2bd310p-5", "0x1.453a233f23c60p-5",
        "0x1.fe9c2150d94e0p-6", "0x1.dbe99fc37f080p-5", "0x1.03d145fe7b240p-4")]
    np.testing.assert_allclose(res[:6], reference, rtol=0, atol=2e-15)
    np.testing.assert_allclose(res[[270, 999]], [0.1836232351621241, 0.09143799905813721],
                               rtol=0, atol=2e-15)
    assert abs(float(res.mean()) - 0.07130588313606415) <= 1e-15
    est = vf.estimate_distortion(frame, 4, 1000, seed=(1, 1))
    assert abs(est.mean - 0.07130588313606415) <= 1e-15
    expected = [
        ((1, 13, 18, 28), 0.03143607644836732),
        ((11, 17, 18, 20), 0.05059633557349308),
        ((5, 6, 11, 18), 0.039700573769658076),
        ((3, 17, 24, 28), 0.031165154013611196),
        ((2, 13, 14, 28), 0.05809479907836235),
    ]
    for x, (support, residual_sq) in zip(X, expected):
        got = vf.smdd_exact(frame, x, 4)
        assert got.support == support and not got.ties_broken
        assert abs(got.residual_sq - residual_sq) <= 2e-15


def test_exact_search_keeps_no_support_table():
    # every call builds its own table (N^2 * C(M, L) * 8 = 583 kB here)
    # and frees it; bds_decode bisects through L = 3, 1 and 2
    x = vf.sample_uniform_sphere(6, vf.sample_rng(14, 0))
    assert vf.bds_decode(roots_frame(6, 24), x, 0.3)[0] == 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        frame = roots_frame(6, 24)
        assert vf.bds_decode(frame, x, 0.3)[0] == 2
        vf.estimate_distortion(frame, 3, 10, seed=14)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 36 * math.comb(24, 3) * 8 // 10
    # the budget is checked on every call
    with pytest.raises(BudgetExceeded):
        vf.smdd_exact(frame, x, 3, budget=math.comb(24, 3) - 1)
    with pytest.raises(BudgetExceeded):
        vf.smdd_residuals(frame, x[None, :], 3, budget=math.comb(24, 3) - 1)


# -- BDS --------------------------------------------------------------------------

def test_bds_delta_one():
    frame = roots_frame(3, 6)
    x = vf.sample_uniform_sphere(3, vf.sample_rng(8, 0))
    l, res = vf.bds_decode(frame, x, 1.0)
    assert l == 0 and res.support == ()


def test_bds_delta_zero_generic():
    frame = roots_frame(3, 6)
    x = vf.sample_uniform_sphere(3, vf.sample_rng(8, 1))
    l, res = vf.bds_decode(frame, x, 0.0)
    assert l == 3
    assert res.residual_sq <= 1e-12


def test_bds_single_atom():
    frame = roots_frame(2, 4)
    x = frame.matrix[2] / np.linalg.norm(frame.matrix[2])
    l, res = vf.bds_decode(frame, x, 1e-9)
    assert l == 1 and res.support == (3,)


def test_bds_matches_linear_scan():
    frame = vf.make_gaussian_frame(8, 4, seed=31)
    for i in range(8):
        x = vf.sample_uniform_sphere(4, vf.sample_rng(9, i))
        delta = float(vf.sample_rng(10, i).uniform(0.0, 0.5))
        thr = delta * 1.0 + 1e-12
        scan = next(
            l for l in range(0, 5) if vf.smdd_exact(frame, x, l).residual_sq <= thr
        )
        assert vf.bds_decode(frame, x, delta)[0] == scan


def test_bds_enumerates_only_the_weights_it_bisects():
    # bisection over [0, 4] probes L = 2 and L = 1 only: C(8, 3) and
    # C(8, 4) lie over the budget and must never be enumerated
    frame = vf.make_gaussian_frame(8, 4, seed=31)
    for i in range(8):
        x = vf.sample_uniform_sphere(4, vf.sample_rng(9, i))
        scan = next(l for l in range(0, 5) if vf.smdd_exact(frame, x, l).residual_sq <= 0.5 + 1e-12)
        assert scan <= 2
        l, res = vf.bds_decode(frame, x, 0.5, budget=math.comb(8, 2))
        assert l == scan
        assert res == vf.smdd_exact(frame, x, l)


def test_bds_domain():
    frame = roots_frame(2, 4)
    with pytest.raises(DomainError):
        vf.bds_decode(frame, np.zeros(2), 1.5)


# -- distortion estimation ----------------------------------------------------------

def test_estimate_l0_exact_one():
    frame = roots_frame(4, 8)
    est = vf.estimate_distortion(frame, 0, 500, seed=11)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_estimate_ln_zero():
    frame = roots_frame(4, 8)
    est = vf.estimate_distortion(frame, 4, 300, seed=11)
    assert est.mean <= 1e-10


def test_estimate_deterministic():
    frame = roots_frame(5, 10)
    a = vf.estimate_distortion(frame, 2, 400, seed=77)
    b = vf.estimate_distortion(frame, 2, 400, seed=77)
    assert a == b


def test_estimate_headline_cell():
    frame = roots_frame(6, 12)
    est = vf.estimate_distortion(frame, 2, 2000, seed=20)
    report = vf.distortion_lower_bound(vf.BoundInput(6, 12, 2))
    assert est.mean >= report.lower_bound - 3 * est.stderr
    verdict = vf.compare_to_bound(est, report)
    assert verdict.passed
    assert verdict.margin == pytest.approx(est.mean - report.lower_bound)


@pytest.mark.parametrize("l", [0, 1, 2, 4])
def test_estimate_is_the_reduction_of_its_batch(l):
    frame = roots_frame(4, 8)
    est = vf.estimate_distortion(frame, l, 50, seed=(9, 1))
    X = vf.sample_sphere_batch(4, 50, (9, 1))
    again = vf.estimate_from_samples(frame, l, X, (9, 1))
    assert again == est
    assert np.array_equal(again.ratios, est.ratios)
    if l == 0:
        assert est.samples is None and again.samples is None
    else:
        assert est.samples.tobytes() == X.tobytes() and again.samples is X


def test_estimate_checks_before_drawing(monkeypatch):
    monkeypatch.setattr(montecarlo, "sample_sphere_batch", None)
    frame = roots_frame(4, 24)
    with pytest.raises(BudgetExceeded):
        vf.estimate_distortion(frame, 12, 10, seed=1, budget=1000)
    with pytest.raises(DomainError):
        vf.estimate_distortion(frame, 25, 10, seed=1)
    with pytest.raises(DomainError):
        vf.estimate_distortion(frame, 1, 0, seed=1)
    assert vf.estimate_distortion(frame, 0, 10, seed=1).mean == 1.0


def test_estimate_agrees_with_per_sample_smdd():
    frame = roots_frame(4, 8)
    est = vf.estimate_distortion(frame, 2, 40, seed=5)
    ratios = []
    for i in range(40):
        x = vf.sample_uniform_sphere(4, vf.sample_rng(5, i))
        res = vf.smdd_exact(frame, x, 2)
        ratios.append(res.residual_sq / float(np.vdot(x, x).real))
    assert est.mean == pytest.approx(float(np.mean(ratios)), abs=1e-15)
    X = vf.sample_sphere_batch(4, 40, seed=5)
    residuals = [vf.smdd_exact(frame, x, 2).residual_sq for x in X]
    np.testing.assert_allclose(vf.smdd_residuals(frame, X, 2), residuals, rtol=0, atol=1e-15)
    np.testing.assert_allclose(vf.smdd_residuals(frame, X, 0), 1.0, rtol=0, atol=1e-15)


# -- greedy fallback ------------------------------------------------------------------

def test_greedy_upper_bounds_exact():
    frame = roots_frame(5, 10)
    for i in range(10):
        x = vf.sample_uniform_sphere(5, vf.sample_rng(12, i))
        for l in (1, 2, 3):
            g = vf.smdd_greedy(frame, x, l)
            e = vf.smdd_exact(frame, x, l)
            assert g.residual_sq >= e.residual_sq - 1e-12
            assert len(g.support) <= l


def test_greedy_fallback_labels_estimate():
    frame = roots_frame(4, 8)
    with pytest.raises(BudgetExceeded):
        vf.estimate_distortion(frame, 2, 20, seed=1, budget=3)
    est = vf.estimate_distortion(frame, 2, 20, seed=1, budget=3, fallback_greedy=True)
    assert est.approximate
    report = vf.distortion_lower_bound(vf.BoundInput(4, 8, 2))
    with pytest.raises(ConfigMismatch):
        vf.compare_to_bound(est, report)


# -- verdicts --------------------------------------------------------------------------

def test_compare_to_bound_arithmetic():
    cfg = vf.EstimateConfig("x", 6, 12, 2, 0)
    report = vf.BoundReport(vf.BoundInput(6, 12, 2), 0.068, 0.070, 0.052, vf.BRANCH_MID)
    good = vf.DistortionEstimate(0.08, 0.002, 100, cfg)
    bad = vf.DistortionEstimate(0.04, 0.002, 100, cfg)
    v = vf.compare_to_bound(good, report)
    assert v.passed and v.margin == pytest.approx(0.028)
    assert not vf.compare_to_bound(bad, report).passed


def test_compare_to_bound_config_mismatch():
    cfg = vf.EstimateConfig("x", 6, 12, 3, 0)
    report = vf.distortion_lower_bound(vf.BoundInput(6, 12, 2))
    est = vf.DistortionEstimate(0.5, 0.01, 10, cfg)
    with pytest.raises(ConfigMismatch):
        vf.compare_to_bound(est, report)


@pytest.mark.parametrize("maker,seed", [("vandermonde", None), ("gaussian", 404)])
def test_bound_validity_small_sweep(maker, seed):
    # the bound holds for any frame; spot-check the envelope cells
    for n, m in [(2, 4), (3, 6), (4, 8), (4, 16), (6, 12), (8, 16)]:
        frame = (
            roots_frame(n, m)
            if maker == "vandermonde"
            else vf.make_gaussian_frame(m, n, seed=(seed, n, m))
        )
        for l in range(0, n + 1):
            est = vf.estimate_distortion(frame, l, 300, seed=(1234, n, m, l))
            report = vf.distortion_lower_bound(vf.BoundInput(n, m, l))
            assert vf.compare_to_bound(est, report).passed, (maker, n, m, l)

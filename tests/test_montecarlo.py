import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import stats

import vframe as vf
from vframe import frames, montecarlo
from vframe.errors import BudgetExceeded, ConfigMismatch, DomainError


def roots_frame(n, m):
    return vf.make_vandermonde_frame(vf.default_nodes(m), n)


# -- sphere sampling ------------------------------------------------------------

def test_sphere_phase_uniform_in_dim_one():
    phases = np.angle(vf.sample_sphere_batch(1, 10_000, seed=2)[:, 0])
    ks = stats.kstest(phases, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert ks.pvalue > 0.01


def test_sample_batch_derives_per_index_streams():
    a = vf.sample_sphere_batch(3, 5, seed=42)
    b = vf.sample_sphere_batch(3, 5, seed=42)
    assert np.array_equal(a, b)
    # stream i is a function of (seed, i) alone, not of batch size
    c = vf.sample_sphere_batch(3, 9, seed=42)
    assert np.array_equal(c[:5], a)


BLOCK = montecarlo._BLOCK


def contract_rows(n, seed, block, rows):
    """The first `rows` samples of block `block` of stream `seed`, drawn as
    the stream contract states: Philox keyed by SeedSequence(seed,
    spawn_key=(block,)), standard_normal((rows, 2n)), real part then
    imaginary part, each row divided by its norm."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,))))
    g = rng.standard_normal((rows, 2 * n))
    z = g[:, :n] + 1j * g[:, n:]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


SEEDS = [0, 7, 2**32 - 1, 2**32, 2**33 + 5, 2**64 + 3, (708, 6, 3), (2**33, 0, 9),
         (1, 2, 3, 4, 5), [3, 4], ()]


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("n_samples", [0, 1, 37])
def test_philox_keys_match_seed_sequence(seed, n_samples):
    # Block 0's Philox key is SeedSequence(seed, spawn_key=(0,))'s, for int
    # seeds of one, two and three words and sequence seeds shorter and
    # longer than its 4-word pool.
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else seed
    batch = vf.sample_sphere_batch(3, n_samples, seed)
    assert batch.shape == (n_samples, 3)
    assert batch.tobytes() == contract_rows(3, entropy, 0, n_samples).tobytes()


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


@pytest.mark.parametrize("seed", [0, 2**40 + 1, 2**64 + 3, (708, 6, 3), (1, 2, 3, 4, 5)],
                         ids=repr)
def test_sample_batch_rows_equal_per_sample_streams(seed):
    # Each row of a batch across a block edge is, bit for bit in every
    # dimension, the sample drawn on its own and the contract's row.
    entropy = tuple(seed) if isinstance(seed, tuple) else seed
    for n in range(1, 65):
        batch = vf.sample_sphere_batch(n, 6, seed, start=BLOCK - 3)
        expected = np.concatenate([contract_rows(n, entropy, 0, BLOCK)[-3:],
                                   contract_rows(n, entropy, 1, 3)])
        assert batch.tobytes() == expected.tobytes(), n
        for k, row in enumerate(batch):
            alone = vf.sample_sphere_batch(n, 1, seed, start=BLOCK - 3 + k)
            assert alone.tobytes() == row.tobytes(), (n, k)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_sample_rows_do_not_depend_on_the_rows_drawn_with_them(n):
    # Rows 1023, 1024 and 1025 straddle the edge of blocks 0 and 1.
    seed = (31, n)
    full = vf.sample_sphere_batch(n, 2 * BLOCK + 5, seed)
    np.testing.assert_allclose(np.linalg.norm(full, axis=1), 1.0, rtol=0, atol=1e-15)
    for i in (BLOCK - 1, BLOCK, BLOCK + 1):
        for start in (0, BLOCK - 1, i):
            for stop in (i + 1, 2 * BLOCK + 5):
                part = vf.sample_sphere_batch(n, stop - start, seed, start)
                assert part[i - start].tobytes() == full[i].tobytes(), (i, start, stop)
    # A block index is not limited to one 32-bit word.
    far = vf.sample_sphere_batch(n, 2, seed, start=2**33 * BLOCK + 1)
    assert far.tobytes() == contract_rows(n, seed, 2**33, 3)[1:].tobytes()


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 1, (708, 6, 3)], ids=repr)
def test_blocks_are_keyed_apart_from_the_per_sample_streams(seed):
    # SeedSequence((5, 0)) is SeedSequence(5), so keying block b by the
    # entropy (seed..., b) would make block 0 sample_rng(seed, 0), the
    # stream of encode's and roundtrip's first trial.  The spawn key does not.
    n = 4
    first = vf.sample_sphere_batch(n, 1, seed)[0]
    g = vf.sample_rng(seed, 0).standard_normal(2 * n)
    assert not np.allclose(first * np.linalg.norm(g), g[:n] + 1j * g[n:])
    # Trailing zeros pad SeedSequence's pool, so s and (s, 0) name one stream.
    flat = seed if isinstance(seed, tuple) else (seed,)
    assert vf.sample_sphere_batch(n, 3, flat + (0,)).tobytes() == \
        vf.sample_sphere_batch(n, 3, seed).tobytes()


@pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
def test_sample_coordinate_energy_follows_the_beta_law(n):
    # |x_k|^2 of a uniform point of the complex unit sphere in C^n is
    # Beta(1, n - 1); 10,000 samples span ten blocks.
    X = vf.sample_sphere_batch(n, 10_000, seed=(709, n))
    for k in (0, n - 1):
        assert stats.kstest(np.abs(X[:, k]) ** 2, stats.beta(1, n - 1).cdf).statistic <= 0.02


@pytest.mark.parametrize("n,n_samples", [(0, 0), (0, 3), (-2, 1), (3, -1)])
def test_sample_batch_refuses_bad_sizes(n, n_samples):
    with pytest.raises(DomainError):
        vf.sample_sphere_batch(n, n_samples, 0)
    with pytest.raises(DomainError):
        vf.sample_sphere_batch(3, 1, 0, start=-1)
    assert vf.sample_sphere_batch(3, 0, 0).shape == (0, 3)


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
    res = [vf.projection_residual(plane, x) for x in vf.sample_sphere_batch(n, 10_000, seed=7)]
    cdf = lambda a: np.array([vf.cap_area_ratio(float(v), n, l) for v in np.atleast_1d(a)])
    assert stats.kstest(res, cdf).statistic <= 0.02


@pytest.mark.parametrize("rows", [np.ones((2, 3)), np.ones(4), np.ones((1, 2, 4))],
                         ids=["wrong-width", "one-d", "three-d"])
def test_projection_residual_rejects_rows_of_the_wrong_shape(rows):
    with pytest.raises(ValueError, match="rows must be a"):
        vf.projection_residual(rows, [1, 0, 0, 0])


# -- exact SMDD -------------------------------------------------------------------

def test_smdd_zero_weight():
    frame = roots_frame(3, 6)
    x = vf.sample_sphere_batch(3, 1, seed=4)[0]
    res = vf.smdd_exact(frame, x, 0)
    assert res.support == ()
    assert res.residual_sq == pytest.approx(1.0, abs=1e-12)


def test_smdd_spanning_weight():
    frame = roots_frame(3, 6)
    x = vf.sample_sphere_batch(3, 2, seed=4)[1]
    assert vf.smdd_exact(frame, x, 3).residual_sq <= 1e-10


def test_smdd_single_atom_signal():
    frame = roots_frame(2, 4)
    x = frame.matrix[2] / np.linalg.norm(frame.matrix[2])
    res = vf.smdd_exact(frame, x, 1)
    assert res.support == (3,)
    assert res.residual_sq <= 1e-12


def test_smdd_matches_naive_enumeration():
    frame = vf.make_gaussian_frame(7, 3, seed=13)
    x = vf.sample_sphere_batch(3, 1, seed=5)[0]
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
    with pytest.raises(BudgetExceeded):
        vf.smdd_exact(roots_frame(4, 24), np.zeros(4), 3, budget=math.comb(24, 3) - 1)
    # Past N a general frame still enumerates: a rank-deficient support
    # may fit x too.
    with pytest.raises(BudgetExceeded):
        vf.smdd_exact(vf.make_gaussian_frame(24, 4, seed=1), np.ones(4), 12, budget=1000)


@pytest.mark.parametrize("frame,l", [
    (roots_frame(6, 12), 1), (roots_frame(6, 12), 3), (roots_frame(6, 12), 5),
    (roots_frame(6, 12), 6), (roots_frame(6, 12), 12), (roots_frame(4, 4), 4),
    (vf.make_gaussian_frame(10, 4, seed=1), 3), (vf.make_gaussian_frame(10, 4, seed=1), 6),
])
def test_smdd_answers_the_zero_signal_without_a_search(frame, l, monkeypatch):
    # Every support fits the zero signal at residual 0, so the answer is
    # the one a search gives, bit for bit: the lexicographically first
    # support, tied unless L = M.  Only the budget is still charged, where
    # a search would be.
    monkeypatch.setattr(montecarlo, "_energies", None)   # no search runs
    got = vf.smdd_exact(frame, np.zeros(frame.n), l)
    assert got == vf.SmddResult(tuple(range(1, l + 1)), 0.0, l < frame.m)
    assert repr(got.residual_sq) == "0.0"
    if l < frame.n or frame.kind != frames.VANDERMONDE:
        with pytest.raises(BudgetExceeded):
            vf.smdd_exact(frame, np.zeros(frame.n), l, budget=math.comb(frame.m, l) - 1)


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
    x = vf.sample_sphere_batch(5, 1, seed=6)[0]
    res = [vf.smdd_exact(frame, x, l).residual_sq for l in range(0, 6)]
    assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))


def dup_rows_frame(m, n, seed):
    # Gaussian rows with two repeats (one scaled), so some supports are
    # rank-deficient.
    rows = vf.make_gaussian_frame(m, n, seed=seed).matrix.copy()
    rows[m - 1] = rows[0]
    rows[m - 2] = 2j * rows[1]
    return vf.make_general_frame(rows)


def spy_lifts(monkeypatch):
    """Record (form, rows) of every lift of samples for real weights: "gram"
    for the Gram form, "real" for the real-symmetric one."""
    calls = []
    for form in ("gram", "real"):
        name = f"_{form}_features"
        monkeypatch.setattr(montecarlo, name,
                            lambda xs, form=form, lift=getattr(montecarlo, name):
                            calls.append((form, len(xs))) or lift(xs))
    return calls


def spy_bases(monkeypatch):
    """Record the number of supports SVD'd by every call of _bases."""
    calls = []
    bases = montecarlo._bases
    monkeypatch.setattr(montecarlo, "_bases",
                        lambda rows: calls.append(len(rows)) or bases(rows))
    return calls


def energy_blocks(frame, X, l):
    """Every step of _energies, each with a copy of its energies, which are
    valid only until the next step."""
    steps = montecarlo._energies(frame, montecarlo._lift(frame, X), l)
    return [(rows, supports, energy.copy()) for rows, supports, energy in steps]


def block_supports(blocks):
    """The supports of every column of energy_blocks, in column order."""
    return np.concatenate([supports(np.arange(energy.shape[1])) for _, supports, energy in blocks])


def test_energies_of_one_search_share_one_buffer():
    # On the mc-enum cell each real-weight GEMM writes its energies into one
    # buffer: fresh outputs of slightly different sizes left heap holes that
    # moved an estimate's peak RSS by 8 MiB.
    frame = roots_frame(8, 32)
    X = vf.sample_sphere_batch(8, 1000, seed=(1, 5))
    steps = montecarlo._energies(frame, montecarlo._lift(frame, X), 4)
    first = next(steps)[2]
    second = next(steps)[2]
    assert first.dtype == second.dtype == float
    assert np.shares_memory(first, second)


@pytest.mark.parametrize("frame,l", [
    (vf.make_gaussian_frame(64, 32, seed=(61,)), 2),
    (roots_frame(64, 128), 1),
], ids=["gram", "real-symmetric"])
def test_block_weights_are_real_and_bounded_past_n_4l(frame, l, monkeypatch):
    # A block holds 2**20 // (4*N*max(N, 4L)) supports, so its Gram weights
    # (N*N floats a support) take at most 2 MiB: 256 supports of Gaussian
    # (32, 64) at L = 2.  Real-symmetric weights take N(N+1)/2 floats a
    # support, and an orbit block holds up to twice that many supports:
    # roots (64, 128) at L = 1 is two blocks of 64 shifts of {0}, where one
    # block of all 128 shifts took 2080 * 128 * 8 bytes, over 2 MiB.
    weights = []
    energies = montecarlo._chunk_energies
    monkeypatch.setattr(montecarlo, "_chunk_energies",
                        lambda xs, w, out: weights.append(w) or energies(xs, w, out))
    vf.smdd_residuals(frame, vf.sample_sphere_batch(frame.n, 3, seed=(61, frame.n)), l)
    assert weights
    for w in weights:
        assert w.dtype == float and w.nbytes <= 2 * 2**20


def test_small_blocks_write_sample_contiguous_energies():
    # roots(6, 12) at L = 3 scores one orbit block of fewer supports than
    # the 5,000 samples, in two GEMMs of 2**20 // B rows.  Each writes its
    # energies as (supports, samples) into the one buffer and hands out the
    # transpose, so a sample's energies are a strided row; they equal the
    # (samples, supports) GEMM within an ulp or so.
    frame, l = roots_frame(6, 12), 3
    X = vf.sample_sphere_batch(6, 5000, seed=(32, 1))
    steps = [(rows, energy, energy.copy())
             for rows, _, energy in montecarlo._energies(frame, montecarlo._lift(frame, X), l)]
    assert len(steps) == 2 and np.shares_memory(steps[0][1], steps[1][1])
    pairs = np.triu_indices(6, 1)
    (_, weights), = montecarlo._orbit_blocks(
        frame.matrix, *montecarlo._orbit_representatives(12, l), 2**20, pairs)
    lifted = montecarlo._real_features(X)
    assert sum(len(X[rows]) for rows, _, _ in steps) == len(X)
    for rows, view, energy in steps:
        assert energy.shape[1] == weights.shape[1] < len(X[rows])
        assert view.strides[0] == 8
        np.testing.assert_allclose(energy, lifted[rows] @ weights, rtol=0, atol=2e-15)


@pytest.mark.parametrize("m,n", [(9, 3), (12, 10)])
@pytest.mark.parametrize("kind", ["gaussian", "duplicated"])
def test_support_energies_match_projection_residual(m, n, kind, monkeypatch):
    # A Gaussian frame scores Gram weights at every L, so each search lifts
    # the batch once.
    frame = vf.make_gaussian_frame(m, n, seed=(41, m)) if kind == "gaussian" else dup_rows_frame(m, n, 43)
    X = vf.sample_sphere_batch(n, 3, seed=(45, m)) * np.array([[1.0], [0.5], [3.0]])
    lifts = spy_lifts(monkeypatch)
    for l in (1, 2, 3):
        lifts.clear()
        blocks = energy_blocks(frame, X, l)
        assert lifts == [("gram", len(X))]
        assert all(len(X[rows]) == len(X) for rows, _, _ in blocks)
        energies = np.concatenate([energy for _, _, energy in blocks], axis=1)
        supports = [list(s) for s in itertools.combinations(range(m), l)]
        assert block_supports(blocks).tolist() == supports
        assert energies.shape == (len(X), math.comb(m, l))
        for x, energy in zip(X, energies):
            norm = float(np.vdot(x, x).real)
            direct = [vf.projection_residual(frame.matrix[s], x) for s in supports]
            np.testing.assert_allclose(np.maximum(norm - energy, 0.0), direct, rtol=0, atol=1e-12)


def test_kernel_matches_stacked_reference_on_mc_enum_cell(monkeypatch):
    # Values of the complex stacked-basis kernel (one SVD per support, the
    # only kernel before the Gram weights) on the N=8, M=32, L=4 cell, for
    # the block stream (1, 1) that the estimate draws.
    frame = roots_frame(8, 32)
    X = vf.sample_sphere_batch(8, 1000, seed=(1, 1))
    lifts = spy_lifts(monkeypatch)
    res = vf.smdd_residuals(frame, X, 4)
    assert lifts == [("real", 1000)]
    reference = [float.fromhex(h) for h in (
        "0x1.37c398a451440p-5", "0x1.212ecc13d7340p-6", "0x1.8c0dbe21174d8p-4",
        "0x1.325d6e3f60a50p-4", "0x1.228034d27a4c0p-4", "0x1.7a5f4e8eaa8d0p-5")]
    np.testing.assert_allclose(res[:6], reference, rtol=0, atol=2e-15)
    np.testing.assert_allclose(res[[270, 999]], [0.05343325395646059, 0.010298947830877037],
                               rtol=0, atol=2e-15)
    assert abs(float(res.mean()) - 0.0691724900575891) <= 1e-15
    est = vf.estimate_distortion(frame, 4, 1000, seed=(1, 1))
    assert abs(est.mean - 0.06917249005758919) <= 1e-15
    expected = [
        ((11, 20, 21, 24), 0.03805713475097905),
        ((1, 8, 15, 29), 0.01765031747287371),
        ((4, 11, 24, 28), 0.0966927935528078),
        ((6, 14, 16, 28), 0.07479613366562288),
        ((7, 14, 28, 32), 0.07092304834044949),
    ]
    for x, (support, residual_sq) in zip(X, expected):
        got = vf.smdd_exact(frame, x, 4)
        assert got.support == support and not got.ties_broken
        assert abs(got.residual_sq - residual_sq) <= 2e-15


def brute_force_orbits(m, l):
    """(dihedral, rotation) orbit counts of the size-l subsets of range(m),
    walked support by support."""
    seen, dihedral, rotation = set(), 0, 0
    for support in itertools.combinations(range(m), l):
        if support not in seen:
            shifted = {tuple(sorted((j + s) % m for j in support)) for s in range(m)}
            mirrored = {tuple(sorted((s - j) % m for j in support)) for s in range(m)}
            seen |= shifted | mirrored
            dihedral += 1
            rotation += 1 if shifted == mirrored else 2
    return dihedral, rotation


@pytest.mark.parametrize("m,l,orbits", [(8, 4, 10), (12, 1, 1), (12, 6, 80), (32, 4, 1128)])
def test_orbit_representatives_cover_every_support_once(m, l, orbits):
    # orbits counts rotation orbits: one per representative, two per flipped
    # one (its own and its reflection's).  There is one representative per
    # dihedral orbit.
    dihedral = {(8, 4): 8, (12, 1): 1, (12, 6): 50, (32, 4): 624}[m, l]
    assert brute_force_orbits(m, l) == (dihedral, orbits)
    reps, flip = montecarlo._orbit_representatives(m, l)
    assert reps.shape == (dihedral, l) and flip.shape == (dihedral,)
    assert dihedral + int(flip.sum()) == orbits
    assert reps.tolist() == sorted(reps.tolist())
    covered = set()
    for rep, flipped in zip(reps.tolist(), flip.tolist()):
        shifted = {tuple(sorted((j + s) % m for j in rep)) for s in range(m)}
        mirrored = {tuple(sorted((s - j) % m for j in rep)) for s in range(m)}
        assert min(shifted | mirrored) == tuple(rep)   # its own smallest shift or reflection
        assert flipped == (shifted != mirrored)
        for orbit in [shifted, mirrored] if flipped else [shifted]:
            assert not orbit & covered                 # in no other orbit scored
            covered |= orbit
    assert covered == set(itertools.combinations(range(m), l))
    if (m, l) == (8, 4):
        assert [0, 2, 4, 6] in reps.tolist()     # a support of stabilizer {0, 2, 4, 6}


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_lifts_write_the_gathered_pairs_bit_for_bit(n):
    # The lifts fill the pairs a < b one a at a time; the reference gathers
    # them all in np.triu_indices order, with the same products and sums.
    X = vf.sample_sphere_batch(n, 50, seed=(57, n))[::2]
    a, b = np.triu_indices(n, 1)
    cross = 2.0 * (X[:, a].conj() * X[:, b])
    gram = np.concatenate([X.real**2 + X.imag**2, cross.real, cross.imag], axis=1)
    y = X + 1j * X[:, ::-1]
    real = np.concatenate([0.5 * (y.real**2 + y.imag**2),
                           y.real[:, a] * y.real[:, b] + y.imag[:, a] * y.imag[:, b]], axis=1)
    assert np.array_equal(montecarlo._gram_features(X), gram)
    assert np.array_equal(montecarlo._real_features(X), real)


@pytest.mark.parametrize("n", [5, 8])
def test_real_symmetric_form_holds_on_unit_nodes_alone(n):
    # For nodes on the unit circle J G J = conj(G), so with y = x + i Jx,
    # x^H G x = (a^T H a + b^T H b) / 2, a = Re y, b = Im y, H_ij =
    # Re G_ij - Im G_(N-1-i)j real and symmetric.  Off the circle it fails,
    # which is why the form is kept to the roots-of-unity frame.
    rng = np.random.default_rng((53, n))
    pairs = np.triu_indices(n, 1)
    i, j = (np.concatenate([np.arange(n), p]) for p in pairs)
    X = vf.sample_sphere_batch(n, 200, seed=(53, n))
    for radius in (1.0, rng.uniform(0.5, 2.0, n)):
        # A random support of three unit (or scaled) nodes.
        frame = vf.make_vandermonde_frame(radius * np.exp(2j * np.pi * rng.random(n)), n)
        v = montecarlo._bases(frame.matrix[None, :3])[0]
        g = v.conj().T @ v
        h = g.real - g.imag[::-1]
        real = montecarlo._real_features(X) @ h[i, j]
        hermitian = np.einsum("sa,ab,sb->s", X.conj(), g, X).real
        if np.isscalar(radius):
            np.testing.assert_allclose(h, h.T, rtol=0, atol=1e-15)
            np.testing.assert_allclose(real, hermitian, rtol=0, atol=1e-15)
        else:
            assert np.abs(h - h.T).max() > 1e-3
            assert np.abs(real - hermitian).max() > 1e-3


@pytest.mark.parametrize("n,m,weights", [(6, 12, (1, 2, 3, 4)), (8, 16, (1, 2, 3, 4)),
                                         (12, 24, (1, 2))])
def test_orbit_energies_match_projection_residual(n, m, weights, monkeypatch):
    # A roots-of-unity frame scores real-symmetric weights at every L.
    frame = roots_frame(n, m)
    X = vf.sample_sphere_batch(n, 3, seed=(47, m)) * np.array([[1.0], [0.5], [3.0]])
    lifts = spy_lifts(monkeypatch)
    svd_calls = spy_bases(monkeypatch)
    for l in weights:
        lifts.clear()
        svd_calls.clear()
        blocks = energy_blocks(frame, X, l)
        reps, flip = montecarlo._orbit_representatives(m, l)
        assert sum(svd_calls) == len(reps)
        assert lifts == [("real", len(X))]
        assert all(len(X[rows]) == len(X) for rows, _, _ in blocks)
        supports = block_supports(blocks)
        assert len(supports) == m * (len(reps) + int(flip.sum()))
        energies = np.concatenate([energy for _, _, energy in blocks], axis=1)
        assert {tuple(s) for s in supports.tolist()} == set(itertools.combinations(range(m), l))
        norms = np.einsum("sn,sn->s", X, X.conj()).real
        direct = {}
        for support, energy in zip(supports.tolist(), energies.T):
            key = tuple(support)
            if key not in direct:
                direct[key] = [vf.projection_residual(frame.matrix[support], x) for x in X]
            np.testing.assert_allclose(np.maximum(norms - energy, 0.0), direct[key], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,m,l,support,residual_sq", [
    (4, 8, 2, (1, 2), 0.3458046856729622),
    (6, 12, 3, (1, 2, 3), 0.2326101735826791),
    (8, 32, 4, (1, 2, 3, 4), 0.116347560409652),
])
def test_rotation_ties_break_as_the_full_search_does(n, m, l, support, residual_sq, monkeypatch):
    # x = e_0 is fixed by every shift's phases, so each shift of a support
    # ties with it; the values are those of the search over every support.
    x = np.eye(n, dtype=complex)[0]
    calls = spy_bases(monkeypatch)
    got = vf.smdd_exact(roots_frame(n, m), x, l)
    assert sum(calls) < math.comb(m, l)
    assert got.support == support and got.ties_broken
    assert abs(got.residual_sq - residual_sq) <= 1e-15


def test_orbit_ties_break_toward_the_lexicographically_smallest_support():
    # x lies in the spans of rows {1, 6} and of rows {2, 3} (1-based) of
    # roots(3, 8), so both fit it exactly.  The orbit blocks score {2, 3}
    # (shift 1 of {1, 2}) before {1, 6} (shift 5 of {1, 4}); the tie still
    # goes to {1, 6}, as in the lexicographic search.
    frame = roots_frame(3, 8)
    null = vf.null_vector_on_support(frame, [1, 2, 3, 6])
    x = null.values[[0, 3]] @ frame.matrix[[0, 5]]
    got = vf.smdd_exact(frame, x, 2)
    assert got.support == (1, 6) and got.ties_broken
    assert got.residual_sq <= 1e-12


def test_orbit_search_svds_only_the_representatives(monkeypatch):
    # The mc-enum cell: R = 624 dihedral representatives against C(32, 4) =
    # 35960 supports, no winner re-scored, and the 1000 rows lifted once.
    frame = roots_frame(8, 32)
    X = vf.sample_sphere_batch(8, 1000, seed=(1, 2))
    calls = spy_bases(monkeypatch)
    lifts = spy_lifts(monkeypatch)
    vf.smdd_residuals(frame, X, 4)
    assert sum(calls) == 624
    assert lifts == [("real", 1000)]
    calls.clear()
    lifts.clear()
    vf.smdd_exact(frame, X[0], 4)
    assert sum(calls) == 624
    assert lifts == [("real", 1)]


@pytest.mark.parametrize("frame,l,samples,rotated", [
    (vf.make_gaussian_frame(16, 6, seed=3), 3, 5, False),
    (vf.make_vandermonde_frame(vf.default_nodes(12) * 1j, 6), 2, 5, False),
    (roots_frame(6, 12), 2, 66, True),      # S >= C(12, 2)
    (roots_frame(6, 12), 2, 60, True),      # S + R = C(12, 2) with R = 6 orbits
    (roots_frame(6, 12), 2, 59, True),
    (roots_frame(4, 8), 4, 2, True),        # L = N: every support spans and ties
], ids=["gaussian", "other-nodes", "S>=C", "S+R=C", "S+R<C", "L=N"])
def test_orbit_path_runs_only_where_it_svds_fewer_supports(frame, l, samples, rotated, monkeypatch):
    # The frame's nodes alone choose the path, whatever L and the batch
    # size.  At L = N neither search SVDs a support: the residuals are exact
    # zeros, and on a Vandermonde frame every support spans, so smdd_exact
    # answers (1, ..., N).
    X = vf.sample_sphere_batch(frame.n, samples, seed=(19, samples))
    calls = spy_bases(monkeypatch)
    expected = len(montecarlo._orbit_representatives(frame.m, l)[0]) if rotated else math.comb(frame.m, l)
    residuals = vf.smdd_residuals(frame, X, l)
    if l == frame.n:
        assert sum(calls) == 0 and residuals.tobytes() == np.zeros(samples).tobytes()
        assert vf.smdd_exact(frame, X[0], l) == vf.SmddResult(tuple(range(1, l + 1)), 0.0, True)
        assert sum(calls) == 0
        return
    assert sum(calls) == expected
    calls.clear()
    vf.smdd_exact(frame, X[0], l)
    assert sum(calls) == expected


def test_ties_across_support_blocks(monkeypatch):
    # Blocks of 4 supports instead of 2**20 // (4N*max(N, 4L)), so each pair
    # of tied supports below falls in two blocks.  {1} (residual ~2.5e-13, block 0)
    # is within TIE_TOL of {6} (exactly 0, block 1) and must win; {1,4}
    # (index 2, block 0) and {2,3} (index 4, block 1) both fit exactly.
    cases = [
        (vf.make_general_frame([[1, 5e-7], [0, 1], [1, 1], [1, -1], [1, 1j], [1, 0]]),
         np.array([1.0, 0.0]), 1, (1,)),
        (vf.make_general_frame([[1, 0, 0], [1, 0, 1], [0, 1, -1], [0, 1, 0], [0, 0, 1]]),
         np.array([1.0, 1.0, 0.0]) / math.sqrt(2), 2, (1, 4)),
    ]
    unpatched = [vf.smdd_residuals(frame, x[None, :], l) for frame, x, l, _ in cases]
    blocks = montecarlo.support_blocks
    monkeypatch.setattr(montecarlo, "support_blocks", lambda m, l, size: blocks(m, l, 4))
    for (frame, x, l, support), residuals in zip(cases, unpatched):
        got = vf.smdd_exact(frame, x, l)
        assert got.support == support and got.ties_broken
        assert got.residual_sq <= 1e-12
        assert vf.smdd_residuals(frame, x[None, :], l).tobytes() == residuals.tobytes()


def test_support_blocks_enumerate_lexicographically():
    for m, l, size in [(5, 2, 4), (7, 3, 1), (7, 3, 35), (7, 3, 100), (6, 6, 2)]:
        got = np.concatenate(list(frames.support_blocks(m, l, size)))
        assert got.tolist() == [list(s) for s in itertools.combinations(range(m), l)]


def test_exact_search_memory_does_not_grow_with_supports():
    # N=8, L=3 scores blocks of 2**20 // (4*8*12) = 2730 supports; C(64, 3)
    # = 41664 and C(80, 3) = 82160 span 16 and 31 of them.  A whole Gram
    # table would take N^2 * C(M, 3) * 8 bytes: 21 MB and 42 MB.  Roots
    # frames take the orbit path, with blocks of 2730 // M representatives
    # times M shifts.
    assert_flat_peak(roots_frame)


def test_full_search_memory_does_not_grow_with_supports():
    # As above on Gaussian frames, which score every support's own SVD.
    assert_flat_peak(lambda n, m: vf.make_gaussian_frame(m, n, seed=(17, m)))


def assert_flat_peak(make_frame):
    X = vf.sample_sphere_batch(8, 20, seed=16)
    peaks = []
    for m in (64, 80):
        frame = make_frame(8, m)
        tracemalloc.start()
        try:
            vf.smdd_residuals(frame, X, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    growth = 64 * (math.comb(80, 3) - math.comb(64, 3)) * 8
    assert peaks[1] - peaks[0] < growth // 10


def test_exact_search_keeps_one_chunk_of_energies_at_a_time():
    # A GEMM makes at most montecarlo._GEMM_ENERGIES = 2**20 energies (8 MiB
    # here), all into one buffer, and each chunk is reduced before the next
    # is scored, so the peak stays under two.  The bound is a number, not
    # the constant, so that raising the constant fails here.
    frame = roots_frame(8, 32)
    X = vf.sample_sphere_batch(8, 1000, seed=(1, 3))
    tracemalloc.start()
    try:
        vf.smdd_residuals(frame, X, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20 * 8


def test_a_search_over_lift_pieces_holds_one_gemm_buffer(monkeypatch):
    # At roots (64, 128, 1) a lift piece is 252 rows, so 1,000 samples are
    # searched in four pieces, each with its own GEMM buffer.  A piece's
    # buffer is gone before the next piece scores into its own.
    buffers = []
    energies = montecarlo._chunk_energies

    def spy(xs, weights, out):
        if not buffers or buffers[-1]() is not out:
            assert all(ref() is None for ref in buffers)
            buffers.append(weakref.ref(out))
        return energies(xs, weights, out)

    monkeypatch.setattr(montecarlo, "_chunk_energies", spy)
    vf.estimate_distortion(roots_frame(64, 128), 1, 1000, seed=(64, 1))
    assert len(buffers) == 4


def test_exact_search_lifts_a_batch_one_chunk_at_a_time(monkeypatch):
    # roots(8, 12) at L = 2 scores real-symmetric weights, whose lift takes
    # 36 floats (288 bytes) a row: 200,000 rows lifted at once would take
    # 57.6 MB.  smdd_residuals lifts 14 sample blocks (14,336 rows, 4.1 MB)
    # at a time and scores every block of supports against them.  The
    # bound is a number, not the constant.
    frame = roots_frame(8, 12)
    X = vf.sample_sphere_batch(8, 200_000, seed=(1, 4))
    lifts = spy_lifts(monkeypatch)
    tracemalloc.start()
    try:
        vf.smdd_residuals(frame, X, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 10**6
    assert lifts == [("real", 14 * BLOCK)] * 13 + [("real", 200_000 - 13 * 14 * BLOCK)]


@pytest.mark.parametrize("frame", [
    roots_frame(128, 512),
    vf.make_gaussian_frame(512, 128, seed=9),
], ids=["real-symmetric", "gram"])
def test_large_n_search_lifts_rows_and_builds_weights_a_slice_at_a_time(frame, monkeypatch):
    # At N = 128 one sample block's lift would take 68 MB (real-symmetric)
    # or 134 MB (Gram), and the 512 shifts of {0} at L = 1 as one orbit
    # block 34 MB of weights and 135 MB of rotations.  The search lifts
    # the most rows whose lift fits 4 MiB (63 and 32) and scores blocks of
    # 16 supports, so an estimate's traced peak stays under 40 MB.
    rows = 63 if montecarlo._orbit_path(frame) else 32
    assert montecarlo._chunk_rows(frame) == rows
    lifts = spy_lifts(monkeypatch)
    tracemalloc.start()
    try:
        est = vf.estimate_distortion(frame, 1, 2 * rows + 1, seed=(9, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 10**6
    assert [n for _, n in lifts] == [rows, rows, 1]
    X = vf.sample_sphere_batch(128, 2 * rows + 1, seed=(9, 1))
    res = [vf.projection_residual(frame.matrix[[k]], X[-1]) for k in range(512)]
    assert est.ratios[-1] == pytest.approx(min(res), rel=0, abs=1e-12)


def test_squared_norms_take_no_copy_of_the_batch():
    # 200,000 rows at N = 8 are 25.6 MB; the norms read the real and
    # imaginary parts as views, and a row's norm is the same whether taken
    # with the batch or alone.
    frame = roots_frame(8, 12)
    X = vf.sample_sphere_batch(8, 200_000, seed=(1, 4))
    tracemalloc.start()
    try:
        _, norms = montecarlo._signals(frame, X, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 10**6
    for i in (0, 1, 99_999, 199_999):
        assert norms[i] == montecarlo._signals(frame, X[i:i + 1], 2)[1][0]
    np.testing.assert_allclose(norms, np.einsum("sn,sn->s", X, X.conj()).real, rtol=1e-15)


def test_tied_supports_on_a_general_frame_take_no_memory_per_support():
    # At L = N every support of a Gaussian (8, 20) frame fits x, so all
    # C(20, 8) = 125,970 tie.  The search keeps only the supports that no
    # lexicographically smaller one matches or beats, and the smallest
    # residual of the others: keeping every tie until the end peaked at
    # 44 MB here.  The 8 MiB energy buffer is most of what is left.
    frame = vf.make_gaussian_frame(20, 8, seed=(1,))
    x = vf.sample_sphere_batch(8, 1, (2,))[0]
    tracemalloc.start()
    try:
        got = vf.smdd_exact(frame, x, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.support == tuple(range(1, 9)) and got.ties_broken
    assert got.residual_sq <= 1e-14
    assert peak < 20 * 10**6


def test_exact_search_keeps_no_support_table():
    # every call scores its supports block by block (a whole Gram table
    # would take N^2 * C(M, L) * 8 = 583 kB here) and keeps none of them;
    # bds_decode bisects through L = 3, 1 and 2
    x = vf.sample_sphere_batch(6, 1, seed=14)[0]
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
    x = vf.sample_sphere_batch(3, 1, seed=8)[0]
    l, res = vf.bds_decode(frame, x, 1.0)
    assert l == 0 and res.support == ()


def test_bds_delta_zero_generic():
    frame = roots_frame(3, 6)
    x = vf.sample_sphere_batch(3, 2, seed=8)[1]
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
    for i, x in enumerate(vf.sample_sphere_batch(4, 8, seed=9)):
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
    for x in vf.sample_sphere_batch(4, 8, seed=9):
        scan = next(l for l in range(0, 5) if vf.smdd_exact(frame, x, l).residual_sq <= 0.5 + 1e-12)
        assert scan <= 2
        l, res = vf.bds_decode(frame, x, 0.5, budget=math.comb(8, 2))
        assert l == scan
        assert res == vf.smdd_exact(frame, x, l)


def test_bds_domain():
    frame = roots_frame(2, 4)
    with pytest.raises(DomainError):
        vf.bds_decode(frame, np.zeros(2), 1.5)


@pytest.mark.parametrize("scale", [1e-7, 1e-14, 1e-150, 1e150])
def test_searches_do_not_depend_on_the_signal_scale(scale):
    # Tie and stopping thresholds are relative to ||x||^2: with absolute
    # ones every support tied once ||x||^2 fell to about 1e-12, and the
    # greedy search stopped before its first pick.
    frame = vf.make_vandermonde_frame(vf.default_nodes(16), 6)
    x = vf.sample_sphere_batch(6, 1, 3)[0]
    # At scale 1: (2, 3, 8) untied, greedy (1, 3, 7), and L = 3 for delta 0.2.
    scaled = vf.smdd_exact(frame, scale * x, 3)
    assert (scaled.support, scaled.ties_broken) == ((2, 3, 8), False)
    assert scaled.residual_sq / scale**2 == pytest.approx(vf.smdd_exact(frame, x, 3).residual_sq,
                                                          rel=1e-12)
    assert vf.smdd_greedy(frame, scale * x, 3).support == (1, 3, 7)
    l, found = vf.bds_decode(frame, scale * x, 0.2)
    assert (l, found.support) == (3, (2, 3, 8))


# -- distortion estimation ----------------------------------------------------------

def test_estimate_l0_exact_one():
    frame = roots_frame(4, 8)
    est = vf.estimate_distortion(frame, 0, 500, seed=11)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_estimate_ln_zero(monkeypatch):
    # At L = N, and past it, no sample is drawn or support scored: every
    # ratio is exactly 0.
    monkeypatch.setattr(montecarlo, "sample_sphere_batch", None)
    calls = spy_bases(monkeypatch)
    for n, m, l in [(4, 8, 4), (3, 12, 5)]:
        est = vf.estimate_distortion(roots_frame(n, m), l, 300, seed=11)
        assert (est.mean, est.stderr, est.n_samples) == (0.0, 0.0, 300)
        assert est.ratios.tobytes() == np.zeros(300).tobytes()
    assert calls == []


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
    ratios = vf.smdd_residuals(frame, X, l) / vf.smdd_residuals(frame, X, 0)
    if l == 0:
        assert est.ratios.tobytes() == np.ones(50).tobytes()
    elif l == 4:
        assert est.ratios.tobytes() == np.zeros(50).tobytes()
    assert est.ratios.tobytes() == ratios.tobytes()
    assert est.mean == float(ratios.mean())


def test_estimate_checks_before_drawing(monkeypatch):
    monkeypatch.setattr(montecarlo, "sample_sphere_batch", None)
    frame = roots_frame(4, 24)
    with pytest.raises(BudgetExceeded):
        vf.estimate_distortion(frame, 3, 10, seed=1, budget=1000)
    with pytest.raises(DomainError):
        vf.estimate_distortion(frame, 25, 10, seed=1)
    with pytest.raises(DomainError):
        vf.estimate_distortion(frame, 1, 0, seed=1)
    assert vf.estimate_distortion(frame, 0, 10, seed=1).mean == 1.0


@pytest.mark.parametrize("seed,recorded", [
    (7, 7), (((3, 2**40), 5), (3, 2**40, 5)), (np.array([3, 9]), (3, 9)), (range(4, 7), (4, 5, 6)),
], ids=["int", "nested-tuple", "ndarray", "range"])
@pytest.mark.parametrize("l", [0, 2, 4])
def test_every_seed_form_reads_one_stream(seed, recorded, l):
    # One reading of a seed serves the sampler and the estimate: an int is
    # recorded as an int, any sequence as the flat tuple of its ints, whose
    # stream is the same.
    frame = roots_frame(4, 8)
    est = vf.estimate_distortion(frame, l, 30, seed)
    again = vf.estimate_distortion(frame, l, 30, recorded)
    assert est == again and est.ratios.tobytes() == again.ratios.tobytes()
    assert type(est.config.seed) is type(recorded) and est.config.seed == recorded
    X = vf.sample_sphere_batch(4, 30, seed)
    assert X.tobytes() == vf.sample_sphere_batch(4, 30, recorded).tobytes()


@pytest.mark.parametrize("seed,error", [(-1, ValueError), ((5, (1, -2)), ValueError),
                                        (1.5, TypeError), (np.array([0.5]), TypeError),
                                        ("7", TypeError)])
def test_estimates_refuse_a_seed_before_drawing_or_scoring(seed, error, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("drew or scored before reading the seed")

    monkeypatch.setattr(montecarlo, "sample_sphere_batch", unreachable)
    monkeypatch.setattr(montecarlo, "smdd_residuals", unreachable)
    monkeypatch.setattr(montecarlo, "_residuals", unreachable)
    frame = roots_frame(4, 8)
    for l in (0, 2, 4):
        with pytest.raises(error):
            vf.estimate_distortion(frame, l, 10, seed)


@pytest.mark.parametrize("n,m", [(4, 8), (6, 12), (8, 32)])
def test_searches_take_one_squared_norm(n, m):
    # smdd_exact, smdd_greedy and bds_decode report at L = 0 the squared norm
    # smdd_residuals and the estimates divide by, bit for bit.
    frame = roots_frame(n, m)
    X = vf.sample_sphere_batch(n, 300, seed=(23, n))
    norms = vf.smdd_residuals(frame, X, 0)
    for x, norm in zip(X, norms.tolist()):
        assert vf.smdd_exact(frame, x, 0).residual_sq == norm
        assert vf.smdd_residuals(frame, x[None], 0)[0] == norm
        assert vf.smdd_greedy(frame, x, 0).residual_sq == norm
        assert vf.bds_decode(frame, x, 1.0)[1].residual_sq == norm


def test_budget_is_refused_in_one_message():
    frame = roots_frame(4, 8)
    X = vf.sample_sphere_batch(4, 3, seed=1)
    with pytest.raises(BudgetExceeded, match=re.escape("C(8,4) = 70 exceeds budget 69")):
        vf.check_condition_I(frame, budget=69)
    message = re.escape("C(8,3) = 56 exceeds budget 55")
    with pytest.raises(BudgetExceeded, match=message):
        vf.smdd_residuals(frame, X, 3, budget=55)
    with pytest.raises(BudgetExceeded, match=message):
        vf.estimate_distortion(frame, 3, 3, seed=1, budget=55)
    with pytest.raises(BudgetExceeded, match=message):
        vf.smdd_exact(frame, X[0], 3, budget=55)


def test_search_at_or_past_n_is_not_charged_to_the_budget():
    # No support is scored at L >= N, so C(M, L) is not counted there: the
    # residuals are exact zeros and the estimate is exact, never the greedy
    # fallback.  On a Vandermonde frame every support spans, so smdd_exact
    # and bds_decode answer (1, ..., L) without a search; on a general frame
    # they enumerate, so they still count.
    frame, general = roots_frame(3, 9), vf.make_gaussian_frame(9, 3, seed=2)
    X = vf.sample_sphere_batch(3, 5, seed=2)
    for l in (3, 4):
        budget = math.comb(9, l) - 1
        assert vf.smdd_residuals(frame, X, l, budget=budget).tobytes() == np.zeros(5).tobytes()
        for greedy in (False, True):
            est = vf.estimate_distortion(frame, l, 5, seed=2, budget=budget,
                                         fallback_greedy=greedy)
            assert not est.approximate and est.ratios.tobytes() == np.zeros(5).tobytes()
        expected = vf.SmddResult(tuple(range(1, l + 1)), 0.0, True)
        assert vf.smdd_exact(frame, X[0], l, budget=budget) == expected
        assert vf.smdd_residuals(general, X, l, budget=budget).tobytes() == np.zeros(5).tobytes()
        with pytest.raises(BudgetExceeded):
            vf.smdd_exact(general, X[0], l, budget=budget)
    expected = vf.SmddResult((1, 2, 3), 0.0, True)
    assert vf.bds_decode(frame, X[0], 0.0, budget=math.comb(9, 3) - 1) == (3, expected)
    with pytest.raises(BudgetExceeded):
        vf.bds_decode(general, X[0], 0.0, budget=math.comb(9, 3) - 1)


def test_estimate_agrees_with_per_sample_smdd():
    frame = roots_frame(4, 8)
    est = vf.estimate_distortion(frame, 2, 40, seed=5)
    X = vf.sample_sphere_batch(4, 40, seed=5)
    ratios = []
    for x in X:
        res = vf.smdd_exact(frame, x, 2)
        ratios.append(res.residual_sq / float(np.vdot(x, x).real))
    assert est.mean == pytest.approx(float(np.mean(ratios)), abs=1e-15)
    residuals = [vf.smdd_exact(frame, x, 2).residual_sq for x in X]
    np.testing.assert_allclose(vf.smdd_residuals(frame, X, 2), residuals, rtol=0, atol=1e-15)
    np.testing.assert_allclose(vf.smdd_residuals(frame, X, 0), 1.0, rtol=0, atol=1e-15)


def spy_draws(monkeypatch):
    """Record the arguments of every sample_sphere_batch call."""
    draws = []
    batch = montecarlo.sample_sphere_batch
    monkeypatch.setattr(montecarlo, "sample_sphere_batch",
                        lambda *a, **k: draws.append(a) or batch(*a, **k))
    return draws


@pytest.mark.parametrize("greedy", [False, True], ids=["exact", "greedy"])
def test_estimate_is_the_same_in_chunks_of_one_block(greedy, monkeypatch):
    # Chunks hold whole blocks: 16 * 2**18 // (1024 * 80) = 51 of 80-byte
    # lifted rows at N = 4, so 3,089 samples are one draw; patched down to
    # one block they are four.  The
    # greedy fallback (C(8, 2) = 28 over the budget) runs per chunk too.
    frame, n_samples = roots_frame(4, 8), 3 * BLOCK + 17
    budget = 3 if greedy else montecarlo.DEFAULT_BUDGET
    draws = spy_draws(monkeypatch)
    whole = vf.estimate_distortion(frame, 2, n_samples, (4, 4), budget, fallback_greedy=greedy)
    assert draws == [(4, n_samples, (4, 4), 0)]
    draws.clear()
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", BLOCK * 4)
    chunked = vf.estimate_distortion(frame, 2, n_samples, (4, 4), budget, fallback_greedy=greedy)
    assert draws == [(4, BLOCK, (4, 4), 0), (4, BLOCK, (4, 4), BLOCK),
                     (4, BLOCK, (4, 4), 2 * BLOCK), (4, 17, (4, 4), 3 * BLOCK)]
    assert chunked.approximate == whole.approximate == greedy
    assert chunked.mean == whole.mean and chunked.stderr == whole.stderr
    np.testing.assert_allclose(chunked.ratios, whole.ratios, rtol=0, atol=1e-15)


@pytest.mark.parametrize("frame,l,blocks", [
    (roots_frame(8, 12), 2, 14),
    (vf.make_gaussian_frame(12, 8, seed=5), 2, 8),
], ids=["real-symmetric", "gram"])
def test_estimate_chunk_of_lifted_rows_is_the_whole_blocks_that_fit(frame, l, blocks, monkeypatch):
    # At N = 8 the 4 MiB of 2**18 complex entries hold 14 blocks of rows
    # lifted for real-symmetric weights (36 floats a row, roots frames) and
    # 8 lifted for Gram weights (64 floats a row, other frames).  Each chunk
    # is lifted once.
    draws = spy_draws(monkeypatch)
    lifts = spy_lifts(monkeypatch)
    vf.estimate_distortion(frame, l, blocks * BLOCK + 1, seed=3)
    assert draws == [(8, blocks * BLOCK, 3, 0), (8, 1, 3, blocks * BLOCK)]
    assert [rows for _, rows in lifts] == [blocks * BLOCK, 1]


@pytest.mark.parametrize("n,m,l,budget,chunks", [
    (4, 8, 2, montecarlo.DEFAULT_BUDGET, [(4, 300, 5, 0)]),
    (4, 8, 2, 3, [(4, 300, 5, 0)]),
    (64, 64, 1, montecarlo.DEFAULT_BUDGET, [(64, BLOCK, 5, 0), (64, 1, 5, BLOCK)]),
], ids=["orbit", "greedy", "two-chunks"])
def test_estimates_over_frames_of_one_n_are_each_cells_own(n, m, l, budget, chunks, monkeypatch):
    # vframe sweep estimates the cells of one N, over every M, in one pass:
    # each chunk is drawn once for all of them, and each cell's estimate is
    # byte for byte its estimate_distortion.
    frames_of_n = [roots_frame(n, m), roots_frame(n, 2 * m)]
    n_samples = sum(rows for _, rows, _, _ in chunks)
    greedy = budget < math.comb(m, l)
    cells = [(frame, weight) for frame in frames_of_n for weight in (l, 0, n)]
    defaults = [vf.estimate_distortion(frame, weight, n_samples, 5, budget,
                                       fallback_greedy=greedy) for frame, weight in cells]
    draws = spy_draws(monkeypatch)
    ests = montecarlo._estimates(cells, n_samples, 5, budget, greedy)
    assert draws == chunks
    for est, default in zip(ests, defaults, strict=True):
        assert est == default and est.approximate == (greedy and 0 < est.config.l < n)
        assert est.ratios.tobytes() == default.ratios.tobytes()
    # No sample is read at L = 0 or L >= N.
    monkeypatch.setattr(montecarlo, "sample_sphere_batch", None)
    montecarlo._estimates([(frame, weight) for frame in frames_of_n for weight in (0, n, n + 1)
                           if weight <= frame.m], n_samples, 5, budget, greedy)


def test_a_pass_that_mixes_exact_and_greedy_cells_gives_each_cells_own_estimate():
    # Under a budget of 100, L = 1 (C(12, 1) = 12) is searched exactly and
    # L = 3 (C(12, 3) = 220) greedily, in the same pass as L = 0 and L = N.
    frame = roots_frame(6, 12)
    cells = [(frame, l) for l in (0, 1, 3, 6)]
    ests = montecarlo._estimates(cells, 300, 9, 100, fallback_greedy=True)
    assert [est.approximate for est in ests] == [False, False, True, False]
    for est, (_, l) in zip(ests, cells, strict=True):
        own = vf.estimate_distortion(frame, l, 300, 9, 100, fallback_greedy=True)
        assert (est.mean, est.stderr, est.approximate) == (own.mean, own.stderr, own.approximate)
        assert est.ratios.tobytes() == own.ratios.tobytes()


def test_a_pass_lifts_each_piece_once_for_all_its_cells(monkeypatch):
    # At roots (32, 64) a lift piece is 992 rows, less than a sample block,
    # so a chunk of 1,024 samples is lifted in two pieces, each once for
    # the cells at L = 1 and 2, where a lift per cell would take four.
    frame = roots_frame(32, 64)
    cells = [(frame, 1), (frame, 2)]
    defaults = [vf.estimate_distortion(frame, l, BLOCK, 6) for _, l in cells]
    lifts = spy_lifts(monkeypatch)
    ests = montecarlo._estimates(cells, BLOCK, 6, montecarlo.DEFAULT_BUDGET)
    assert lifts == [("real", 992), ("real", 32)]
    for est, default in zip(ests, defaults, strict=True):
        assert est.ratios.tobytes() == default.ratios.tobytes()


def test_estimate_memory_grows_by_its_ratios_alone():
    # Samples are drawn and scored a chunk at a time; only the 8-byte ratio
    # of each sample is kept.
    frame = roots_frame(4, 8)
    peaks = []
    for n_samples in (200_000, 400_000):
        tracemalloc.start()
        try:
            vf.estimate_distortion(frame, 1, n_samples, seed=12)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * 200_000


# -- greedy fallback ------------------------------------------------------------------

def test_greedy_upper_bounds_exact():
    frame = roots_frame(5, 10)
    for x in vf.sample_sphere_batch(5, 10, seed=12):
        for l in (1, 2, 3):
            g = vf.smdd_greedy(frame, x, l)
            e = vf.smdd_exact(frame, x, l)
            assert g.residual_sq >= e.residual_sq - 1e-12
            assert len(g.support) <= l


@pytest.mark.parametrize("frame,x,support", [
    (roots_frame(4, 8), np.zeros(4), ()),
    (vf.make_general_frame(np.eye(3)), np.array([0.0, 1.0, 0.0]), (2,)),
], ids=["zero-signal", "row-of-an-orthonormal-frame"])
def test_greedy_stops_once_nothing_is_left(frame, x, support):
    # Nothing aligns with a zero residual: no row is picked past it.
    res = vf.smdd_greedy(frame, x, 3)
    assert res.support == support and res.residual_sq == 0.0


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

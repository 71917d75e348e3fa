import itertools
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import vframe as vf
from vframe import frames, montecarlo
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


@pytest.mark.parametrize("seed", [0, 2**40 + 1, 2**64 + 3, (708, 6, 3), (1, 2, 3, 4, 5)],
                         ids=repr)
def test_sample_batch_rows_equal_per_sample_streams(seed):
    # The vectorized draw reproduces a freshly built generator, bit for
    # bit, in every dimension.
    for n in range(1, 65):
        batch = vf.sample_sphere_batch(n, 6, seed)
        for i, row in enumerate(batch):
            expected = vf.sample_uniform_sphere(n, vf.sample_rng(seed, i))
            assert row.tobytes() == expected.tobytes(), (n, i)


def spy_loop(monkeypatch):
    """Record the Philox key of every row the per-sample loop draws."""
    looped = set()
    draw = montecarlo.sample_uniform_sphere

    def spy(n, rng):
        looped.add(tuple(rng.bit_generator.state["state"]["key"]))
        return draw(n, rng)

    monkeypatch.setattr(montecarlo, "sample_uniform_sphere", spy)
    return looped


def words_read(n, key):
    """The number of Philox words sample_uniform_sphere(n, .) reads from a
    fresh generator keyed by key (2n exactly when every draw takes the
    ziggurat fast path), and the generator's first 2n words."""
    rng = np.random.Generator(np.random.Philox(key=key))
    vf.sample_uniform_sphere(n, rng)
    state = rng.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"], \
        np.random.Philox(key=key).random_raw(2 * n)


@pytest.mark.parametrize("n,seed", [(6, (4, 5)), (24, 2**70), (montecarlo._VECTOR_MAX_N, 11)],
                         ids=repr)
def test_sample_batch_chunks_and_both_paths_equal_per_sample_streams(n, seed, monkeypatch):
    # Past one chunk of rows, three kinds of row, each bit for bit its own
    # stream: fast rows, whose 2n draws all take the ziggurat fast path (the
    # norm is the stacked matmul); rows with wedge draws resolved in numpy
    # passes; and rows left to the per-sample loop.  Rows draw on all 256
    # ziggurat layers; fast rows on every layer but layer 1, whose k is 0
    # so that numpy never accepts it there.
    rows_per_chunk = montecarlo._CHUNK_WORDS // (4 * -(-n // 2))
    n_samples = 2 * rows_per_chunk + 7
    looped = spy_loop(monkeypatch)
    batch = vf.sample_sphere_batch(n, n_samples, seed)
    monkeypatch.undo()
    keys = montecarlo._philox_keys(seed, n_samples)
    kinds = {"fast": 0, "numpy": 0, "loop": 0}
    layers, fast_layers = set(), set()
    for i, key in enumerate(keys):
        expected = vf.sample_uniform_sphere(n, vf.sample_rng(seed, i))
        assert batch[i].tobytes() == expected.tobytes(), i
        read, words = words_read(n, key)
        drawn = set(words & 0xFF)
        layers |= drawn
        if read == 2 * n:
            assert tuple(key) not in looped, i
            kinds["fast"] += 1
            fast_layers |= drawn
        else:
            kinds["loop" if tuple(key) in looped else "numpy"] += 1
    assert 0 < kinds["loop"] < kinds["numpy"] and kinds["fast"] > 0, kinds
    assert layers == set(range(256))
    assert fast_layers == set(np.flatnonzero(montecarlo._ZIGGURAT_K)) == layers - {1}


def test_sample_batch_leaves_every_wedge_test_to_the_loop_in_a_wide_band(monkeypatch):
    # With the band around exp(-x^2/2) made infinite, every row with a draw
    # off the fast path goes to the per-sample loop, and rows are unchanged.
    n, seed = 6, (3, 1)
    monkeypatch.setattr(montecarlo, "_WEDGE_BAND", np.inf)
    looped = spy_loop(monkeypatch)
    batch = vf.sample_sphere_batch(n, 3000, seed)
    monkeypatch.undo()
    slow = set()
    for i, key in enumerate(montecarlo._philox_keys(seed, 3000)):
        expected = vf.sample_uniform_sphere(n, vf.sample_rng(seed, i))
        assert batch[i].tobytes() == expected.tobytes(), i
        if words_read(n, key)[0] > 2 * n:
            slow.add(tuple(key))
    assert looped == slow and len(slow) > 100


@pytest.mark.parametrize("n,n_samples", [(0, 0), (0, 3), (-2, 1), (3, -1)])
def test_sample_batch_refuses_bad_sizes(n, n_samples):
    with pytest.raises(DomainError):
        vf.sample_sphere_batch(n, n_samples, 0)
    assert vf.sample_sphere_batch(3, 0, 0).shape == (0, 3)


def test_philox_words_match_numpy_philox():
    keys = montecarlo._philox_keys((9, 9), 40)
    words = montecarlo._philox_words(keys, 5)
    for key, row in zip(keys, words):
        assert np.array_equal(row, np.random.Philox(key=key).random_raw(20))


def ar_member(path, member):
    """Bytes of member `member` of the ar archive at `path`."""
    data = path.read_bytes()
    pos, long_names = 8, b""
    while pos < len(data):
        ident, size = data[pos:pos + 16].decode().strip(), int(data[pos + 48:pos + 58])
        body = data[pos + 60:pos + 60 + size]
        if ident == "//":
            long_names = body
        elif ident[1:].isdigit():
            start = int(ident[1:])
            ident = long_names[start:long_names.index(b"\n", start)].decode()
        if ident.rstrip("/") == member:
            return body
        pos += 60 + size + size % 2
    raise KeyError(member)


def elf_symbols(obj, names):
    """Bytes of the named symbols of the ELF64 little-endian object obj."""
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    sections = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * shentsize)
                for i in range(shnum)]
    found = {}
    for _, kind, _, _, offset, size, link, _, _, _ in sections:
        if kind != 2:                       # SHT_SYMTAB
            continue
        strings = sections[link][4]
        for sym in range(offset, offset + size, 24):
            name_at, _, _, index, value, length = struct.unpack_from("<IBBHQQ", obj, sym)
            name = obj[strings + name_at:obj.index(b"\0", strings + name_at)].decode()
            if name in names:
                at = sections[index][4] + value
                found[name] = obj[at:at + length]
    return found


def test_ziggurat_tables_match_numpy_archive():
    archive = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    if not archive.is_file():
        pytest.skip("numpy ships no libnpyrandom.a here")
    obj = ar_member(archive, "src_distributions_distributions.c.o")
    if obj[:6] != b"\x7fELF\x02\x01":
        pytest.skip("numpy's distributions object is not ELF64 little-endian here")
    tables = elf_symbols(obj, {"ki_double", "wi_double", "fi_double"})
    assert tables["ki_double"] == montecarlo._ZIGGURAT_K.tobytes()
    assert tables["wi_double"] == montecarlo._ZIGGURAT_W.tobytes()
    # fi_double is derived from wi_double, so it may differ by an ulp: within
    # the band that sends a wedge test to the per-sample loop.
    fi = np.frombuffer(tables["fi_double"], dtype="<f8")
    assert fi.shape == montecarlo._ZIGGURAT_F.shape
    assert (np.abs(montecarlo._ZIGGURAT_F - fi) <= montecarlo._WEDGE_BAND * fi).all()


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


def spy_gram_features(monkeypatch):
    """Record the batch size of every call of the Gram kernel's feature lift."""
    calls = []
    features = montecarlo._gram_features
    monkeypatch.setattr(montecarlo, "_gram_features", lambda xs: calls.append(len(xs)) or features(xs))
    return calls


def spy_block_weights(monkeypatch):
    """Record the number of supports SVD'd by every call of _block_weights."""
    calls = []
    weights = montecarlo._block_weights
    monkeypatch.setattr(montecarlo, "_block_weights",
                        lambda matrix, supports, *rest: calls.append(len(supports))
                        or weights(matrix, supports, *rest))
    return calls


@pytest.mark.parametrize("m,n", [(9, 3), (12, 10)])
@pytest.mark.parametrize("kind", ["gaussian", "duplicated"])
def test_support_energies_match_projection_residual(m, n, kind, monkeypatch):
    # N <= 4L scores with Gram weights, N > 4L with stacked bases:
    # (9, 3) is Gram at every L, (12, 10) stacked at L = 1, 2, Gram at L = 3
    frame = vf.make_gaussian_frame(m, n, seed=(41, m)) if kind == "gaussian" else dup_rows_frame(m, n, 43)
    X = vf.sample_sphere_batch(n, 3, seed=(45, m)) * np.array([[1.0], [0.5], [3.0]])
    gram_calls = spy_gram_features(monkeypatch)
    for l in (1, 2, 3):
        gram_calls.clear()
        blocks = list(montecarlo._energies(frame, X, l, montecarlo.DEFAULT_BUDGET))
        assert bool(gram_calls) == (n <= 4 * l)
        assert all(len(X[rows]) == len(X) for rows, _, _ in blocks)
        energies = np.concatenate([energy for _, _, energy in blocks], axis=1)
        supports = [list(s) for s in itertools.combinations(range(m), l)]
        assert np.concatenate([block for _, block, _ in blocks]).tolist() == supports
        assert energies.shape == (len(X), math.comb(m, l))
        for x, energy in zip(X, energies):
            norm = float(np.vdot(x, x).real)
            direct = [vf.projection_residual(frame.matrix[s], x) for s in supports]
            np.testing.assert_allclose(np.maximum(norm - energy, 0.0), direct, rtol=0, atol=1e-12)


def test_kernel_matches_stacked_reference_on_mc_enum_cell(monkeypatch):
    # Values of the complex stacked-basis kernel (the only one before the
    # Gram weights) on the N=8, M=32, L=4 cell, stream (1, 1).
    frame = roots_frame(8, 32)
    X = vf.sample_sphere_batch(8, 1000, seed=(1, 1))
    gram_calls = spy_gram_features(monkeypatch)
    res = vf.smdd_residuals(frame, X, 4)
    assert gram_calls
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


@pytest.mark.parametrize("m,l,orbits", [(8, 4, 10), (12, 1, 1), (12, 6, 80), (32, 4, 1128)])
def test_orbit_representatives_cover_every_support_once(m, l, orbits):
    reps = montecarlo._orbit_representatives(m, l)
    assert reps.shape == (orbits, l)
    assert reps.tolist() == sorted(reps.tolist())
    covered = set()
    for rep in reps.tolist():
        orbit = {tuple(sorted((j + s) % m for j in rep)) for s in range(m)}
        assert min(orbit) == tuple(rep)          # its own smallest rotation
        assert not orbit & covered               # in no other representative's orbit
        covered |= orbit
    assert covered == set(itertools.combinations(range(m), l))
    if (m, l) == (8, 4):
        assert [0, 2, 4, 6] in reps.tolist()     # a support of stabilizer {0, 2, 4, 6}


@pytest.mark.parametrize("n,m,weights", [(6, 12, (1, 2, 3, 4)), (8, 16, (1, 2, 3, 4)),
                                         (12, 24, (1, 2))])
def test_orbit_energies_match_projection_residual(n, m, weights, monkeypatch):
    # Stacked bases at (6, 12, 1), (8, 16, 1) and (12, 24, 1..2), Gram weights otherwise.
    frame = roots_frame(n, m)
    X = vf.sample_sphere_batch(n, 3, seed=(47, m)) * np.array([[1.0], [0.5], [3.0]])
    gram_calls = spy_gram_features(monkeypatch)
    svd_calls = spy_block_weights(monkeypatch)
    for l in weights:
        gram_calls.clear()
        svd_calls.clear()
        blocks = list(montecarlo._energies(frame, X, l, montecarlo.DEFAULT_BUDGET))
        assert sum(svd_calls) == len(montecarlo._orbit_representatives(m, l))
        assert bool(gram_calls) == (n <= 4 * l)
        assert all(len(X[rows]) == len(X) for rows, _, _ in blocks)
        supports = np.concatenate([block for _, block, _ in blocks])
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
    calls = spy_block_weights(monkeypatch)
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
    # The mc-enum cell: R = 1128 representatives against C(32, 4) = 35960
    # supports, and no winner re-scored.
    frame = roots_frame(8, 32)
    X = vf.sample_sphere_batch(8, 1000, seed=(1, 2))
    calls = spy_block_weights(monkeypatch)
    vf.smdd_residuals(frame, X, 4)
    assert sum(calls) == 1128
    calls.clear()
    vf.smdd_exact(frame, X[0], 4)
    assert sum(calls) == 1128


@pytest.mark.parametrize("frame,l,samples,rotated", [
    (vf.make_gaussian_frame(16, 6, seed=3), 3, 5, False),
    (vf.make_vandermonde_frame(vf.default_nodes(12) * 1j, 6), 2, 5, False),
    (roots_frame(6, 12), 2, 66, True),      # S >= C(12, 2)
    (roots_frame(6, 12), 2, 60, True),      # S + R = C(12, 2) with R = 6 orbits
    (roots_frame(6, 12), 2, 59, True),
    (roots_frame(4, 8), 4, 2, False),       # L = N: every support spans and ties
], ids=["gaussian", "other-nodes", "S>=C", "S+R=C", "S+R<C", "L=N"])
def test_orbit_path_runs_only_where_it_svds_fewer_supports(frame, l, samples, rotated, monkeypatch):
    # The frame's nodes and L choose the path, whatever the batch size.  At
    # L = N smdd_residuals needs no search: its residuals are exact zeros.
    X = vf.sample_sphere_batch(frame.n, samples, seed=(19, samples))
    calls = spy_block_weights(monkeypatch)
    expected = len(montecarlo._orbit_representatives(frame.m, l)) if rotated else math.comb(frame.m, l)
    residuals = vf.smdd_residuals(frame, X, l)
    if l == frame.n:
        assert sum(calls) == 0 and residuals.tobytes() == np.zeros(samples).tobytes()
    else:
        assert sum(calls) == expected
    calls.clear()
    vf.smdd_exact(frame, X[0], l)
    assert sum(calls) == expected


def test_ties_across_support_blocks(monkeypatch):
    # Blocks of 4 supports instead of 2**18 // (L*N), so each pair of tied
    # supports below falls in two blocks.  {1} (residual ~2.5e-13, block 0)
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
    # N=8, L=3 scores blocks of 2**18 // 24 = 10922 supports; C(64, 3) =
    # 41664 and C(80, 3) = 82160 span 4 and 8 of them.  A whole Gram table
    # would take N^2 * C(M, 3) * 8 bytes: 21 MB and 42 MB.  Roots frames
    # take the orbit path, with blocks of 10922 // M representatives times
    # M shifts.
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
    # here); each chunk is reduced and dropped before the next is scored, so
    # the peak stays under two.  The bound is a number, not the constant, so
    # that raising the constant fails here.
    frame = roots_frame(8, 32)
    X = vf.sample_sphere_batch(8, 1000, seed=(1, 3))
    tracemalloc.start()
    try:
        vf.smdd_residuals(frame, X, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20 * 8


def test_exact_search_keeps_no_support_table():
    # every call scores its supports block by block (a whole Gram table
    # would take N^2 * C(M, L) * 8 = 583 kB here) and keeps none of them;
    # bds_decode bisects through L = 3, 1 and 2
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


def test_estimate_ln_zero(monkeypatch):
    # At L = N, and past it, no sample is drawn or support scored: every
    # ratio is exactly 0.
    monkeypatch.setattr(montecarlo, "sample_sphere_batch", None)
    calls = spy_block_weights(monkeypatch)
    for n, m, l in [(4, 8, 4), (3, 12, 5)]:
        est = vf.estimate_distortion(roots_frame(n, m), l, 300, seed=11)
        assert (est.mean, est.stderr, est.n_samples, est.samples) == (0.0, 0.0, 300, None)
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
    again = vf.estimate_from_samples(frame, l, X, (9, 1))
    assert again == est
    assert np.array_equal(again.ratios, est.ratios)
    if l == 0:
        assert est.samples is None and again.samples is None
    elif l == 4:
        # L = N: estimate_distortion draws no sample; the batch given is kept.
        assert est.samples is None and again.samples is X
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


def test_search_at_or_past_n_keeps_its_budget():
    # No support is scored at L >= N, but C(M, L) over the budget is refused
    # as at every other L >= 1; the greedy fallback still draws and labels.
    frame = roots_frame(3, 9)
    X = vf.sample_sphere_batch(3, 5, seed=2)
    for l in (3, 4):
        budget = math.comb(9, l) - 1
        with pytest.raises(BudgetExceeded):
            vf.smdd_residuals(frame, X, l, budget=budget)
        with pytest.raises(BudgetExceeded):
            vf.estimate_distortion(frame, l, 5, seed=2, budget=budget)
        assert not vf.smdd_residuals(frame, X, l, budget=budget + 1).any()
        est = vf.estimate_distortion(frame, l, 5, seed=2, budget=budget, fallback_greedy=True)
        assert est.approximate and est.samples.tobytes() == X.tobytes()


@pytest.mark.parametrize("l", [0, 1])
def test_estimate_from_samples_refuses_a_zero_row(l):
    frame = roots_frame(4, 8)
    with pytest.raises(ValueError, match="non-zero"):
        vf.estimate_from_samples(frame, l, np.zeros((3, 4)), 0)


def test_estimate_from_samples_checks_shape_at_weight_zero():
    with pytest.raises(ValueError, match="shape"):
        vf.estimate_from_samples(roots_frame(4, 8), 0, np.ones((3, 7)), 0)


def test_estimate_from_samples_checks_finiteness_at_weight_zero():
    X = vf.sample_sphere_batch(4, 3, seed=0)
    X[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        vf.estimate_from_samples(roots_frame(4, 8), 0, X, 0)


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

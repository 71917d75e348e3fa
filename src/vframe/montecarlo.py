"""Monte-Carlo validation of the distortion lower bounds.

Signals are drawn uniformly from the complex unit sphere (normalized
complex Gaussians).  For each sample the exact sparse minimum-distance
distortion is found by enumerating every size-L support in
lexicographic order, projecting onto its row span and taking the
smallest squared residual; averaging over samples estimates the frame's
mean distortion, which is then compared against the closed-form lower
bound.

Scoring kernel: a support S with rank-masked orthonormal basis V_S has
projection energy ||P_S x||^2 = x^H G_S x, G_S = V_S^H V_S.  For N <= 4L
samples and supports are lifted to N^2 real features and weights, so one
real GEMM scores a chunk of samples against a block of supports at N^2
multiply-adds per pair, no more than the 4*L*N of the stacked bases used
for N > 4L.  One constant, _GEMM_ENERGIES = 2**20 energies (8 MiB), owns
the search's working set.  Supports are scored in blocks of
B = _GEMM_ENERGIES // (16*L*N) = 2**16 // (L*N): weights at most 2 MiB
(N^2 * B * 8, or L * N * B * 16 stacked), dropped once scored, and chunks
of _GEMM_ENERGIES // B rows (_GEMM_ENERGIES // (L*B) stacked), so at most
_GEMM_ENERGIES energies per GEMM.  So memory does not grow with C(M, L);
the budget on C(M, L) bounds the time.

Where the weights come from: on most frames, one SVD per support, C(M, L)
in all.  On the default frame, whose nodes z_j are the M-th roots of
unity (default_nodes), shifting a support by s multiplies its rows by
the phases D_s = diag(z_s^k), the frame's row s, so G_{S+s} = D_s G_S
D_s^H.  There, for L < N, only the R orbit representatives (each orbit's
lexicographically smallest shift, about C(M, L) / M of them) are SVD'd;
a block holds a slice of them times all M shifts, its weights rotated
by an elementwise phase multiply.  The frame and L alone choose the
path, and both searches read the rotated energies as they come: a
rotated residual differs from the per-support one by a few ulp (at most
3.1e-15 measured, on the N=8, M=32, L=4 cell).  At L >= N some support
spans C^N, so smdd_residuals returns exact zeros without a search, as
the bound's L = N branch does; smdd_exact, which names the support,
enumerates them on the per-support path.

Distortion is accumulated per sample as the *relative* squared
residual ||x - proj||^2 / ||x||^2.  On the unit sphere the two agree
to sampler precision, and the ratio is exact where it matters: at
L = 0 every sample contributes exactly 1.0, matching the bound's L = 0
branch without floating dust.

Reproducibility: the stream for sample i is a Philox generator keyed
by SeedSequence((seed..., i)), the seed read by _seed (an int, or a
sequence of them flattened to a tuple), so results are bit-identical
however the sample loop is chunked or parallelized.  sample_sphere_batch
computes that stream for a chunk of samples per numpy pass instead of
one generator call per sample: a port of SeedSequence's entropy pool
gives every Philox key, a vectorized Philox4x64-10 the words, and numpy's
ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000; its ki/wi tables
copied here) the normals.  Rows with a draw off the fast path are read
by a cursor per row that takes each wedge test as numpy does.  Each
row's norm is a stacked vector @ vector matmul over the strided real and
imaginary views, which numpy sends to the same BLAS ddot per row as
np.linalg.norm; so the contract rests on the host BLAS ddot, as the
per-sample loop always did.  The few samples left (a tail draw, a wedge
test within an ulp-sized band of exp, or a long run of rejections) are
redrawn by the per-sample loop itself, which keeps every row bit for bit
what sample_uniform_sphere(n, sample_rng(seed, i)) returns; past N = 40,
where the Philox words cost more than the loop, every sample is.  A stream
depends only on (N, n_samples, seed), so callers that score several
cells of one N (vframe sweep) draw its batch once and reduce it per
cell with estimate_from_samples.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport
from .errors import ConfigMismatch, DomainError
from .frames import (SINGULAR_REL_TOL, Frame, _over_budget, default_nodes, frame_id,
                     support_blocks)

# Residuals within this of the minimum count as ties (broken toward the
# lexicographically smallest support).
TIE_TOL = 1e-12

DEFAULT_BUDGET = 10**6

# Energies one exact-search GEMM writes at most: 8 MiB of float64 (16 MiB
# of complex projections for the stacked bases), the larger part of the
# search's working set.  Blocks of supports are sized from it too
# (_energies); blocks half as wide ran about 17% slower on the N=8, M=32,
# L=4 cell.
_GEMM_ENERGIES = 2**20


# -- sampling ---------------------------------------------------------------

def _seed(seed):
    """The one reading of a stream seed: a non-negative int as an int, a
    sequence of them (tuple, list, range or ndarray, nested or not) as the
    flat tuple of its ints, which SeedSequence reads as the same words.
    Raises TypeError and ValueError where SeedSequence does."""
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        return int(seed)
    if not isinstance(seed, (tuple, list, range, np.ndarray)):
        raise TypeError("seed must be integer")
    return tuple(w for v in map(_seed, seed) for w in (v if isinstance(v, tuple) else (v,)))


def sample_rng(seed, index: int) -> np.random.Generator:
    """Counter-based generator for sample `index` of stream `seed`.

    `seed` may be an int or a sequence of ints (see _seed); the stream key
    is the seed entropy extended by the sample index.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((_seed(seed), index))))


def sample_uniform_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the complex unit sphere in C^n.

    Normalizes a standard complex Gaussian vector; unitary invariance
    of the Gaussian makes the direction uniform.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    while True:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = np.linalg.norm(z)
        if norm > 1e-300:
            return z / norm


# SeedSequence's entropy-pool constants (numpy.random.bit_generator): its
# pool of 4 uint32 words, the hash multipliers of mixing (A) and of
# generate_state (B), and the two multipliers of mix().
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _philox_keys(seed, n_samples: int) -> np.ndarray:
    """(n_samples, 2) uint64 array whose row i is sample_rng(seed, i)'s
    Philox key, SeedSequence(entropy + (i,)).generate_state(2, uint64).

    A uint32 port of SeedSequence's entropy pool (hashmix, mix and
    generate_state) run on every sample index at once; each pool word
    is an (n_samples,) array.
    """
    if n_samples > 2**32:
        raise DomainError("need n_samples <= 2**32 (one entropy word per sample index)")
    seed = _seed(seed)
    entropy = []        # each int's uint32 words, least significant first (one for 0)
    for value in seed if isinstance(seed, tuple) else (seed,):
        entropy.append(value & _WORD)
        while value > _WORD:
            value >>= 32
            entropy.append(value & _WORD)
    words = [np.full(n_samples, w, dtype=np.uint32) for w in entropy]
    words.append(np.arange(n_samples, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _WORD
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> 16)

    zero = np.zeros(n_samples, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(4):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _WORD
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # Little-endian pairs of uint32 words make the two uint64 key words.
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


# Philox4x64-10 (numpy/random/src/philox/philox.h): the round multipliers
# of counter words 0 and 2 and the Weyl increments of the two key words.
_PHILOX_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32, _SHIFT32 = np.uint64(_WORD), np.uint64(32)


def _mulhilo(mult: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of the 128-bit products mult * x, the
    high word summed from 32-bit limbs so no partial product overflows."""
    m_lo, m_hi = np.uint64(mult & _WORD), np.uint64(mult >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = ((lo_lo >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> _SHIFT32
    high = x_hi * m_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + carry
    return high, x * np.uint64(mult)


def _philox_words(keys: np.ndarray, blocks: int, first: int = 1) -> np.ndarray:
    """(len(keys), 4 * blocks) uint64 array whose row i is blocks first ..
    first + blocks - 1 of Philox(key=keys[i]).random_raw: a fresh
    generator's block j is the cipher of counter (j, 0, 0, 0), its four
    words in order, starting at j = 1.
    """
    k0, k1 = keys[:, :1].copy(), keys[:, 1:].copy()
    c0 = np.broadcast_to(np.arange(first, first + blocks, dtype=np.uint64), (len(keys), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 += _PHILOX_BUMP[0]
            k1 += _PHILOX_BUMP[1]
        hi0, lo0 = _mulhilo(_PHILOX_MULT[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_MULT[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=2).reshape(len(keys), 4 * blocks)


# numpy's ziggurat tables for standard_normal, ki_double (uint64) and
# wi_double (float64), 256 layers each, as little-endian bytes in base64.
# numpy does not expose them; they are the local symbols of that name in
# the .rodata of numpy/random/lib/libnpyrandom.a's distributions object.
_ZIGGURAT_K = np.frombuffer(base64.b64decode(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvv"
    "DgCqRPoKRxkPABjL/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM"
    "8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsHqZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5"
    "GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9DwBXbP9gMMAPAEiiNxCCwg8A"
    "0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8AmeyPTbXO"
    "DwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7A"
    "idYPADLoyKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8"
    "W1z52w8AfZq5653cDwCdchiBO90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8A"
    "QO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnhDwCZP7yMx+EPAKoc2+kx4g8AkRvahZji"
    "DwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8AXAlM07rkDwAkldKu"
    "C+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0"
    "5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8A"
    "ZAiE3JPoDwC8zvBBx+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPp"
    "DwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLqDwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOF"
    "zOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A+oTi9HbrDwAUIOZflusPAHyd"
    "z/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbxKf1b7A8A"
    "9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7s"
    "DwAohTV3E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRX"
    "g+0PAMgspAaU7Q8ABLeFK6TtDwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZ"
    "kA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A4AaQVx7uDwAkZUtzKe4PALzkChU07g8A"
    "PJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGXWAtq7g8Aegc+bHHu"
    "DwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR"
    "mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6"
    "BM6o7g8AOzPoS6nuDwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A"
    "2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2roju"
    "DwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4AnlJk7g8AiCijRVvuDwC2V06Z"
    "Ue4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqiCe4PAMxJ"
    "4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8A"
    "Nqg4HH/tDwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/s"
    "DwC4tw4Q1OwPALRulQi37A8AwTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RM"
    "EewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKFyeFv6w8Anh+t00LrDwBLLQuwE+sPAOkC"
    "Glni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/WxekPAKRHqTuE6Q8A"
    "KEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn"
    "DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/"
    "+eMPAJyx7jVd4w8A/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+"
    "fsWH3g8A/TvGCXXdDwATvynlRtwPAIICLvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8A"
    "EvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u0scPAO0iHi8rww8AOrjAgWW9"
    "DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oaDwA="
), dtype="<u8")
_ZIGGURAT_W = np.frombuffer(base64.b64decode(
    "edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00A"
    "nDx0cnRaL6ydPMPVTC1IMp88rbuOJzJNoDxDXQI7BfWgPHc2QZemkqE89Rp6j6InojyA2GM4"
    "LrWiPPWRV8A/PKM8L7GiwZ69ozxVm/+N7zmkPKf+PTa7saQ8dNMaYnUlpTyWzgengJWlPOp+"
    "2c8xAqY8PXyjYdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2YpzxD9UatRfinPHcKQ1PMVag8"
    "mnZ7nmSxqDyYz06pLgupPOoeLIJHY6k8RsU4jsm5qTwsp6TczA6qPFnNd21nYqo8MBYQbq20"
    "qjycbBNtsQWrPCl6QoeEVas8Op9Sjjakqzwygr8q1vGrPPNOWflwPqw8YTsypROKrDyLJnL+"
    "ydSsPEi3gA6fHq08EB/kKZ1nrTzDuCMAzq+tPFN28ak69608/u3Stes9rjwAb3oz6YOuPM6C"
    "+b06ya48JmLwhOcNrzyI9thU9lGvPK7Xh55tla88rC76fVPYrzzsNELgVg2wPJqPOfVALrA8"
    "/KUWnupOsDwQoHJbVm+wPAv0cZCGj7A8E2G8hH2vsDx/zEtmPc+wPGsIFkvI7rA87hWVMiAO"
    "sTy+DzEHRy2xPEGRjp8+TLE8HiDEvwhrsTw02ngap4mxPIht7lEbqLE8yyr4+GbGsTwu1OCT"
    "i+SxPJ+gQJmKArI86cbEcmUgsjwfw+l9HT6yPPtrqQy0W7I8f9MdZip5sjwb1xnHgZayPNou"
    "uGK7s7I8U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8MLn04Y4nszyhXiZwRESzPNVSyrriYLM8"
    "algFvmp9szxksrJv3ZmzPAM9uL87trM84B1WmIbSszyDWnLevu6zPHSe4HHlCrQ8XXSmLfsm"
    "tDykMDzoAEO0PF3HynP3XrQ8NsNmnt96tDwvj0gyupa0PF1BAvaHsrQ83BGzrEnOtDwFpjgW"
    "AOq0PGJVXu+rBbU8WosK8k0htTxPZmrV5jy1PMiyG053WLU8eF9VDgB0tTwUhQ7GgY+1PFkb"
    "JCP9qrU8PXN90XLGtTzTjC974+G1PDhen8hP/bU8wx+jYLgYtjyisKLoHTS2PAsmtwSBT7Y8"
    "cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhhYti2PFT4YTHE87Y862iL9ycP"
    "tzzGFGlRjiq3PNzucNz3Rbc8H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7Itvz"
    "TM+3POfec4zW6rc8H+qGpGcGuDx2hsjaACK4PBWfic6iPbg8vfXRH05ZuDzFfnpvA3W4PC33"
    "R1/DkLg8Q8AFko6suDycDKGrZci4PCdqRFFJ5Lg8j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8"
    "iqIDeWJUuTzu1XC7jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0byvs4bk8StL6JnL+"
    "uTySNvk5DBu6PFvIoiG7N7o8iLsLnn9UujykqUpyWnG6PD0xoGRMjro8CPGfPlarujzO9VrN"
    "eMi6PDazi+G05bo8GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8Az3OQbVbuzwniT+5fXm7PDz3"
    "5fFkl7s8biWF22u1uzyiwC5rk9O7PIOugZvc8bs8oBbsbEgQvDwtevDl1y68PBwNbhOMTbw8"
    "BYfsCGZsvDwXpuvgZou8PKuiNr2Pqrw8kNY7x+HJvDw34GgwXum8PG6PizIGCb08IO83ENso"
    "vTxHxjMV3ki9PCPx55YQab08pfvX9HOJvTxwbiCZCaq9PA5J/PjSyr08Ny5SldHrvTwc0kn7"
    "Bg2+PPZG6sR0Lr48iNHBmRxQvjwl/pcvAHK+PAq/KkshlL48CG/3wIG2vjw6pxB2I9m+PKns"
    "AWEI/L48IVPCijIfvzxtTbcPpEK/PGgBySBfZr88gpeJBGaKvzy/InEYu66/PIXnL9Jg0788"
    "C/YYwVn4vzx1oNNH1A7APEfJjwKoIcA8qwKpg6k0wDzH9T5O2kfAPH6zrfY7W8A8aCanI9Bu"
    "wDwXLmOPmILAPFSi6AiXlsA8xMBxdc2qwDxI1O7RPb/APDA9qjTq08A8k2URz9TowDy2n6bv"
    "//3APEFwIARuE8E8NV27myEpwTxtCcRpHT/BPDsuYEhkVcE88+6dO/lrwTxhEtJ034LBPKzr"
    "TlYamsE8ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6wTyBzASdvBPCPO7Tb3pHLcI8"
    "JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipTN7TCPJfbljHU0MI89XipsQ3u"
    "wjzurlbS7AvDPKOkaF57KsM8oxKuBcRJwzxAqDN60mnDPApBVpKzisM8+oiucHWswzymBBez"
    "J8/DPHX0YKrb8sM82uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8vEOcdWKNxDwnWmudc7fEPAKJ"
    "zQ0l48Q8QazpU58QxTxCfjpSEUDFPBvkSqmxccU82Y1xi8ClxTz+0DokitzFPEwehs9pFsY8"
    "6moAe85TxjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglWlXnHPIzO1vQt1Mc8NPIpBQM5"
    "yDwUfKq/D6vIPJZEb5TgLsk8q1dAAe7LyTxad5R43I/KPLH9eDgfmMs8M60JgrQ7zTw="
), dtype="<f8")

# numpy's fi_double, the density exp(-x^2/2) at each layer's edge x = wi *
# 2**52 (1 at layer 0), for the wedge test.  Derived rather than copied, it
# may differ from numpy's table by an ulp (in 1 entry with glibc's exp).
_ZIGGURAT_F = np.array([1.0] + [math.exp(-0.5 * (w * 2.0**52) ** 2)
                                for w in _ZIGGURAT_W[1:].tolist()])

# Relative band around exp(-x^2/2) in which a wedge test is left to the
# per-sample loop.  numpy tests against libm's exp, as math.exp does (np.exp
# differs from it by an ulp on about 5% of inputs), and its own fi_double,
# which _ZIGGURAT_F may miss by an ulp; a compiler may also fuse its
# multiply-add.
_WEDGE_BAND = 1e-12

# Philox blocks drawn past a row's first 2n words when it has draws off the
# fast path: a wedge draw reads one more word, a rejected one a new draw.
_SPARE_BLOCKS = 2

# Philox words drawn per chunk of rows, so a batch's temporaries stay a
# few MB whatever n_samples (and n) is.
_CHUNK_WORDS = 2**15

# Largest n drawn through _vector_rows.  Their cost grows with the 2n
# Philox words per row, the per-sample loop's mostly with the rows: on a
# 2-vCPU host 2,000 rows took 25-27 ms against 36 ms row by row at n = 32,
# 30-34 against 38 ms at n = 44, 37-40 against 38-43 ms at n = 48 and
# 49-53 against 39-43 ms at n = 64.
_VECTOR_MAX_N = 40


def _ziggurat(words: np.ndarray):
    """numpy's standard_normal ziggurat on each uint64 word read as the
    start of a draw: the candidate x, its layer, and whether the fast path
    accepts it."""
    # Layer r & 0xff, sign bit 8 and a 52-bit magnitude, accepted when it
    # lies below the layer's k.
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    magnitude = words >> np.uint64(9) & np.uint64(2**52 - 1)
    x = magnitude * _ZIGGURAT_W[layer]
    return np.where(words & np.uint64(0x100), -x, x), layer, magnitude < _ZIGGURAT_K[layer]


def _wedge_rows(words: np.ndarray, count: int):
    """The first count normals of each row of words, read as numpy's
    standard_normal reads them, for rows with draws off the fast path.

    A cursor per row moves from one draw off the fast path to the next, all
    rows at once.  A draw on layer l >= 1 reads one more word u = (w >> 11)
    * 2**-53 and is accepted when (f[l-1] - f[l]) * u + f[l] < exp(-x^2/2);
    either way the next draw starts after u.  Returns the mask of rows
    resolved and their (resolved, count) normals.  A row with a tail draw
    (layer 0), a test within _WEDGE_BAND or too few words is not resolved.
    """
    x, layer, keep = _ziggurat(words)
    r, k = words.shape
    stop = np.concatenate([~keep, np.ones((r, 1), dtype=bool)], axis=1)  # column k: no words left
    cols = np.arange(k + 1)
    pos = np.zeros(r, dtype=np.intp)        # next word to read
    got = np.zeros(r, dtype=np.intp)        # normals before it
    ok = np.ones(r, dtype=bool)
    live = np.arange(r)
    while live.size:
        q = np.argmax(stop[live] & (cols >= pos[live, None]), axis=1)
        got_q = got[live] + q - pos[live]
        short = got_q < count
        live, q, got_q = live[short], q[short], got_q[short]
        at = np.minimum(q, k - 2)
        lay, xq = layer[live, at], x[live, at]
        u = (words[live, at + 1] >> np.uint64(11)) * 2.0**-53
        below = (_ZIGGURAT_F[lay - 1] - _ZIGGURAT_F[lay]) * u + _ZIGGURAT_F[lay]
        density = np.array([math.exp(-0.5 * v * v) for v in xq.tolist()])
        accept = below < density
        keep[live, at], keep[live, at + 1] = accept, False
        got[live], pos[live] = got_q + accept, q + 2
        lost = (q >= k - 1) | (lay == 0) | (np.abs(below - density) <= _WEDGE_BAND * density)
        ok[live[lost]] = False
        live = live[~lost]
    keep = keep[ok]
    return ok, x[ok][keep & (np.cumsum(keep, axis=1) <= count)].reshape(-1, count)


def _vector_rows(out: np.ndarray, keys: np.ndarray) -> list[int]:
    """Fill the rows of out (n_samples, n) that whole-array passes draw from
    the Philox keys, a chunk of rows at a time; returns the other rows'
    indices.  A row whose 2n draws all take the ziggurat fast path is read
    off its first 2n words; any other row by _wedge_rows, on those words
    and _SPARE_BLOCKS more blocks."""
    n_samples, n = out.shape
    blocks = -(-n // 2)                 # ceil(2n / 4) Philox blocks per row
    rows = max(1, _CHUNK_WORDS // (4 * blocks))
    left = []
    for start in range(0, n_samples, rows):
        chunk = keys[start:start + rows]
        words = _philox_words(chunk, blocks)
        x, fast = _ziggurat(words[:, :2 * n])[::2]
        drawn = fast.all(axis=1)
        wedge = np.flatnonzero(~drawn)
        if wedge.size:
            spare = _philox_words(chunk[wedge], _SPARE_BLOCKS, first=blocks + 1)
            ok, normals = _wedge_rows(np.concatenate([words[wedge], spare], axis=1), 2 * n)
            x[wedge[ok]] = normals
            drawn[wedge[ok]] = True
        z = x[:, :n] + 1j * x[:, n:]
        # Stacked vector @ vector on the strided real and imaginary views
        # runs the same BLAS ddot per row as np.linalg.norm; a contiguous
        # copy or another reduction order would change the last bit.
        re, im = z.real, z.imag
        norm = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
        drawn &= norm > 1e-300
        out[start:start + rows][drawn] = z[drawn] / norm[drawn, None]
        left.extend(start + np.flatnonzero(~drawn))
    return left


def sample_sphere_batch(n: int, n_samples: int, seed) -> np.ndarray:
    """(n_samples, n) array whose row i is
    sample_uniform_sphere(n, sample_rng(seed, i)), bit for bit.

    The Philox keys of all rows come from one vectorized pass
    (_philox_keys).  For n <= _VECTOR_MAX_N the rows are drawn in
    whole-array passes (_vector_rows), and only the rows they leave (a tail
    draw, a wedge test too close to call, a long run of rejections) by the
    scalar loop, on one Philox generator re-keyed per row; past it, every
    row is.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if n_samples < 0:
        raise DomainError("need n_samples >= 0")
    keys = _philox_keys(seed, n_samples)
    out = np.empty((n_samples, n), dtype=complex)
    left = _vector_rows(out, keys) if n <= _VECTOR_MAX_N else range(n_samples)
    if left:
        bitgen = np.random.Philox(0)
        rng = np.random.Generator(bitgen)
        fresh = bitgen.state      # zero counter, empty buffer
        for i in left:
            fresh["state"]["key"] = keys[i]
            bitgen.state = fresh
            out[i] = sample_uniform_sphere(n, rng)
    return out


# -- projections and exact SMDD ---------------------------------------------

def _span_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the non-empty (k, n) rows: the vh
    rows of their SVD whose singular values exceed SINGULAR_REL_TOL times the largest."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: int(np.count_nonzero(s > SINGULAR_REL_TOL * s[0]))]


def projection_residual(rows, x) -> float:
    """Squared distance from x to the span of the given frame rows.

    The span is orthonormalized by _span_basis, so rank-deficient
    subsets project onto their actual span.  An empty subset returns
    ||x||^2.  Raises ValueError on a non-finite x.
    """
    x = np.asarray(x, dtype=complex).ravel()
    if not np.isfinite(x).all():
        raise ValueError("signals must be finite")
    rows = np.asarray(rows, dtype=complex)
    norm_sq = float(np.vdot(x, x).real)
    if rows.size == 0:
        return norm_sq
    if rows.ndim != 2 or rows.shape[1] != x.size:
        raise ValueError("rows must be a (k, n) array matching x")
    coeffs = _span_basis(rows).conj() @ x
    return max(norm_sq - float(np.vdot(coeffs, coeffs).real), 0.0)


def _orbit_representatives(m: int, l: int) -> np.ndarray:
    """(R, l) array, in lexicographic order, of the size-l subsets of range(m)
    (l >= 1) that are the lexicographically smallest of their cyclic shifts
    S + s (mod m): one per orbit.

    A representative holds 0, so the candidates are the C(m-1, l-1) subsets
    that do, taken 2**18 // l at a time; one is kept when none of the shifts
    that move another of its elements to 0 is smaller.
    """
    kept = []
    for tails in support_blocks(m - 1, l - 1, max(1, 2**18 // l)):
        cand = np.concatenate([np.zeros((len(tails), 1), dtype=np.intp), tails + 1], axis=1)
        keep = np.ones(len(cand), dtype=bool)
        for i in range(1, l):
            diff = np.sort((cand - cand[:, i:i + 1]) % m, axis=1) - cand
            first = np.argmax(diff != 0, axis=1)
            keep &= diff[np.arange(len(cand)), first] >= 0
        kept.append(cand[keep])
    return np.concatenate(kept)


def _gram_features(xs: np.ndarray) -> np.ndarray:
    """(s, N*N) real lift of the samples xs: |x_a|^2, then 2 Re(conj(x_a) x_b)
    and 2 Im(conj(x_a) x_b) for a < b, in triu_indices order."""
    a, b = np.triu_indices(xs.shape[1], 1)
    cross = 2.0 * (xs[:, a].conj() * xs[:, b])
    return np.concatenate([xs.real**2 + xs.imag**2, cross.real, cross.imag], axis=1)


def _block_weights(matrix: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Weights that score samples against the (B, l) block of supports in
    one GEMM, from one SVD per support.

    V is a support's rank-masked orthonormal basis (the conjugated rows
    of its SVD's vh above SINGULAR_REL_TOL).  x^H G x costs N*N real
    multiply-adds per (sample, support) and the stacked bases 4*l*N, so
    for N <= 4l they are the (N*N, B) real projectors G = V^H V, one
    column per support: G_aa, then Re G_ab and -Im G_ab for a < b, so
    _gram_features(x) @ weights = x^H G x.  Otherwise (past N = 4l the
    Gram weights would also take N/(2l) > 2 times the memory) they are
    the complex (N, l*B) stacked bases: column j*B + k holds basis
    vector j of support k.
    """
    n, l = matrix.shape[1], supports.shape[1]
    _, s, vh = np.linalg.svd(matrix[supports], full_matrices=False)
    v = (vh * (s > SINGULAR_REL_TOL * s[:, :1])[:, :, None]).conj()    # (B, l, n)
    if n > 4 * l:
        return v.transpose(1, 0, 2).reshape(-1, n).T
    g = v.conj().transpose(0, 2, 1) @ v                                # (B, n, n)
    a, b = np.triu_indices(n, 1)
    upper = g[:, a, b].T
    return np.concatenate([g.diagonal(axis1=1, axis2=2).real.T, upper.real, -upper.imag])


def _orbit_blocks(matrix: np.ndarray, reps: np.ndarray, width: int):
    """(supports, weights) blocks of _block_weights' form covering every size-l
    support of a roots-of-unity frame: a slice of the orbit representatives
    reps times all M shifts, at most max(width, M) supports per block.

    Shifting a support by s multiplies its rows by D_s = diag(z_s^k), the
    frame's row s, so its basis is V D_s^H: basis entry k is multiplied by
    conj(z_s^k), and G_ab by z_s^(a-b).  Only the representatives are
    SVD'd.  Column s*r + k (of r representatives) scores the support
    reps[k] + s, which is the same row of supports, sorted.
    """
    m, n = matrix.shape
    l = reps.shape[1]
    phase = matrix.conj()                     # phase[s, k] multiplies basis entry k
    a, b = np.triu_indices(n, 1)
    pair = phase[:, a].conj() * phase[:, b]   # (M, pairs): multiplies G_ab
    step = max(1, width // m)
    for start in range(0, len(reps), step):
        block = reps[start:start + step]
        r = len(block)
        supports = np.sort((block + np.arange(m)[:, None, None]) % m, axis=2).reshape(-1, l)
        base = _block_weights(matrix, block)
        if base.dtype == complex:
            weights = (base.reshape(n, l, 1, r) * phase.T[:, None, :, None]).reshape(n, -1)
        else:
            upper = pair[:, :, None] * (base[n:n + a.size] - 1j * base[n + a.size:])
            weights = np.concatenate([np.broadcast_to(base[:n], (m, n, r)), upper.real,
                                      -upper.imag], axis=1).transpose(1, 0, 2).reshape(-1, m * r)
        yield supports, weights


def _energies(frame: Frame, X: np.ndarray, l: int, budget: int):
    """Projection energies ||P_S x||^2 of the (S, N) batch X on every size-l
    support S (l >= 1), one block of supports at a time.

    Yields (rows, supports, energy): a slice of X, a (B, l) block of
    supports, each sorted, and the (len(rows), B) energies of those rows
    on them.  When l < N and the frame's nodes are default_nodes(M), the
    blocks come from _orbit_blocks: the weights of each shift are a phase
    rotation of its representative's, so the energies may differ from a
    support's own SVD by a few ulp, and a support whose shifts fix it
    appears once per such shift.  Otherwise the blocks hold B =
    _GEMM_ENERGIES // (16*l*N) supports each, in lexicographic order, every
    support once, its weights from its own SVD.  Every GEMM makes at most
    _GEMM_ENERGIES energies (or projections, for the stacked bases).
    Raises BudgetExceeded when C(M, l) exceeds the budget.
    """
    _over_budget(frame.m, l, budget)
    m, n = frame.matrix.shape
    # A block's weights (N*N <= 4*l*N floats, or l*N complex, per support)
    # then take at most a quarter of a GEMM's energies.
    width = max(1, _GEMM_ENERGIES // (16 * l * n))
    if l < n and np.array_equal(frame.nodes, default_nodes(m)):
        blocks = _orbit_blocks(frame.matrix, _orbit_representatives(m, l), width)
    else:
        blocks = ((s, _block_weights(frame.matrix, s)) for s in support_blocks(m, l, width))
    return _scored(X, blocks)


def _scored(X: np.ndarray, blocks):
    """Score X against each (supports, weights) block in chunks of rows that
    keep every GEMM's output at most _GEMM_ENERGIES values; yields (rows,
    supports, energy)."""
    for supports, weights in blocks:
        chunk = max(1, _GEMM_ENERGIES // weights.shape[1])
        for start in range(0, len(X), chunk):
            rows = slice(start, start + chunk)
            yield rows, supports, _chunk_energies(X[rows], weights, supports.shape[1])


def _chunk_energies(xs: np.ndarray, weights: np.ndarray, l: int) -> np.ndarray:
    """(s, B) projection energies of the (s, N) samples xs on the B supports
    of one _block_weights, real for the Gram form and complex otherwise."""
    if weights.dtype != complex:
        return _gram_features(xs) @ weights
    proj = (xs @ weights).reshape(len(xs), l, -1)
    energy = np.zeros((len(xs), proj.shape[2]))
    for j in range(l):
        energy += proj[:, j].real ** 2 + proj[:, j].imag ** 2
    return energy


def _signals(frame: Frame, X, l: int) -> tuple[np.ndarray, np.ndarray]:
    """X as an (S, N) complex batch for a search of weight l, and its squared
    row norms, as every search and estimate takes them (projection_residual,
    the tests' reference, keeps its own).  Raises ValueError on another
    shape or a non-finite entry, DomainError unless 0 <= l <= M."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[1] != frame.n:
        raise ValueError(f"signals have shape {X.shape}, expected (S, {frame.n})")
    if not np.isfinite(X).all():
        raise ValueError("signals must be finite")
    if not 0 <= l <= frame.m:
        raise DomainError(f"need 0 <= L <= M, got L={l}")
    return X, np.einsum("sn,sn->s", X, X.conj()).real


@dataclass(frozen=True)
class SmddResult:
    """Best size-<=L support for one signal: 1-based support, squared
    residual, and whether other supports tied within TIE_TOL."""

    support: tuple[int, ...]
    residual_sq: float
    ties_broken: bool


def smdd_exact(frame: Frame, x, l: int, budget: int = DEFAULT_BUDGET) -> SmddResult:
    """Exact sparsity-constrained minimum distortion by full enumeration.

    Minimizes ||x - proj||^2 over all size-l supports; ties within TIE_TOL
    of the minimum are broken toward the lexicographically smallest
    support.  Raises BudgetExceeded when C(M, l) exceeds the subset budget.
    """
    xs, norms = _signals(frame, np.ravel(x)[None, :], l)
    if l == 0:
        return SmddResult((), float(norms[0]), False)
    # Ties are judged against the global minimum, so every support within
    # TIE_TOL of the running minimum is kept.
    res, supports = np.empty(0), np.empty((0, l), dtype=np.intp)
    for _, block, energy in _energies(frame, xs, l, budget):
        res = np.concatenate([res, np.maximum(norms[0] - energy[0], 0.0)])
        supports = np.concatenate([supports, block])
        near = res <= res.min() + TIE_TOL
        res, supports = res[near], supports[near]
    # Orbit blocks repeat the supports their shifts fix and come in shift
    # order: np.unique keeps each support's first residual and sorts them
    # lexicographically (a no-op on the lexicographic per-support blocks).
    supports, first = np.unique(supports, axis=0, return_index=True)
    res = res[first]
    cand = np.flatnonzero(res <= res.min() + TIE_TOL)
    pick = int(cand[0])
    return SmddResult(tuple(int(i) + 1 for i in supports[pick]), float(res[pick]),
                      bool(cand.size > 1))


def smdd_residuals(frame: Frame, X, l: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """smdd_exact's squared residual for each row of the (S, N) batch X: the
    norm less the largest projection energy over supports, kept as a running
    maximum while they are scored block by block.  At l >= N it is 0 without
    a search: every frame spans C^N, so some size-l support does (the
    bound's L = N branch).  Raises BudgetExceeded when C(M, l) exceeds the
    subset budget, at every l >= 1."""
    X, norms = _signals(frame, X, l)
    if l == 0:
        return norms
    if l >= frame.n:
        _over_budget(frame.m, l, budget)
        return np.zeros(len(X))
    top = np.full(X.shape[0], -np.inf)
    for rows, _, energy in _energies(frame, X, l, budget):
        # Rebinding drops the chunk's energies before the next is scored.
        energy = energy.max(axis=1)
        top[rows] = np.maximum(top[rows], energy)
    return np.maximum(norms - top, 0.0)


def smdd_greedy(frame: Frame, x, l: int) -> SmddResult:
    """Greedy (matching-pursuit style) approximation of smdd_exact.

    Picks the row best aligned with the running residual l times,
    re-projecting x onto the chosen span after each pick.  The result
    upper-bounds the exact minimum and is labeled approximate wherever
    it is surfaced; it never feeds bound-comparison verdicts.
    """
    xs, norms = _signals(frame, np.ravel(x)[None, :], l)
    x = xs[0]
    chosen: list[int] = []
    residual = x.copy()
    norm_sq = resid_sq = float(norms[0])
    row_norms = np.linalg.norm(frame.matrix, axis=1)
    for _ in range(l):
        scores = np.abs(frame.matrix.conj() @ residual) / row_norms
        scores[chosen] = -1.0
        best = int(np.argmax(scores))
        if scores[best] <= 1e-14:
            break
        chosen.append(best)
        # One basis of the chosen rows gives both the residual that drives
        # the next pick and its squared norm (as in projection_residual).
        basis = _span_basis(frame.matrix[chosen])
        coeffs = basis.conj() @ x
        residual = x - basis.T @ coeffs
        resid_sq = max(norm_sq - float(np.vdot(coeffs, coeffs).real), 0.0)
        if resid_sq <= 1e-28:
            break
    chosen.sort()
    return SmddResult(tuple(i + 1 for i in chosen), resid_sq, False)


def bds_decode(frame: Frame, x, delta: float, budget: int = DEFAULT_BUDGET):
    """Smallest L whose SMDD residual meets ||x - proj||^2 <= delta ||x||^2.

    Binary search over L in [0, N], valid because the SMDD residual is
    non-increasing in L and reaches 0 at L = N (every frame spans C^N),
    so L = N is enumerated only when the search ends there.
    Comparisons carry a 1e-12 relative slack so exactly-representable
    signals at delta = 0 resolve correctly.
    Returns (l_min, smdd_exact result at l_min).
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta {delta} outside [0, 1]")
    results: dict[int, SmddResult] = {}

    def result(l: int) -> SmddResult:
        if l not in results:
            results[l] = smdd_exact(frame, x, l, budget=budget)
        return results[l]

    # The L = 0 residual is ||x||^2 itself.
    norm_sq = result(0).residual_sq
    thr = delta * norm_sq + 1e-12 * norm_sq
    if norm_sq <= thr:
        return 0, results[0]
    lo, hi = 0, frame.n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if result(mid).residual_sq <= thr:
            hi = mid
        else:
            lo = mid
    return hi, result(hi)


# -- distortion estimation ---------------------------------------------------

@dataclass(frozen=True)
class EstimateConfig:
    """Provenance of a distortion estimate."""

    frame_id: str
    n: int
    m: int
    l: int
    seed: "int | tuple[int, ...]"


@dataclass(frozen=True)
class DistortionEstimate:
    """Sample mean/stderr of the per-sample relative SMDD residual.

    ratios holds the per-sample values in sample-index order (None on
    an estimate built by hand); samples holds the (S, N) batch they came
    from, for another estimate over the same stream (None where no sample
    is read: at L = 0, at L >= N from estimate_distortion unless the
    estimate is greedy, and on an estimate built by hand)."""

    mean: float
    stderr: float
    n_samples: int
    config: EstimateConfig
    approximate: bool = False
    ratios: np.ndarray | None = field(default=None, repr=False, compare=False)
    samples: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class BoundComparison:
    """Verdict of estimate vs bound: margin = mean - lower_bound,
    passed when margin >= -3 * stderr."""

    passed: bool
    margin: float


def _check_estimate(frame: Frame, l: int, n_samples: int, budget: int,
                   fallback_greedy: bool) -> bool:
    """Check an estimate's arguments before any sample is drawn; returns
    whether it is approximate (C(M, l) over the budget, greedy search).
    Raises DomainError on bad arguments and BudgetExceeded past the
    budget without fallback_greedy."""
    if n_samples < 1:
        raise DomainError("need n_samples >= 1")
    if not 0 <= l <= frame.m:
        raise DomainError(f"need 0 <= L <= M, got L={l}")
    return l > 0 and _over_budget(frame.m, l, budget, refuse=not fallback_greedy)


def estimate_distortion(
    frame: Frame,
    l: int,
    n_samples: int,
    seed,
    budget: int = DEFAULT_BUDGET,
    fallback_greedy: bool = False,
) -> DistortionEstimate:
    """Mean relative SMDD residual over seeded unit-sphere samples.

    Deterministic given (frame, l, n_samples, seed): per-sample streams
    are derived from (seed, index) and reduced in index order.  When
    C(M, l) exceeds the budget, either raises BudgetExceeded before any
    sample is drawn or, with fallback_greedy, substitutes the greedy
    search and labels the estimate approximate.  The samples are
    sample_sphere_batch(frame.n, n_samples, seed), reduced by
    estimate_from_samples; none is drawn where the exact search reads
    none, at l = 0 (every ratio 1) and l >= N (every ratio 0).
    """
    seed = _seed(seed)
    approximate = _check_estimate(frame, l, n_samples, budget, fallback_greedy)
    if l == 0 or l >= frame.n and not approximate:
        return _estimate(frame, l, seed, np.ones(n_samples) if l == 0 else np.zeros(n_samples))
    X = sample_sphere_batch(frame.n, n_samples, seed)
    return estimate_from_samples(frame, l, X, seed, budget, fallback_greedy)


def estimate_from_samples(
    frame: Frame,
    l: int,
    X,
    seed,
    budget: int = DEFAULT_BUDGET,
    fallback_greedy: bool = False,
) -> DistortionEstimate:
    """estimate_distortion over a batch already drawn.

    X is sample_sphere_batch(frame.n, S, seed) for S = len(X), so a
    caller that scores several cells of one N against one stream draws
    it once.  The batch is checked at every l: ValueError on another
    shape, a non-finite entry or a zero row.  At l = 0 every sample
    contributes ||x||^2 / ||x||^2 == 1.0 exactly.
    """
    seed = _seed(seed)
    X, norms = _signals(frame, X, l)
    approximate = _check_estimate(frame, l, len(X), budget, fallback_greedy)
    if not norms.all():
        raise ValueError("signals must be non-zero")
    if approximate:
        mins = np.array([smdd_greedy(frame, x, l).residual_sq for x in X])
    else:
        mins = smdd_residuals(frame, X, l, budget)
    return _estimate(frame, l, seed, mins / norms, approximate, X if l else None)


def _estimate(frame: Frame, l: int, seed, ratios: np.ndarray, approximate: bool = False,
              samples: np.ndarray | None = None) -> DistortionEstimate:
    """The estimate whose per-sample relative residuals are ratios, for a
    seed as _seed reads it."""
    n_samples = len(ratios)
    config = EstimateConfig(frame_id(frame), frame.n, frame.m, l, seed)
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return DistortionEstimate(mean, stderr, n_samples, config, approximate, ratios, samples)


def compare_to_bound(est: DistortionEstimate, report: BoundReport) -> BoundComparison:
    """Check the estimate against the closed-form lower bound.

    Passes when est.mean >= lower_bound - 3 * stderr; the margin
    reported is mean - lower_bound.  Approximate (greedy) estimates
    are refused: they only upper-bound the true distortion.
    """
    cfg, inp = est.config, report.input
    if (cfg.n, cfg.m, cfg.l) != (inp.n, inp.m, inp.l):
        raise ConfigMismatch(
            f"estimate is for (N,M,L)=({cfg.n},{cfg.m},{cfg.l}), "
            f"bound for ({inp.n},{inp.m},{inp.l})"
        )
    if est.approximate:
        raise ConfigMismatch("approximate (greedy) estimates cannot be compared to the bound")
    margin = est.mean - report.lower_bound
    return BoundComparison(margin >= -3.0 * est.stderr, margin)

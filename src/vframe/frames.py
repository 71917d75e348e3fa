"""Frame construction, signal synthesis and structural checks.

A frame is a spanning set of M >= N non-zero vectors in C^N, stored as
the rows phi_1..phi_M of an M x N matrix.  A coefficient vector c in
C^M synthesizes the signal r = sum_j c_j phi_j.  The Vandermonde kind
has row j equal to (1, z_j, z_j**2, ..., z_j**(N-1)) for distinct
non-zero nodes z_j; any N of its rows are then linearly independent,
which is what makes sparse coefficient recovery well-posed.

Supports are 1-based in all public structures and serialized output
(phi_1 is the first row); array indexing inside this module is 0-based.
Frames, sparse representations and signals are immutable after
construction, so they are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateSupport,
    DuplicateNode,
    LengthMismatch,
    TooFewNodes,
    ZeroNode,
)

# Relative singular-value threshold for every rank/singularity decision.
SINGULAR_REL_TOL = 1e-10

# An entry of a dense coefficient vector counts as non-zero when its
# magnitude exceeds this fraction of the largest entry magnitude.
ZERO_REL_TOL = 1e-9

# Relative tolerance under which two nodes count as coincident.
NODE_DISTINCT_REL_TOL = 1e-12

CONDITION_BUDGET = 2_000_000

VANDERMONDE = "vandermonde"
GENERAL = "general"


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Frame:
    """M frame vectors of length N, stored as rows of an M x N matrix.

    kind is "vandermonde" when the rows are the node power sequences of
    the stored nodes, otherwise "general".  Use make_vandermonde_frame
    or make_general_frame rather than the raw constructor.
    """

    matrix: np.ndarray
    kind: str = GENERAL
    nodes: np.ndarray | None = None

    def __post_init__(self):
        mat = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        if mat.ndim != 2:
            raise ValueError("frame matrix must be two-dimensional")
        m, n = mat.shape
        if n < 1 or m < n:
            raise TooFewNodes(f"need M >= N >= 1, got M={m}, N={n}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("frame matrix has non-finite entries")
        row_norms = np.linalg.norm(mat, axis=1)
        if np.any(row_norms == 0.0):
            raise ValueError("frame rows must be non-zero")
        if self.kind == VANDERMONDE:
            if self.nodes is None or len(self.nodes) != m:
                raise ValueError("vandermonde frame needs one node per row")
            object.__setattr__(
                self, "nodes", _readonly(np.asarray(self.nodes, dtype=complex))
            )
        elif self.kind == GENERAL:
            # Vandermonde frames span by construction; general ones must be checked.
            s = np.linalg.svd(mat, compute_uv=False)
            if s[-1] <= SINGULAR_REL_TOL * s[0]:
                raise ValueError("frame rows do not span C^N")
        else:
            raise ValueError(f"unknown frame kind {self.kind!r}")
        object.__setattr__(self, "matrix", _readonly(mat))

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def make_vandermonde_frame(nodes, n: int) -> Frame:
    """Frame whose row j is (1, z_j, ..., z_j**(n-1)) for the given nodes.

    Nodes must be pairwise distinct and non-zero, both judged relative
    to the largest node magnitude; at least n of them are required.
    """
    z = np.asarray(nodes, dtype=complex).ravel()
    m = z.size
    if n < 1:
        raise ValueError("dimension n must be at least 1")
    if m < n:
        raise TooFewNodes(f"need at least {n} nodes, got {m}")
    if not np.all(np.isfinite(z)):
        raise ValueError("nodes must be finite")
    scale = np.abs(z).max()
    if scale == 0.0 or np.any(np.abs(z) <= NODE_DISTINCT_REL_TOL * scale):
        bad = int(np.argmin(np.abs(z))) + 1
        raise ZeroNode(f"node {bad} is zero (or negligible at this scale)")
    # The closest pair, the first in row-major order, from rows of about
    # 2**20 differences at a time, so memory does not grow as M^2.
    closest, i, j = np.inf, 0, 0
    step = max(1, 2**20 // m)
    for start in range(0, m, step):
        diff = np.abs(z[start:start + step, None] - z[None, :])
        rows = np.arange(len(diff))
        diff[rows, start + rows] = np.inf
        k = int(np.argmin(diff))
        if diff.flat[k] < closest:
            closest, i, j = diff.flat[k], start + k // m, k % m
    if closest <= NODE_DISTINCT_REL_TOL * scale:
        raise DuplicateNode(f"nodes {min(i, j) + 1} and {max(i, j) + 1} coincide")
    matrix = np.vander(z, n, increasing=True)
    return Frame(matrix=matrix, kind=VANDERMONDE, nodes=z)


def make_general_frame(rows) -> Frame:
    """Frame from an explicit M x N row matrix (must span C^N)."""
    return Frame(matrix=np.asarray(rows, dtype=complex), kind=GENERAL)


def default_nodes(m: int) -> np.ndarray:
    """The m-th roots of unity exp(2*pi*i*j/m), j = 0..m-1.

    Unit-circle nodes keep every square sub-block of the frame as well
    conditioned as possible, and their powers are cheap to tabulate.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return np.exp(2j * np.pi * np.arange(m) / m)


def make_gaussian_frame(m: int, n: int, seed) -> Frame:
    """Random frame with i.i.d. complex Gaussian rows (seeded)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    rows = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return make_general_frame(rows / math.sqrt(2.0))


@dataclass(frozen=True)
class SparseRep:
    """Sparse coefficient vector: 1-based support plus complex values.

    The weight of the representation is the support size.
    """

    ambient_len: int
    support: tuple[int, ...]
    values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self):
        support = tuple(map(int, self.support))
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim == 0:
            vals = vals.reshape(1)
        if len(support) != vals.size:
            raise ValueError("support and values must have equal length")
        if any(map(operator.ge, support, support[1:])):
            raise ValueError("support must be strictly increasing")
        if support and (support[0] < 1 or support[-1] > self.ambient_len):
            raise ValueError("support indices must lie in 1..ambient_len")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def weight(self) -> int:
        return len(self.support)


def random_sparse_rep(m, weight, rng, mag_range=(0.5, 2.0)) -> SparseRep:
    """Random weight-`weight` representation with magnitudes in mag_range."""
    if not 0 <= weight <= m:
        raise ValueError("weight must lie in 0..m")
    support = np.sort(rng.choice(m, size=weight, replace=False)) + 1
    mags = rng.uniform(mag_range[0], mag_range[1], size=weight)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=weight)
    return SparseRep(m, tuple(int(i) for i in support), mags * np.exp(1j * phases))


def synthesize(frame: Frame, rep) -> np.ndarray:
    """Signal r = sum_j c_j phi_j for a SparseRep or dense length-M vector."""
    if isinstance(rep, SparseRep):
        if rep.ambient_len != frame.m:
            raise LengthMismatch(
                f"representation is over {rep.ambient_len} vectors, frame has {frame.m}"
            )
        if not rep.support:
            return np.zeros(frame.n, dtype=complex)
        rows = frame.matrix[np.asarray(rep.support) - 1]
        return rep.values @ rows
    c = np.asarray(rep, dtype=complex).ravel()
    if c.size != frame.m:
        raise LengthMismatch(f"coefficient vector has length {c.size}, frame has {frame.m}")
    return c @ frame.matrix


def support_blocks(m: int, l: int, size: int):
    """Size-l subsets of range(m) in lexicographic order, as (B, l) arrays of <= size rows."""
    combos = itertools.combinations(range(m), l)
    count = math.comb(m, l)
    for start in range(0, count, size):
        rows = min(size, count - start)
        flat = itertools.chain.from_iterable(itertools.islice(combos, rows))
        yield np.fromiter(flat, dtype=np.intp, count=rows * l).reshape(rows, l)


def _over_budget(m: int, l: int, budget: int, refuse: bool = True) -> bool:
    """Whether the C(m, l) size-l subsets of range(m) exceed budget; when
    they do and refuse is set, raises BudgetExceeded instead."""
    count = math.comb(m, l)
    if count > budget and refuse:
        raise BudgetExceeded(f"C({m},{l}) = {count} exceeds budget {budget}")
    return count > budget


def check_condition_I(frame: Frame, budget: int = CONDITION_BUDGET):
    """Check that every N-row submatrix of the frame is non-singular.

    Returns (True, None) when each N x N submatrix's smallest singular
    value exceeds SINGULAR_REL_TOL times its largest, else (False, w),
    w the lexicographically first violating 1-based row subset.
    """
    m, n = frame.m, frame.n
    _over_budget(m, n, budget)
    for batch in support_blocks(m, n, 4096):
        s = np.linalg.svd(frame.matrix[batch], compute_uv=False)    # (B, n)
        bad = np.nonzero(s[:, -1] <= SINGULAR_REL_TOL * s[:, 0])[0]
        if bad.size:
            return False, tuple(int(i) + 1 for i in batch[bad[0]])
    return True, None


def null_vector_on_support(frame: Frame, rows) -> SparseRep:
    """Coefficient vector annihilating the frame, supported on N+1 given rows.

    For a Vandermonde frame the returned vector always has full weight
    N+1 (no smaller annihilator exists).  The result is normalized so
    its largest-magnitude entry equals 1, and sum_j v_j phi_j = 0 to
    working precision.  Raises DegenerateSupport when the chosen rows
    contain a singular N-row subset (impossible for Vandermonde kind).
    """
    idx = sorted(int(i) for i in rows)
    n = frame.n
    if len(idx) != n + 1 or len(set(idx)) != n + 1:
        raise ValueError(f"need exactly {n + 1} distinct rows")
    if idx[0] < 1 or idx[-1] > frame.m:
        raise ValueError("row indices must lie in 1..M")
    sub = frame.matrix[np.asarray(idx) - 1]             # (n+1, n)
    # v @ sub = 0  <=>  sub.T @ v = 0 (plain transpose: the system is linear in v)
    _, s, vh = np.linalg.svd(sub.T, full_matrices=True)
    if s[-1] <= SINGULAR_REL_TOL * s[0]:
        raise DegenerateSupport("selected rows span fewer than N dimensions")
    v = np.conj(vh[-1])
    k = int(np.argmax(np.abs(v)))
    v = v / v[k]
    if np.abs(v).min() <= ZERO_REL_TOL:
        raise DegenerateSupport("an N-row subset of the selection is singular")
    return SparseRep(frame.m, tuple(idx), v)


# -- serialization ----------------------------------------------------------
#
# Complex scalars are always [re, im] pairs of IEEE doubles.  A
# vandermonde frame stores only its nodes; the power matrix is
# reconstructed on load.

def complex_to_pairs(a) -> list:
    """[[re, im], ...] of the complex values of a, flattened."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).ravel()]


def pairs_to_complex(pairs) -> np.ndarray:
    """1-D complex array from [[re, im], ...].  Raises ValueError on
    anything but a list of two-number lists."""
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)
        for p in pairs
    ):
        raise ValueError("expected a list of [re, im] number pairs")
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def json_field(obj, key: str, kind: type = list):
    """obj[key] of a parsed JSON object, checked to be of type kind (bool
    is not an int).  Raises ValueError when obj is not an object, lacks
    key, or holds another type there."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"expected a JSON object with key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key!r} must be a JSON {'array' if kind is list else kind.__name__}")
    return value


def frame_to_json(frame: Frame) -> dict:
    if frame.kind == VANDERMONDE:
        return {
            "n": frame.n,
            "m": frame.m,
            "kind": VANDERMONDE,
            "nodes": complex_to_pairs(frame.nodes),
        }
    return {
        "kind": GENERAL,
        "rows": [complex_to_pairs(row) for row in frame.matrix],
    }


def frame_from_json(obj: dict) -> Frame:
    """Frame from frame_to_json's schema; ValueError on a malformed one."""
    kind = json_field(obj, "kind", str)
    if kind == VANDERMONDE:
        nodes = pairs_to_complex(json_field(obj, "nodes"))
        if json_field(obj, "m", int) != nodes.size:
            raise ValueError(f"'m' is {obj['m']} but the file lists {nodes.size} nodes")
        return make_vandermonde_frame(nodes, json_field(obj, "n", int))
    if kind == GENERAL:
        rows = [pairs_to_complex(row) for row in json_field(obj, "rows")]
        return make_general_frame(np.array(rows))
    raise ValueError(f"unknown frame kind {kind!r}")


def save_frame(frame: Frame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(frame_to_json(frame), fh)


def load_frame(path) -> Frame:
    with open(path, "r", encoding="utf-8") as fh:
        return frame_from_json(json.load(fh))


def frame_id(frame: Frame) -> str:
    """Short deterministic identifier (kind, shape, content hash)."""
    payload = frame.nodes if frame.kind == VANDERMONDE else frame.matrix
    digest = hashlib.sha1(np.ascontiguousarray(payload).tobytes()).hexdigest()[:8]
    return f"{frame.kind}:m={frame.m}:n={frame.n}:{digest}"

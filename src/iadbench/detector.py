"""Reference memory-bank detector.

Training collects every patch descriptor of the normal samples into a
flat bank, optionally shrunk by greedy k-center coreset selection in a
randomly projected space. Scoring computes each test patch's Euclidean
distance to its nearest bank vector; the image score is the maximum
patch distance, softened by softmax importance re-weighting over the b
bank vectors nearest to the winning patch. Distances are always
accumulated in double precision.

A bank row is an 8-bit code row from training to snapshot, and so is a
test image's patch row (``features.PatchFeatureGrid``). ``code_points``
is the one reader from code rows to float64 points, a row block at a
time: code k is ``features.intensities``' float32 k/255, widened
exactly, or that row's projection by a ``make_projection`` matrix.
``intensities`` is the float32 rule under it, and the snapshot's
payload. So both sides of every search are finite rows in [0, 1].
``MemoryBank`` is the one bank type, and a bank is its codes: one
(count, dim) uint8 array. ``build_bank`` is the one way from training
images to a bank. ``take`` keeps a coreset's rows, and
``extend_bank_for_task`` appends a task's bank. ``coreset_select``
hands ``code_points`` of the bank's codes to ``_farthest_first``, which
sorts that array in place, so no selection holds a float bank or any
float64 copy of its points but that one.

``search`` is the one nearest-neighbour search, and it is exact. A
screen from one BLAS matmul, ``||t||^2 + ||b||^2 - 2 t.b``, keeps every
bank index within a rounding bound of its row's minimum; those
candidates are re-ranked with the reference ``((t - b)**2).sum()``, so
only reference values reach an output. ``_reference_d2`` is the one
place the reference is computed, a row block at a time, for the rerank,
the coreset's recompute and re-weighting, so re-weighting reads the
bank one block at a time too, and the distance it weights, its hood's
smallest, is the search's answer bit for bit. Peak memory per chunk of
test patches is a few ``chunk x bank`` arrays, never a
``chunk x bank x dim`` one. Search and re-weighting read a
``SearchIndex``: the bank's vectors in float64 and their squared
norms. Because banks only grow at the end and ties go to the lowest
index, a search can also start from a known answer over the bank's
first rows and look only at the rows appended since.

The coreset's farthest-first update is exact in the same way. The
points are sorted once by norm. At each pick q with current covering
radius sqrt(M), only points whose norm is within sqrt(M) (plus a
rounding slack, ``_shell_slack``) of ||q|| can move closer to the
selection, by the reverse triangle inequality; they are one contiguous
slice of the sorted points, found with two binary searches. One mat-vec
screens that slice; only points whose screen, less the rounding bound,
does not exceed their current distance to the selection are recomputed
with the reference expression, and the rest provably keep their
distance. Both screens share one rounding bound, derived in
``_screen_tolerance``.

Both screens are BLAS calls, and OpenBLAS by default splits each over
its own worker threads, which then spin against the runner's cell
threads. ``single_thread_blas`` keeps every loaded OpenBLAS on the
calling thread while a run is inside it and restores each library's
thread count when the last user leaves, since that count is
process-global. Screen values never reach an output, so the pin moves
only time.

Bank snapshot format "IADB": magic ``IADB``, version u16=1
little-endian, u32 dim, u64 count, count u32 task tags, then
count * dim IEEE-754 binary32 little-endian vectors: each element is
the intensity of its code. A bank holds no tags, so the tag block is
written as ``4 * count`` zero bytes, the v1 layout; a v2 format may
drop it.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # at start-up: numpy otherwise loads it on first use, mid-run

from .data import ImageGrid
from .errors import DetectorError
from .features import FeatureProviderConfig, PatchFeatureGrid, intensities, windows

_MAGIC = b"IADB"
_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")

# Test patches per screen block. The screen, its candidate mask and the
# candidate list are each at most chunk x bank elements, so this bounds
# peak memory.
_SCORE_CHUNK = 256
# Rows read by ``code_points``, or differenced by ``_reference_d2``, at
# once hold at most this many elements: no n x dim float64 temporary. A
# projected read converts its _block_rows(out_dim) rows at in_dim width:
# on a 16-dim projection of 64-dim rows, 1,024 x 64 float64 (512 KiB).
_BLOCK_ELEMENTS = 1 << 14
# Builds of OpenBLAS name their thread-count calls differently; each
# library is driven by the first (get, set) pair it exports.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _block_rows(dim: int) -> int:
    return max(1, _BLOCK_ELEMENTS // dim)


def code_points(codes: np.ndarray, projection: np.ndarray | None = None) -> np.ndarray:
    """The float64 points of code rows: the detector's one reader of codes.

    Code k is ``intensities``' float32 k/255, widened exactly; with a
    ``make_projection`` matrix ``projection``, each row of those values
    is projected by it, one einsum per block. ``_block_rows(width)``
    rows are read at a time, so the result is the one array of all the
    points. A row's projection is the same arithmetic in any block, so
    its bits do not depend on the rows it is read with.
    """
    width = codes.shape[1] if projection is None else projection.shape[0]
    points = np.empty((codes.shape[0], width))
    step = _block_rows(width)
    for start in range(0, codes.shape[0], step):
        rows = intensities(codes[start : start + step])
        out = points[start : start + step]
        if projection is None:
            out[...] = rows
        else:
            np.einsum("nd,od->no", rows.astype(np.float64), projection, out=out)
    return points


def _reference_d2(rows, at, other, other_at=None) -> np.ndarray:
    """The reference ``((rows[at] - other[other_at])**2).sum(axis=1)``, or
    to the one vector ``other`` when ``other_at`` is None: the one place
    the detector computes it. ``at`` and ``other_at`` are index arrays.
    A block of ``_block_rows(dim)`` differences at a time is squared in
    place, then summed by row; none outlives the call."""
    step = _block_rows(rows.shape[1])
    sums = []
    for lo in range(0, len(at), step):
        diff = rows[at[lo : lo + step]]
        diff -= other if other_at is None else other[other_at[lo : lo + step]]
        np.square(diff, out=diff)  # the reference's ** 2
        sums.append(diff.sum(axis=1))
        del diff
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


def _openblas_thread_controls() -> list[tuple[object, object]]:
    """The (get, set) thread-count calls of each OpenBLAS in this process.

    Reads the libraries already mapped (``/proc/self/maps``); loads
    nothing new. Empty where that file or every symbol is missing.
    """
    try:
        with open("/proc/self/maps", "r", encoding="utf-8", errors="replace") as fh:
            fields = [line.rstrip("\n").split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = [f[5] for f in fields if len(f) == 6]
    controls = []
    for path in dict.fromkeys(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


class SingleThreadBlas:
    """Context manager: every loaded OpenBLAS runs on its calling thread.

    The thread count is process-global, so overlapping users share one
    pin: the first to enter looks the libraries up, saves each one's
    count and sets 1; the last to leave restores the saved counts. When
    no library or symbol is found nothing changes, and one line
    ``iadbench: blas-threads-unpinned: ...`` goes to stderr, once per
    instance.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._saved: list[tuple[object, int]] = []
        self._warned = False

    def __enter__(self) -> "SingleThreadBlas":
        with self._lock:
            self._users += 1
            if self._users == 1:
                controls = _openblas_thread_controls()
                if not controls and not self._warned:
                    self._warned = True
                    print(
                        "iadbench: blas-threads-unpinned: no OpenBLAS thread-count "
                        "symbol found; BLAS keeps its own threading",
                        file=sys.stderr,
                    )
                self._saved = [(put, get()) for get, put in controls]
                for put, _ in self._saved:
                    put(1)
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._users -= 1
            if self._users == 0:
                for put, count in self._saved:
                    put(count)
                self._saved = []


# one per process, like the setting it pins
single_thread_blas = SingleThreadBlas()


@dataclass
class MemoryBank:
    """A detector's bank: its rows as 8-bit codes, one (count, dim) array.

    Its points are ``code_points`` of the codes, so every one is finite
    and in [0, 1]: a bank cannot hold NaN or inf.
    """

    codes: np.ndarray  # (count, dim) uint8

    def __post_init__(self):
        if not isinstance(self.codes, np.ndarray) or self.codes.dtype != np.uint8:
            raise DetectorError("dim-mismatch", "bank rows must be uint8 codes")
        if self.codes.ndim != 2:
            raise DetectorError("dim-mismatch", f"bank codes must be 2-D, got {self.codes.ndim}-D")

    @property
    def count(self) -> int:
        return self.codes.shape[0]

    @property
    def dim(self) -> int:
        return self.codes.shape[1]

    def take(self, index) -> "MemoryBank":
        """The bank of the rows at ``index`` (indices), in that order."""
        return MemoryBank(self.codes[index])

    @classmethod
    def empty(cls, dim: int) -> "MemoryBank":
        return cls(np.zeros((0, dim), np.uint8))


def build_bank(images: list[ImageGrid], cfg: FeatureProviderConfig) -> MemoryBank:
    """Every patch window of ``images`` as a code row, in (image, row-major) order.

    Rows of different image sizes share one array, preallocated from the
    grid shapes and filled one image at a time.
    """
    if not images:
        raise DetectorError("empty-input", "need at least one feature grid")
    counts = [math.prod(cfg.grid_shape(image)) for image in images]
    codes = np.empty((sum(counts), cfg.dim), np.uint8)
    end = 0
    for image, count in zip(images, counts):
        codes[end : end + count] = windows(image.codes, cfg)
        end += count
    return MemoryBank(codes)


def make_projection(in_dim: int, out_dim: int, seed: int) -> np.ndarray:
    """Seeded Gaussian random projection to fewer dims: the
    (out_dim, in_dim) float64 matrix whose rows a point is dotted with."""
    if not 1 <= out_dim < in_dim:
        raise DetectorError("bad-dims", f"need 1 <= out_dim < in_dim, got {out_dim}/{in_dim}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((out_dim, in_dim)) / np.sqrt(out_dim)


@dataclass(frozen=True)
class CoresetParams:
    target_fraction: float | None = None
    l: int | None = None
    projection_dim: int | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.target_fraction is None) == (self.l is None):
            raise DetectorError("l-out-of-range", "exactly one of target_fraction or l required")
        fraction = self.target_fraction
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise DetectorError("l-out-of-range", f"target_fraction {fraction} not in (0, 1]")
        if self.l is not None and self.l < 1:
            raise DetectorError("l-out-of-range", f"l={self.l} must be >= 1")
        if self.projection_dim is not None and self.projection_dim < 1:
            raise DetectorError("bad-dims", f"projection_dim={self.projection_dim} must be >= 1")

    def effective(self, dim: int) -> "CoresetParams":
        """These params on a bank of ``dim``; with no projection the seed decides nothing."""
        projected = self.projection_dim not in (None, dim)
        return self if projected else replace(self, projection_dim=None, seed=0)

    def resolve_l(self, bank_size: int) -> int:
        if self.l is not None:
            l = self.l
        else:
            # round half up for cross-implementation agreement
            l = max(1, int(np.floor(self.target_fraction * bank_size + 0.5)))
        if l > bank_size:
            raise DetectorError("l-out-of-range", f"l={l} for bank of {bank_size}")
        return l


def _screen_tolerance(dim: int, n_max):
    """Tolerance tau of the screen s = ||x||^2 + ||y||^2 - 2 x.y.

    Both exact searches call this: ``search`` keeps every
    bank index whose screen is within tau of its row's minimum, and
    ``_farthest_first`` recomputes every row of its norm shell whose
    screen minus tau does not exceed its current distance.

    Domain. Both searches, and this bound and ``_shell_slack``'s, take
    finite rows whose squared norms lie far below 2**1000, so every
    product, partial sum and distance below is finite. Code intensities
    in [0, 1] and their Gaussian projections are such rows.

    For float64 vectors x, y of length d with N = ||x||^2 + ||y||^2 at
    most ``n_max``, let D = ||x - y||^2 in exact arithmetic, s the screen
    computed from the three dot products in any summation order (BLAS,
    any threads, with or without FMA) and two additions, and r the
    reference ``((x - y)**2).sum()``. With u = 2**-53 and
    gamma_k = k*u / (1 - k*u):

    - Each of ||x||^2, ||y||^2 and x.y is within gamma_d * sum_i |x_i y_i|
      of its exact value, and sum_i |x_i y_i| <= N / 2, so the three are
      off by at most 2 gamma_d N in s. Scaling by -2, of x.y or of y
      before the product, is exact; the two additions round once each on
      values of size at most about 2 N. So |s - D| <= (2 gamma_d + 5u) N,
      the extra u covering second-order terms.
    - r rounds each difference once and each square once, then sums d
      non-negative terms in some order, so
      |r - D| <= gamma_(d+2) D <= 2 gamma_(d+2) N.
    - Gradual underflow: a product or square whose result is subnormal
      may lose up to 2**-1075 more (a sum or difference that is
      subnormal is exact). s has 3d products, x.y's counted twice, and r
      has d squares, so this adds at most 3d * 2**-1074 in all.

    Together |s - r| <= E = (2 gamma_d + 5u + 2 gamma_(d+2)) N
    + 3d * 2**-1074, about (4d + 9) u N. The tolerance is
    tau = 16 (d + 2) (u n_max + 2**-1074) >= 2E + (8d + 14) u n_max
    + (10d + 32) 2**-1074. Its excess over 2E covers gamma_k against
    k*u, the computed n_max against the exact one, and the roundings of
    tau and of two more additions of values of size at most about
    2 n_max (a screen plus or minus tau, possibly with ||y||^2 folded
    into tau first), which come to a few u n_max + 2**-1074. The
    absolute term makes the bound hold for inputs however small, without
    a floor on their magnitude; projected coreset points need none.
    ``n_max`` may be a scalar or an array; tau has its shape.
    """
    return 16.0 * (dim + 2) * (2.0**-53 * n_max + 2.0**-1074)


def _shell_slack(dim: int, sq_max: float) -> float:
    """Slack sigma of the norm shell in ``_farthest_first``.

    At a pick q the shell keeps the rows whose computed norm rho_j lies
    in [fl(rho_q - w), fl(rho_q + w)], with w = fl(fl(sqrt(M)) + sigma)
    and M the largest min_d2 (the pick's). A row outside it must have a
    reference r_j = ``((p_j - q)**2).sum()`` of at least M, so that
    np.minimum leaves its min_d2, which is at most M, unchanged.

    For float64 rows of length d, let a_j = ||p_j|| exactly, A the
    largest a_j, sq_j the computed ||p_j||^2 (any summation order),
    rho_j = fl(sqrt(sq_j)), u = 2**-53 and gamma_k = k*u / (1 - k*u):

    - r_j rounds each difference and each square once and sums d
      non-negative terms; a subnormal square loses up to 2**-1075 more.
      So r_j >= (1 - gamma_(d+2)) D_j - d 2**-1075 for the exact
      D_j = ||p_j - q||^2, and D_j >= (a_j - a_q)^2 by the reverse
      triangle inequality. Hence r_j >= M once |a_j - a_q| >= R with
      R = sqrt((M + d 2**-1074) / (1 - gamma_(d+2)))
      <= (1 + gamma_(d+2)) sqrt(M) + sqrt(d) 2**-537.
    - |sq_j - a_j^2| <= gamma_d a_j^2 + d 2**-1075, and
      |sqrt(x) - sqrt(y)| <= sqrt(|x - y|), so with sqrt's own rounding
      |rho_j - a_j| <= eta = (gamma_d + 2u) A + sqrt(d) 2**-536.5.
    - A row outside the shell has rho_j < fl(rho_q - w) or
      rho_j > fl(rho_q + w), each bound within u (rho_q + w) of its
      exact value, so |rho_j - rho_q| > (1 - u) w - u rho_q and
      |a_j - a_q| > (1 - u) w - u rho_q - 2 eta. The two roundings of w
      give w >= (1 - 2u) sqrt(M) + (1 - u) sigma.
    - M is the computed r of some row, so sqrt(M) <= 2A to first order;
      at the seed's pass M is inf, w is inf and the shell is every row.

    So a row outside is safe when (1 - 2u) sigma covers
    (gamma_(d+2) + 3u) sqrt(M) + u rho_q + 2 eta + sqrt(d) 2**-537,
    which is at most (4d + 15) u A + 3.9 sqrt(d) 2**-537 to first order.
    The slack is sigma = 8 (d + 2) (u sqrt(sq_max) + 2**-537). The
    computed sqrt(sq_max) is at least A (1 - gamma_d - u) less
    sqrt(d) 2**-537.5, so the excess of 8d + 16 over 4d + 15, and of
    8 (d + 2) over 3.9 sqrt(d), covers gamma_k against k*u, A against
    sqrt(sq_max), the second-order terms and the rounding of sigma.
    """
    return 8.0 * (dim + 2) * (2.0**-53 * math.sqrt(sq_max) + 2.0**-537)


def coreset_select(bank: MemoryBank, params: CoresetParams) -> list[int]:
    """Greedy k-center selection in the projected space.

    The bank's first vector seeds the selection; each following pick is
    the vector farthest from the current selection, ties broken by the
    lowest index. Returns exactly l distinct indices in selection order.
    The points are ``code_points`` of the bank's codes, projected as they
    are read when ``projection_dim`` asks.
    """
    if bank.count == 0:
        raise DetectorError("empty-bank", "cannot coreset an empty bank")
    l = params.resolve_l(bank.count)
    params = params.effective(bank.dim)
    projection = None
    if params.projection_dim is not None:
        projection = make_projection(bank.dim, params.projection_dim, params.seed)
    return _farthest_first(code_points(bank.codes, projection), l)[0]


def _farthest_first(points: np.ndarray, l: int) -> tuple[list[int], np.ndarray]:
    """Farthest-first picks over the (n, d) float64 ``points``, and the final min_d2.

    min_d2[j] is the smallest reference ``((p_j - q)**2).sum()`` over the
    picks q so far, -1 once j is picked, and each pick is its argmax
    (lowest index on ties). Both equal, bit for bit, the loop that
    recomputes every row at every pick.

    ``points`` is sorted in place, by its squared norms sq (a stable
    sort), a column at a time, so the loop holds no copy of it; a
    caller that needs its rows again passes a copy. Picks and min_d2
    stay in the caller's row order.

    Shell. Let M be min_d2 at the pick q, the largest of all. A row
    whose norm differs from ||q|| by more than sqrt(M) is at least M
    from q, so np.minimum would keep its min_d2. With rho = sqrt(sq)
    and the slack sigma of ``_shell_slack``, the rows with
    |rho_j - rho_q| <= sqrt(M) + sigma are one contiguous slice of the
    sorted rows, found with two searchsorted calls; the rest are
    skipped. At the seed's pass M is inf and the slice is every row.

    Screen. In the slice one mat-vec gives
    s_j = ||p_j||^2 + ||q||^2 - 2 p_j.q. ``_screen_tolerance`` gives
    tau, once per call for ||p_j||^2 + ||q||^2 <= 2 max sq, with
    |s_j - r_j| <= E for the reference r_j and tau - E larger than the
    rounding of s_j - tau. So a computed s_j - tau above min_d2[j] means
    r_j > min_d2[j], and np.minimum would leave row j unchanged. Only
    the other rows are recomputed with the reference (``_reference_d2``)
    and take np.minimum, a row block at a time. Screen values never
    reach min_d2. Per pick this allocates a few vectors of the slice's
    length and one row block at a time; never an n x d array.
    """
    ranked = points  # put in norm order, in place, below
    n, dim = ranked.shape
    step = _block_rows(dim)
    sq = np.einsum("nd,nd->n", ranked, ranked)
    order = np.argsort(sq, kind="stable")
    sq = sq[order]
    column = np.empty(n)
    for c in range(dim):
        # mode="clip" writes straight into ``column``; order is in range
        np.take(ranked[:, c], order, out=column, mode="clip")
        ranked[:, c] = column
    del column
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    rho = np.sqrt(sq)
    sq_max = float(sq[-1])  # the largest
    tau = _screen_tolerance(dim, 2.0 * sq_max)
    sigma = _shell_slack(dim, sq_max)
    # +inf until the seed's pass writes every row's reference distance
    min_d2 = np.full(n, np.inf)
    ranked_d2 = np.full(n, np.inf)  # min_d2 in ranked order
    selected = []
    for _ in range(l):
        idx = int(np.argmax(min_d2))
        selected.append(idx)
        pos = rank[idx]
        q = ranked[pos]
        w = math.sqrt(min_d2[idx]) + sigma
        lo = rho.searchsorted(rho[pos] - w, "left")
        hi = rho.searchsorted(rho[pos] + w, "right")
        # one BLAS gemv; a run keeps it on this thread (single_thread_blas)
        screen = ranked[lo:hi] @ (-2.0 * q)
        screen += sq[lo:hi]
        screen += sq[pos] - tau
        kept = screen <= ranked_d2[lo:hi]
        del screen  # each temporary is freed before the next one is made
        rows = np.flatnonzero(kept)
        del kept
        rows += lo
        for start in range(0, rows.size, step):
            block = rows[start : start + step]
            d2 = np.minimum(_reference_d2(ranked, block, q), ranked_d2[block])
            ranked_d2[block] = d2
            min_d2[order[block]] = d2
            del block  # a view of rows, which may be n long
        del rows
        ranked_d2[pos] = min_d2[idx] = -1.0
    return selected, min_d2


@dataclass(frozen=True)
class SearchIndex:
    """A bank's vectors as the searches read them: float64 rows and their squared norms.

    Built from the bank's ``code_points``, so no search converts the
    bank again.
    """

    vectors: np.ndarray  # (count, dim) float64
    sq: np.ndarray  # (count,) float64, ||row||^2 as the screen computes it

    @classmethod
    def of(cls, vectors: np.ndarray) -> "SearchIndex":
        rows = np.asarray(vectors, dtype=np.float64)
        return cls(rows, np.einsum("nd,nd->n", rows, rows))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class Nearest:
    """Per test vector, its nearest among a bank's first ``rows`` vectors."""

    rows: int
    d2: np.ndarray  # (n,) float64 reference squared distance
    index: np.ndarray  # (n,) int64 bank index, the lowest on ties


@dataclass
class ScoreResult:
    s_star: float  # raw max-min distance over patches
    s: float  # re-weighted image score, 0 <= s <= s_star
    nearest: Nearest  # per patch, for a later search of appended rows


def search(index: SearchIndex, vectors: np.ndarray, known: Nearest | None = None) -> Nearest:
    """Each test vector's nearest over every row of ``index``: the one exact search.

    The result equals the reference search bit for bit: for each test
    vector t, the bank index j minimising d_j = ``((t - b_j)**2).sum()``
    in float64, ties to the lowest j, and d_j.

    Screen. For each chunk of test vectors one matmul gives
    s_j = ||t||^2 + ||b_j||^2 - 2 t.b_j; ``_screen_tolerance`` gives
    tau with |s_j - d_j| <= E and tau >= 2E plus room for one rounding.
    Let j* be the reference winner and m the screen's row minimum. Then
    s_j* <= d_j* + E <= d_m + E <= s_m + 2E, so every j with
    s_j <= s_m + tau is kept as a candidate, j* among them.

    Rerank. Each candidate's d_j is computed with the reference
    (``_reference_d2``), and each row takes the first minimum
    over its own candidates, in bank order, as argmin over the row
    would: any candidate before j* has d_j > d_j*, so the result is j*.
    Every row keeps at least its screen minimum (tau >= 0). Screen
    values never reach an output, so BLAS threads or summation order
    cannot change a result.

    Appended rows. ``known`` is the answer for the same vectors over the
    index's first ``known.rows`` rows; then only the rows after those
    are screened and re-ranked. The merge is bit-identical to searching
    every row: a row appended later has a higher index, so it replaces
    the known winner only when its reference d^2 is strictly smaller,
    and a tie keeps the older, lower index, as the full search's argmin
    does. The comparison is on d^2, never on its square root, which can
    round two distances to a tie.
    """
    start = 0 if known is None else known.rows
    bank_v = index.vectors[start:]
    bank_sq = index.sq[start:]
    test_v = np.asarray(vectors, dtype=np.float64)
    dim = bank_v.shape[1]
    bank_sq_max = bank_sq.max()
    nn_idx = np.empty(test_v.shape[0], dtype=np.int64)
    nn_d2 = np.empty(test_v.shape[0], dtype=np.float64)
    for first in range(0, test_v.shape[0], _SCORE_CHUNK):
        chunk = test_v[first : first + _SCORE_CHUNK]
        test_sq = np.einsum("nd,nd->n", chunk, chunk)
        screen = chunk @ bank_v.T
        screen *= -2.0
        screen += bank_sq
        screen += test_sq[:, None]
        bound = screen.min(axis=1) + _screen_tolerance(dim, test_sq + bank_sq_max)
        candidates = np.flatnonzero(screen <= bound[:, None])
        del screen
        # row-major: each row's candidates are one run, in bank order
        t_rows, b_rows = np.divmod(candidates, bank_v.shape[0])
        del candidates
        d2 = _reference_d2(chunk, t_rows, bank_v, b_rows)
        row_starts = np.searchsorted(t_rows, np.arange(chunk.shape[0]))
        row_min = np.minimum.reduceat(d2, row_starts)
        # each row's first candidate at its minimum
        hits = np.flatnonzero(d2 == row_min[t_rows])
        first_hits = hits[np.searchsorted(hits, row_starts)]
        nn_idx[first : first + chunk.shape[0]] = b_rows[first_hits]
        nn_d2[first : first + chunk.shape[0]] = d2[first_hits]
    nn_idx += start
    if known is not None:
        older = nn_d2 >= known.d2
        nn_d2[older] = known.d2[older]
        nn_idx[older] = known.index[older]
    return Nearest(index.count, nn_d2, nn_idx)


def score_patches(
    bank: MemoryBank,
    grid: PatchFeatureGrid,
    index: SearchIndex,
    known: Nearest | None = None,
) -> tuple[Nearest, np.ndarray, int]:
    """Nearest bank vector per patch plus the maximum-score summary.

    ``index`` is the bank's search index; ``known`` lets ``search`` look
    only at the rows appended since it was found.
    Returns (per-patch Nearest in row-major patch order, per-patch
    distances sqrt(d^2), patch_index). The image's raw score s_star is
    ``distances[patch_index]``, the largest; argmax ties resolve to the
    lowest row-major patch, nearest-neighbor ties to the lowest bank
    index.
    """
    if bank.count == 0:
        raise DetectorError("empty-bank", "bank has no vectors")
    if grid.dim != bank.dim:
        raise DetectorError("dim-mismatch", f"grid dim {grid.dim} != bank dim {bank.dim}")
    nearest = search(index, code_points(grid.vectors), known)
    distances = np.sqrt(nearest.d2)
    return nearest, distances, int(np.argmax(distances))


def reweight(index: SearchIndex, test_vector: np.ndarray, s_star: float, b: int) -> float:
    """Softmax importance re-weighting of the raw image score.

    With b = 1 the score passes through unchanged. Otherwise the b rows
    of the bank's search index nearest to the test vector form the
    neighborhood; the score scales by one minus the softmax weight of
    its smallest distance, the nearest neighbor's, with max-subtraction
    for stability. That is the search's answer for the test vector bit
    for bit: ``search`` is exact under the same ``_reference_d2``, so
    its d^2 is the smallest of these d^2, and a tie at the minimum is
    one value, whichever index wins it.
    """
    if not 1 <= b <= index.count:
        raise DetectorError("b-out-of-range", f"b={b} for bank of {index.count}")
    if b == 1:
        return s_star
    test = np.asarray(test_vector, dtype=np.float64).ravel()
    if test.size != index.dim:
        raise DetectorError("dim-mismatch", f"test vector dim {test.size} != {index.dim}")
    d = np.sqrt(_reference_d2(index.vectors, np.arange(index.count), test))
    hood = np.sort(np.partition(d, b - 1)[:b])  # the b smallest, ascending
    shift = hood.max()
    weight = np.exp(hood[0] - shift) / np.sum(np.exp(hood - shift))
    return float((1.0 - weight) * s_star)


def score_image(
    bank: MemoryBank,
    grid: PatchFeatureGrid,
    b: int,
    index: SearchIndex,
    known: Nearest | None = None,
) -> tuple[ScoreResult, np.ndarray]:
    """Image-level score plus the grid-resolution anomaly map.

    The map keeps the raw per-patch nearest distances; only the scalar
    image score is re-weighted. ``index`` and ``known`` are as in
    ``score_patches``; re-weighting always reads the whole bank.
    """
    nearest, distances, patch_index = score_patches(bank, grid, index, known)
    s_star = float(distances[patch_index])
    test_vector = code_points(grid.vectors[patch_index : patch_index + 1])
    s = reweight(index, test_vector, s_star, b)
    return ScoreResult(s_star, s, nearest), distances.reshape(grid.grid_h, grid.grid_w)


def render_anomaly_map(
    patch_maps: np.ndarray,
    image_h: int,
    image_w: int,
    patch_size: int,
    stride: int,
    smoothing_sigma: float,
) -> np.ndarray:
    """Bilinear upsample of patch-score grids to pixel resolution.

    ``patch_maps`` is one (gh, gw) grid or a stack (..., gh, gw) of
    grids of one image size; the result is (..., image_h, image_w).
    Every map of a stack goes through the same operations in the same
    order as alone, so each is bit-identical to its own 2-D call; a
    stack only makes the numpy calls once for all of its maps.

    Patch (r, c) is anchored at its window center
    (r*stride + (patch_size-1)/2, likewise for columns); pixels outside
    the span of centers clamp to the border value. A Gaussian blur with
    ``smoothing_sigma`` pixels follows; below 0.125 its kernel radius is
    0, so the map is left as it is.

    Each pixel is ``((g00 (1-wy)) (1-wx)) + ((g01 (1-wy)) wx)
    + ((g10 wy) (1-wx)) + ((g11 wy) wx)``, added left to right. The grid
    rows are weighted by ``1 - wy`` and ``wy`` first, at image height by
    grid width; each term is then a column take of one of them, scaled by
    ``1 - wx`` or ``wx`` in one scratch buffer, so only the result and
    that buffer are full-size.
    """
    grid = np.asarray(patch_maps, dtype=np.float64)
    if grid.ndim < 2 or grid.size == 0:
        raise DetectorError("bad-dims", "patch map must be a nonempty 2-D grid or a stack of them")
    if image_h < patch_size or image_w < patch_size:
        raise DetectorError("bad-dims", "image smaller than one patch")
    gh, gw = grid.shape[-2:]
    expected = ((image_h - patch_size) // stride + 1, (image_w - patch_size) // stride + 1)
    if (gh, gw) != expected:
        raise DetectorError(
            "bad-dims",
            f"patch map {gh}x{gw} inconsistent with image {image_h}x{image_w} "
            f"at patch {patch_size}/stride {stride} (expected {expected[0]}x{expected[1]})",
        )
    offset = (patch_size - 1) / 2.0

    def coords(n_pixels: int, n_cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u = (np.arange(n_pixels, dtype=np.float64) - offset) / stride
        u = np.clip(u, 0.0, n_cells - 1.0)
        lo = np.floor(u).astype(np.int64)
        lo = np.minimum(lo, n_cells - 1)
        hi = np.minimum(lo + 1, n_cells - 1)
        return lo, hi, u - lo

    y0, y1, wy = coords(image_h, gh)
    x0, x1, wx = coords(image_w, gw)
    top = grid[..., y0, :] * (1 - wy)[:, None]
    bottom = grid[..., y1, :] * wy[:, None]
    # mode="clip" lets take write straight into ``out``; the indices are
    # in range by construction, so it clips nothing
    vx = 1 - wx
    upsampled = np.take(top, x0, axis=-1, mode="clip")
    upsampled *= vx
    term = np.empty_like(upsampled)
    for rows, cols, weight in ((top, x1, wx), (bottom, x0, vx), (bottom, x1, wx)):
        np.take(rows, cols, axis=-1, out=term, mode="clip")
        term *= weight
        upsampled += term
    del term, rows, top, bottom  # the blur's buffers peak next
    if smoothing_sigma > 0:
        upsampled = _gaussian_blur(upsampled, smoothing_sigma)
    return upsampled


def _gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of each (H, W) map of a (..., H, W) stack,
    bit-identical to ``ndimage.gaussian_filter`` on that map alone.

    The kernel ``exp(-x^2 / (2 sigma^2))``, normalised, spans
    ``int(4 sigma + 0.5)`` pixels each side; borders reflect
    (``d c b a | a b c d | d c b a``), repeated for a kernel wider than
    the image. Axis -2 is filtered first, then axis -1. Each output adds
    ``x[i] w[r]``, then ``(x[i-j] + x[i+j]) w[r-j]`` from the outermost
    pair inward: the order of ndimage's symmetric correlation, so every
    rounding step is the same, and every step is elementwise, so a map
    rounds the same in a stack as alone. Each pass moves its axis first
    and pads along it into a contiguous copy, so both passes add whole
    slabs of every map at once; the second pass frees its input, the
    first pass's result, once it is padded.
    """
    radius = int(4.0 * sigma + 0.5)
    if radius == 0:  # one tap of weight 1 (sigma < 0.125): no blur
        return image
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    taps = taps / taps.sum()
    out = image
    for axis in (-2, -1):
        moved = np.moveaxis(out, axis, 0)
        del out
        n = moved.shape[0]
        index = np.arange(-radius, n + radius) % (2 * n)
        padded = moved[np.where(index < n, index, 2 * n - 1 - index)]
        del moved  # the first pass's result, in the second pass
        out = padded[radius : radius + n] * taps[radius]
        pair = np.empty_like(out)
        for j in range(radius, 0, -1):
            lo, hi = radius - j, radius + j
            np.add(padded[lo : lo + n], padded[hi : hi + n], out=pair)
            pair *= taps[radius - j]
            out += pair
        del padded, pair
    # (W, H, ...) back to (..., H, W)
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), (-1, -2)))


def extend_bank_for_task(bank: MemoryBank, task: MemoryBank) -> MemoryBank:
    """Append a new task's bank after the existing rows, which are kept.

    ``task`` is the task's coreset in pick order, or its whole bank in
    natural order when its ``l`` keeps every row. Queries on the result
    search the union of all tasks, so adding a task can only tighten
    nearest-neighbor distances for earlier tasks.
    """
    if task.dim != bank.dim:
        raise DetectorError("dim-mismatch", f"task dim {task.dim} != {bank.dim}")
    return MemoryBank(np.concatenate([bank.codes, task.codes], axis=0))


def write_bank_file(bank: MemoryBank, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, bank.dim, bank.count))
        fh.write(bytes(4 * bank.count))  # the v1 task-tag block: every tag 0
        fh.write(np.ascontiguousarray(intensities(bank.codes), dtype="<f4").tobytes())

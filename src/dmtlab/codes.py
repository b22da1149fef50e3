"""Codebook construction and code-design criteria for selective fading.

The central object is the effective codeword difference matrix: the Hadamard
product of the transposed slot covariance with the Gram matrix of a codeword
difference. Its nonzero eigenvalues control pairwise error behavior, and the
design metric is the minimum over codeword pairs of the product of the
min_ant smallest structurally nonzero eigenvalues.

Threshold convention: a family operating at multiplexing rate r passes a
criterion at slack ``epsilon`` when the measured quantity is at least
``snr ** -(r + epsilon)``, i.e. it may decay at most ``epsilon`` faster
(in SNR exponent) than the nominal target ``snr ** -r``.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _util
from ._util import batches, complex_pairs, eig_rank, json_complex, json_field, spawn_rng

_EXHAUSTIVE_CAP = 50_000
_LISTED_FAILURES = 100  # failing pairs a rank report lists


def criterion_threshold(snr, mux_rate, epsilon):
    """Pass level for rate-r criteria: snr ** -(r + epsilon). The one check
    of the rate, the slack and the SNR: all must be finite, r >= 0,
    epsilon > 0 and snr > 1, and the level must be a normal float: at 0 every
    metric would pass, and below the normal range a margin metric / level
    overflows."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive")
    if not (math.isfinite(snr) and snr > 1):
        raise ValueError("grid SNRs must exceed 1")
    if not (math.isfinite(mux_rate) and mux_rate >= 0):
        raise ValueError(f"multiplexing rate r must be finite and nonnegative, got {mux_rate:g}")
    threshold = float(snr) ** (-(mux_rate + epsilon))
    if threshold < np.finfo(float).tiny:
        raise ValueError(f"threshold snr ** -(r + epsilon) rounds to 0 or a subnormal at "
                         f"snr = {snr:g}, r = {mux_rate:g}")
    return threshold


@dataclass(frozen=True)
class QamFamily:
    """Square QAM constellation scaled so the minimum distance tracks the rate."""

    per_dim: int
    scale: float
    points: np.ndarray
    snr: float
    mux_rate: float

    def __post_init__(self):
        self.points.setflags(write=False)

    def __len__(self):
        return self.points.size


def qam_family(snr, r):
    """QAM family with about snr**r points inside the unit disk.

    The per-dimension count is round(snr**(r/2)) (at least 1) on a centered
    unit-step integer grid, scaled by sqrt(2/snr**r) so the squared minimum
    distance is exactly 2/snr**r.
    """
    if not (math.isfinite(snr) and math.isfinite(r)):
        raise ValueError("snr and multiplexing rate must be finite")
    if snr < 1:
        raise ValueError("snr must be at least 1")
    if r < 0:
        raise ValueError("multiplexing rate must be nonnegative")
    per_dim = max(1, round(snr ** (r / 2)))
    scale = math.sqrt(2.0 / snr ** r)
    axis = np.arange(per_dim) - (per_dim - 1) / 2.0
    grid_a, grid_b = np.meshgrid(axis, axis, indexing="ij")
    points = scale * (grid_a + 1j * grid_b).reshape(-1)
    if np.max(np.abs(points)) > 1.0 + 1e-12:
        raise AssertionError("constellation escaped the unit disk")
    return QamFamily(per_dim=per_dim, scale=scale, points=points,
                     snr=float(snr), mux_rate=float(r))


def _slot_words(points, perms):
    """(cardinality, num_slots) words whose word k carries ``points[perms[s][k]]``
    in slot s; the slot maps are not checked."""
    return np.stack([points[np.asarray(perm, dtype=int)] for perm in perms], axis=1)


def permutation_codebook(family, perms):
    """Single-antenna codebook of the ``_slot_words`` of ``perms``; validates
    that every slot map is a bijection on the family."""
    perms = [np.asarray(perm, dtype=int) for perm in perms]
    for perm in perms:
        if not np.array_equal(np.sort(perm), np.arange(len(family))):
            raise ValueError("each slot permutation must be a bijection on the family")
    words = _slot_words(family.points, perms)
    return Codebook(words[:, None, :], family.snr, family.mux_rate)


@dataclass(frozen=True)
class Codebook:
    """SNR-parametrized set of num_tx x block_len codeword matrices. The
    receive count is not part of a code: the criteria take it as ``num_rx``."""

    words: np.ndarray  # (cardinality, num_tx, block_len)
    snr: float
    mux_rate: float

    def __post_init__(self):
        words = np.asarray(self.words, dtype=complex)
        object.__setattr__(self, "words", words)
        if words.ndim != 3:
            raise ValueError("words must be a stack of matrices")
        _, num_tx, block_len = words.shape
        if not np.all(np.isfinite(words)):
            raise ValueError("codeword entries must be finite")
        powers = np.sum(np.abs(words) ** 2, axis=(1, 2))
        if np.max(powers) > block_len * num_tx * (1 + 1e-9):
            raise ValueError("codeword violates the peak power constraint")
        words.setflags(write=False)

    def __len__(self):
        return self.words.shape[0]

    @property
    def scalar_words(self):
        """(cardinality, block_len) words of a single transmit antenna
        codebook: the form outer codes and the scalar criteria read."""
        if self.words.shape[1] != 1:
            raise ValueError("criterion applies to single transmit antenna codebooks")
        return self.words[:, 0, :]

    def to_json(self):
        _, mt, n = self.words.shape
        return {"mt": mt, "n": n, "snr": self.snr, "r": self.mux_rate,
                "words": complex_pairs(self.words.reshape(len(self), -1))}

    @classmethod
    def from_json(cls, payload):
        """Inverse of ``to_json``: every row must hold mt * n pairs, mt, n >= 1."""
        mt = json_field(payload, "mt", "codebook", int)
        n = json_field(payload, "n", "codebook", int)
        words = json_complex(payload, "words", "codebook", 2)
        if min(mt, n) < 1 or words.shape[1] != mt * n:
            raise ValueError(f"codebook.words: rows must hold mt * n = {mt} * {n} "
                             f"pairs with mt, n >= 1, got {words.shape[1]}")
        return cls(words=words.reshape(-1, mt, n),
                   snr=json_field(payload, "snr", "codebook", float),
                   mux_rate=json_field(payload, "r", "codebook", float))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# pairwise sweeps


def pair_chunks(num, per_pair):
    """Unordered pairs i < j of ``num`` items as (ii, jj) index batches in
    ``np.triu_indices(num, 1)`` order, in the ``_util.batches`` of temporaries
    of ``per_pair`` real entries a pair."""
    rows = np.arange(num)
    starts = rows * (2 * num - rows - 1) // 2  # linear index of pair (i, i + 1)
    for batch in batches(num * (num - 1) // 2, per_pair):
        lo, hi = batch.start, batch.stop
        span = rows[np.searchsorted(starts, lo, "right") - 1:
                    np.searchsorted(starts, hi - 1, "right")]
        counts = (np.minimum(starts[span] + num - 1 - span, hi)
                  - np.maximum(starts[span], lo))
        ii = np.repeat(span, counts)
        yield ii, np.arange(lo, hi) - np.repeat(starts[span], counts) + ii + 1


def _sort_slots(values):
    """Sort along the first (slot) axis in place: an odd-even transposition
    network of elementwise min/max, whose passes grow as slots**2. Per
    32 768 columns on one core it took, on int16 distances (the search's
    integer kernel), 0.06-0.09, 0.30-0.45 and 1.3-2.0 ms at 4, 8 and 16
    slots, against 1.8-3.3 ms for ``np.sort``; on float64 it took 0.26-0.38
    ms at 4 slots but 6.5-8.6 ms at 16, where a row-wise ``np.sort`` of
    contiguous rows took 1.5 ms."""
    count = len(values)
    for phase in range(count):
        for s in range(phase % 2, count - 1, 2):
            low = np.minimum(values[s], values[s + 1])
            np.maximum(values[s], values[s + 1], out=values[s + 1])
            values[s] = low
    return values


def pair_strips(num, per_pair):
    """Row strips ``(i0, i1)`` of the pair triangle of ``num`` items: rows
    i0..i1-1 against the columns i0+1..num-1, as rectangles of temporaries
    of ``per_pair`` real entries a cell within ``_util.BATCH_BUDGET``. A
    strip is at most an eighth of its column count high, so the cells below
    the diagonal (j <= i), which are not pairs, stay under 1/16 of it."""
    i0 = 0
    while i0 < num - 1:
        cols = num - 1 - i0
        i1 = i0 + max(1, min(_util.BATCH_BUDGET // (per_pair * cols), -(-cols // 8)))
        yield i0, i1
        i0 = i1


@functools.lru_cache(maxsize=256)
def _below(height):
    """``np.tril_indices(height, -1)``, read-only: the cells j <= i of a strip
    of ``height`` rows. Heights repeat across strips and sweeps, so each
    index is built once."""
    below = np.tril_indices(height, -1)
    for index in below:
        index.setflags(write=False)
    return below


def distance_strips(words):
    """Sorted squared slot distances |w_i - w_j|**2 of scalar codewords
    (cardinality, num_slots), one ``pair_strips`` strip at a time: yields
    ``(rows, cols, dist2, below)`` with word indices ``rows`` (h, 1) and
    ``cols`` (width,), ``dist2`` (num_slots, h, width) sorted along the slot
    axis, and ``below`` the index of the cells with j <= i. In C order the
    other cells are the pairs of the strip in ``np.triu_indices`` order.
    Every strip is computed in one buffer, so ``dist2`` is overwritten by
    the next strip; a fresh buffer a strip would be handed back to the OS
    by malloc and faulted in again each time."""
    num, slots = words.shape
    re, im = np.ascontiguousarray(words.real.T), np.ascontiguousarray(words.imag.T)
    buf = np.empty(max(_util.BATCH_BUDGET, 2 * slots * (num - 1)))
    for i0, i1 in pair_strips(num, 2 * slots):
        dx, dy = buf[:2 * slots * (i1 - i0) * (num - 1 - i0)].reshape(2, slots, i1 - i0, -1)
        np.subtract(re[:, i0:i1, None], re[:, None, i0 + 1:], out=dx)
        np.subtract(im[:, i0:i1, None], im[:, None, i0 + 1:], out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        yield (np.arange(i0, i1)[:, None], np.arange(i0 + 1, num),
               _sort_slots(dx), _below(i1 - i0))


def _pair_buffers(words, weight, count):
    """Buffers of ``_pair_matrices`` for up to ``count`` pairs of ``words``."""
    n = words.shape[-1]
    side = (count,) + words.shape[1:]
    return (np.empty(side, words.dtype), np.empty(side, words.dtype),
            np.empty(side[:-2] + (n, n), np.result_type(words, weight)))


def _pair_matrices(words, weight, ii, jj, bufs):
    """``weight * (e^H e)`` for e = w_i - w_j over the pairs (ii, jj) of words
    (cardinality, ..., num_tx, block_len), computed in the ``_pair_buffers``
    ``bufs``; returns a view of the last buffer."""
    n = words.shape[-1]
    if weight.shape != (n, n):
        raise ValueError("difference length does not match the covariance size")
    a, b, mat = (buf[:len(ii)] for buf in bufs)
    np.take(words, ii, axis=0, out=a, mode="clip")  # indices are valid; no buffering
    np.take(words, jj, axis=0, out=b, mode="clip")
    np.subtract(a, b, out=b)
    np.conjugate(b, out=a)
    np.einsum("...mi,...mj->...ij", a, b, out=mat)
    return np.multiply(weight, mat, out=mat)


def pair_eigvals(words, weight, ii, jj):
    """Ascending eigenvalues of ``weight * (e^H e)`` for e = w_i - w_j, over
    words (cardinality, ..., num_tx, block_len): with the transposed slot
    covariance as ``weight``, the effective-difference eigenvalues."""
    return np.linalg.eigvalsh(_pair_matrices(words, weight, ii, jj,
                                             _pair_buffers(words, weight, len(ii))))


def effective_matrices(words, weight):
    """The ``pair_eigvals`` matrices of every pair of ``words`` as
    ``(ii, jj, mat)`` in ``pair_chunks`` batches. All batches are computed in
    the same buffers, so ``mat`` is overwritten by the next batch; fresh
    buffers a batch would be handed back to the OS by malloc and faulted in
    again each time."""
    n = words.shape[-1]
    if len(words) < 2:
        raise ValueError("need at least two codewords")
    bufs = None
    for ii, jj in pair_chunks(len(words), 2 * n * n):
        bufs = bufs or _pair_buffers(words, weight, len(ii))  # the first batch is largest
        yield ii, jj, _pair_matrices(words, weight, ii, jj, bufs)


@dataclass
class WorstPair:
    """Running minimum of a per-pair statistic; ties keep the first pair in
    C order."""

    value: float = np.inf
    pair: tuple = (-1, -1)

    def update(self, values, ii, jj):
        """Fold in ``values`` of the pairs (ii, jj), index arrays that
        broadcast to its shape."""
        k = np.unravel_index(np.argmin(values), values.shape)
        if values[k] < self.value:
            ii, jj = np.broadcast_arrays(ii, jj)
            self.value, self.pair = float(values[k]), (int(ii[k]), int(jj[k]))


def pairwise_min_products(words, m):
    """Exhaustive worst pair of a (cardinality, num_slots) array of scalar
    codewords: the minimum over unordered pairs of the product of the m
    smallest squared slot distances. m >= num_slots gives the full product
    and m = 1 the smallest entry."""
    words = np.asarray(words, dtype=complex)
    num, _ = words.shape
    if num < 2:
        raise ValueError("need at least two codewords")
    if m < 1:
        raise ValueError("m must be at least 1")
    worst = WorstPair()
    for rows, cols, dist2, below in distance_strips(words):
        small = dist2[:m].prod(axis=0)
        small[below] = np.inf
        worst.update(small, rows, cols)
    return worst


# ---------------------------------------------------------------------------
# permutation search


def _affine_perm(coeffs, per_dim):
    """Permutations (..., per_dim**2) of the per_dim x per_dim grid from
    invertible affine maps (..., 6)."""
    a, b, c, d, s, u = np.moveaxis(np.asarray(coeffs), -1, 0)[..., None]
    x, y = np.divmod(np.arange(per_dim * per_dim), per_dim)
    nx = (a * x + b * y + s) % per_dim
    ny = (c * x + d * y + u) % per_dim
    return nx * per_dim + ny


def _random_affines(per_dim, count, rng):
    """(count, 6) coefficients (a, b, c, d, s, u) of invertible affine maps.

    Each map draws a, b, c, d until ad - bc is a unit mod per_dim, then s, u.
    The walk reads one block draw; the generator is then rewound and advanced
    by exactly the values read. Below 2**32 numpy reads bounded integers from
    one contiguous 32-bit stream however the calls are sized, so maps and
    stream equal those of one ``rng.integers`` call per 4 or 2 values.
    """
    q = per_dim
    units = np.array([math.gcd(v, q) == 1 for v in range(q)])
    state = rng.bit_generator.state
    values = np.empty(0, dtype=np.int64)
    starts, pos = [], 0
    while len(starts) < count:
        values = np.concatenate([values, rng.integers(0, q, 16 * (count - len(starts)) + 6)])
        a, b, c, d = (values[k:len(values) - 5 + k] for k in range(4))
        step = np.where(units[(a * d - b * c) % q], 6, 4).tolist()
        while len(starts) < count and pos < len(step):
            if step[pos] == 6:
                starts.append(pos)
            pos += step[pos]
    rng.bit_generator.state = state
    rng.integers(0, q, starts[-1] + 6)
    return values[np.add.outer(starts, np.arange(6))]


def _lattice_dtype(per_dim):
    """Integer type of the lattice kernels on a per_dim x per_dim grid: int16
    while it holds 2 (per_dim - 1)**2, the largest squared distance and the
    largest a * x + b * y of an affine map, else int32."""
    return np.int16 if 2 * (per_dim - 1) ** 2 <= np.iinfo(np.int16).max else np.int32


def _torus_bound_score(maps, per_dim):
    """Conservative per-difference distance bounds on the coordinate torus.

    For affine slot maps the image coordinate difference is congruent to the
    mapped difference mod per_dim, so its magnitude is at least the circular
    distance. ``maps`` is (candidates, num_slots, 6) with the identity map
    in slot 0 of every candidate, as ``search_permutations`` draws them:
    that slot's distances are computed once. Returns per candidate (min
    2-smallest product, min full product) over all nonzero index
    differences, in grid units. A difference and its negation mod per_dim
    have the same circular distances in every slot, since each map is
    linear in the difference, so only the one of lower linear index is
    scored.
    """
    q = per_dim
    dtype = _lattice_dtype(q)
    maps = np.asarray(maps).astype(dtype)[:, 1:].transpose(1, 0, 2)  # slot axis first
    rest, count, _ = maps.shape
    idx = np.arange(1, q * q)
    da, db = np.divmod(idx, q)
    half = idx <= (-da % q) * q + (-db % q)
    da, db = da[half].astype(dtype), db[half].astype(dtype)
    first = np.minimum(da, q - da) ** 2 + np.minimum(db, q - db) ** 2
    two_small, full = np.empty(count), np.empty(count)
    for batch in batches(count, 2 * (rest + 1) * q * q):
        a, b, c, d = (maps[:, batch, k, None] for k in range(4))
        va, vb = a * da + b * db, c * da + d * db
        va -= va // q * q  # mod q: numpy vectorizes a floor division by a scalar, not %
        vb -= vb // q * q
        dist = np.empty((rest + 1,) + va.shape[1:], dtype)
        dist[0] = first
        np.add(np.minimum(va, q - va) ** 2, np.minimum(vb, q - vb) ** 2, out=dist[1:])
        dist = _sort_slots(dist).astype(float)
        two_small[batch] = (dist[0] * dist[1]).min(axis=-1)
        full[batch] = dist.prod(axis=0).min(axis=-1)
    return two_small, full


def _lattice_margin(per_dim, m):
    """Factor w for the integer kernel of ``_lattice_products``: if fl(a * w)
    < b for kernel products a and b of two pairs of the same family, the
    float product of ``pairwise_min_products`` is strictly smaller for a.

    A point of ``qam_family`` has coordinates fl(s * c) for the half-integer
    c = x - (q - 1) / 2, |c| <= (q - 1) / 2, and s = ``scale``; u = 2**-53.
    For the integer coordinate difference t = x_i - x_j != 0 the float
    difference is fl(fl(s c_i) - fl(s c_j)), and fl(s c_i) - fl(s c_j) =
    s t (1 + e) with |e| <= u (|c_i| + |c_j|) / |t| <= (q - 1) u; the
    difference, its square and the sum of the two squares round once each.
    So a float squared slot distance is s**2 D (1 + f) for the integer D =
    tx**2 + ty**2, with 1 - 2 (q + 1) u <= 1 + f <= exp(2 (q + 1) u), and is
    exactly 0 when D = 0. Distinct integers stay in order (2 (q + 1) u D is
    far below 1/2), so the m smallest float distances are those of the m
    smallest D. Their float product rounds m - 1 times, and the kernel's
    float64 product of the exact D another m - 1 times. So the float product
    is s**(2m) a (1 + g) with |g| <= eps = N u (1 + N u), N = m (2q + 4),
    and a (1 + eps) < b (1 - eps) proves the claim; w = 1 + 8 eps covers
    (1 + eps) / (1 - eps) with the rounding of w and of a * w. The bounds
    assume normal floats, s**(2m) >= (2 / (q + 1)**2)**m > 2**-1000 and
    (2 (q - 1)**2)**m < 2**1000: up to m = 60 on the int16 grids (q <= 128)
    and up to m = 30 for q <= 1000."""
    n = m * (2 * per_dim + 4) * 2.0 ** -53
    return 1 + 8 * n * (1 + n)


def _lattice_strips(num, per_pair):
    """The strips of the integer sweep: ``pair_strips``, except that a code
    whose whole square of (num - 1)**2 cells fits in an eighth of the batch
    budget takes its triangle as one strip, where ``pair_strips``' height
    cap would cut it into strips of a few rows."""
    if (num - 1) ** 2 * per_pair <= _util.BATCH_BUDGET // 8:
        return [(0, num - 1)]
    return list(pair_strips(num, per_pair))


def _lattice_products(coords, m, i0, i1, bufs):
    """Integer kernel of the search: for candidate codes of integer lattice
    coordinates ``coords`` (2, slots, count, num), the float64 product of
    the m smallest squared slot distances of the pairs of the strip rows
    i0..i1-1 against columns i0+1..num-1, as (count, h, width) with the
    cells j <= i set to +inf. The distances are exact integers in the
    coordinates' dtype; the full product (m >= slots) needs no sort. Works
    in the buffers ``bufs`` (integer, float); returns a view of the second."""
    _, slots, count, num = coords.shape
    h, width = i1 - i0, num - 1 - i0
    diff = bufs[0][:2 * slots * count * h * width].reshape(2, slots, count, h, width)
    np.subtract(coords[..., i0:i1, None], coords[..., None, i0 + 1:], out=diff)
    diff *= diff
    dist = np.add(diff[0], diff[1], out=diff[0])
    if m < slots:
        _sort_slots(dist)
    prod = bufs[1][:count * h * width].reshape(count, h, width)
    np.copyto(prod, dist[0])
    for row in dist[1:m]:
        prod *= row
    below = _below(h)
    prod[:, below[0], below[1]] = np.inf
    return prod


def _lattice_sweep(coords, m, strips, bufs, w, stop, kept):
    """Continue one candidate's sweep (``coords`` of count 1) over
    ``strips``, from the cells (ii, jj, values) ``kept`` so far, which hold
    the smallest kernel product of the pairs before. Returns its kernel
    minimum and its pairs (ii, jj), in ``np.triu_indices`` order, whose
    kernel product is at most fl(low * w): by ``_lattice_margin`` every
    other pair's float product exceeds the candidate's float minimum.
    Returns None once fl(low * w) < ``stop``."""
    low = min(values.min() for *_, values in kept)
    for i0, i1 in strips:
        prod = _lattice_products(coords, m, i0, i1, bufs)[0]
        top = prod.min()
        low = min(low, top)
        if low * w < stop:
            return None
        if top <= low * w:
            rows, cols = np.nonzero(prod <= low * w)
            kept.append((rows + i0, cols + i0 + 1, prod[rows, cols]))
    ii, jj, values = (np.concatenate(part) for part in zip(*kept))
    near = values <= low * w
    return low, ii[near], jj[near]


def _screen(coords, m, strip, bufs, w):
    """Each candidate's kernel minimum over the pairs of ``strip``, an upper
    bound on its kernel minimum, and the cells of the strip within w of it
    as (kk, ii, jj, values) in candidate, then ``np.triu_indices`` order;
    in candidate batches of one ``_lattice_products`` call each."""
    _, slots, count, num = coords.shape
    i0, i1 = strip
    bound, cells = np.empty(count), []
    for batch in batches(count, 2 * slots * (i1 - i0) * (num - 1 - i0)):
        prod = _lattice_products(coords[:, :, batch], m, i0, i1, bufs)
        low = bound[batch] = prod.reshape(len(prod), -1).min(axis=1)
        kk, rows, cols = np.nonzero(prod <= (low * w)[:, None, None])
        cells.append((kk + batch.start, rows + i0, cols + i0 + 1, prod[kk, rows, cols]))
    return bound, [np.concatenate(part) for part in zip(*cells)]


def _float_winner(points, perms, kk, ii, jj, m):
    """The candidate of the largest float minimum, the first in list order
    of equal ones, as (index, ``WorstPair``), from cells (kk, ii, jj)
    grouped by ascending candidate, each group in ``np.triu_indices`` order
    and holding every pair that can reach its candidate's float minimum.
    The values are the float formula of ``distance_strips`` in its
    operation order, so each is bitwise the full sweep's."""
    one, two = points[perms[kk, :, ii]].T, points[perms[kk, :, jj]].T
    dx, dy = one.real - two.real, one.imag - two.imag
    dx *= dx
    dy *= dy
    dx += dy
    values = _sort_slots(dx)[:m].prod(axis=0)
    starts = np.flatnonzero(np.diff(kk, prepend=-1))
    group = int(np.argmax(np.minimum.reduceat(values, starts)))
    ends = np.append(starts[1:], len(kk))
    cut = slice(starts[group], ends[group])
    worst = WorstPair()
    worst.update(values[cut], ii[cut], jj[cut])
    return int(kk[cut.start]), worst


def _best_candidate(family, perms, m):
    """The first candidate in list order with the largest float minimum of
    ``pairwise_min_products(words, m)``, over candidate slot maps ``perms``
    (count, slots, size) of ``family``, as (index, ``WorstPair``).

    The float minimum is s**(2m) times a candidate's integer kernel minimum
    within ``_lattice_margin``. ``_screen`` bounds every candidate by its
    first strip, which for a tiny code is the whole triangle. Candidates
    are then swept best-first, in order of falling bound with ties in list
    order. A candidate is skipped, or its sweep stopped, once its bound or
    running minimum proves it below a candidate swept before. Only the near
    minimum pairs of the candidates that can still win are evaluated in
    float (``_float_winner``)."""
    count, slots, num = perms.shape
    q = family.per_dim
    dtype = _lattice_dtype(q)
    coords = np.stack(np.divmod(perms.astype(dtype).transpose(1, 0, 2), q))
    w = _lattice_margin(q, m)
    strips = _lattice_strips(num, 2 * slots)
    size = max(_util.BATCH_BUDGET, 2 * slots * max((i1 - i0) * (num - 1 - i0)
                                                   for i0, i1 in strips))
    bufs = np.empty(size, dtype), np.empty(size // (2 * slots))
    bound, (kk, ii, jj, values) = _screen(coords, m, strips[0], bufs, w)
    low = bound  # a screen of the whole triangle gives the kernel minima
    if len(strips) > 1:
        low, cells = np.full(count, -np.inf), []
        for k in np.argsort(-bound, kind="stable"):
            if bound[k] * w < low.max():
                break  # this and every later candidate is proven to lose
            cut = slice(*np.searchsorted(kk, (k, k + 1)))
            found = _lattice_sweep(coords[:, :, k:k + 1], m, strips[1:], bufs, w, low.max(),
                                   [(ii[cut], jj[cut], values[cut])])
            if found is not None:
                low[k] = found[0]
                cells.append((np.full(len(found[1]), k),) + found[1:])
        kk, ii, jj = (np.concatenate(part)
                      for part in zip(*sorted(cells, key=lambda cell: cell[0][0])))
    keep = low[kk] * w >= low.max()
    return _float_winner(family.points, perms, kk[keep], ii[keep], jj[keep], m)


@dataclass(frozen=True)
class PermutationSearchEntry:
    snr: float
    perms: tuple
    min_product: float
    worst_pair: tuple
    threshold: float
    passes: bool
    method: str


@dataclass(frozen=True)
class PermutationSearch:
    """Per-SNR slot permutations with the achieved worst-pair products."""

    entries: tuple
    mux_rate: float

    def codebook_at(self, snr):
        for entry in self.entries:
            if np.isclose(entry.snr, snr, rtol=1e-9):
                return permutation_codebook(qam_family(entry.snr, self.mux_rate), entry.perms)
        raise KeyError(f"snr {snr!r} was not part of the search grid")


def search_permutations(snr_grid, r, n_slots, budget=2000, master_seed=0, epsilon=0.1):
    """Find slot permutations maximizing the worst-pair product distance.

    For each grid SNR the QAM family is rebuilt and a fresh set of slot
    permutations is selected: exhaustively when the full product space is
    tiny, otherwise from randomized invertible affine maps of the QAM grid
    (screened on a conservative toroidal distance bound, with the finalists
    evaluated exactly) plus plain random permutations for small families.
    The candidates are compared on their lattice coordinates
    (``_best_candidate``), and the winner is the one a float sweep of every
    candidate picks.

    Returns a PermutationSearch whose entries record the exact minimum
    worst-pair product at each SNR and whether it clears
    ``snr ** -(r + epsilon)``; a miss is reported, not raised.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if not isinstance(n_slots, (int, np.integer)) or n_slots < 1:
        raise ValueError(f"n_slots must be an integer >= 1, got {n_slots!r}")
    entries = []
    for grid_idx, snr in enumerate(sorted(snr_grid)):
        fam = qam_family(snr, r)
        size = len(fam)
        threshold = criterion_threshold(snr, r, epsilon)
        identity = tuple(range(size))
        rng = spawn_rng(master_seed, grid_idx)
        if size == 1 or n_slots == 1:
            if size == 1:
                score, pair, method = np.inf, (-1, -1), "vacuous"
            else:
                worst = pairwise_min_products(fam.points[:, None], 1)
                score, pair, method = worst.value, worst.pair, "single-slot"
            entries.append(PermutationSearchEntry(
                snr=float(snr), perms=(identity,) * n_slots, min_product=score,
                worst_pair=pair, threshold=threshold,
                passes=bool(score >= threshold), method=method))
            continue

        if math.factorial(size) ** n_slots <= _EXHAUSTIVE_CAP:
            pool = np.array(list(itertools.permutations(range(size))))
            perms = pool[np.array(list(itertools.product(range(len(pool)), repeat=n_slots)))]
            methods = ["exhaustive"] * len(perms)
        else:
            maps = np.empty((budget, n_slots, 6), dtype=np.int64)
            maps[:, 0] = (1, 0, 0, 1, 0, 0)  # identity map on slot 0
            maps[:, 1:] = _random_affines(fam.per_dim, budget * (n_slots - 1),
                                          rng).reshape(budget, n_slots - 1, 6)
            two_small, full = _torus_bound_score(maps, fam.per_dim)
            finalists = 1 if size > 2048 else 3  # exact sweeps dominate at scale
            order = np.lexsort((-full, -two_small))[:finalists]  # stable: ties in map order
            perms = _affine_perm(maps[order], fam.per_dim)
            methods = ["structured"] * len(perms)
            if size <= 256:
                count = max(1, budget // 8)
                drawn = np.array([rng.permutation(size) for _ in range(count * (n_slots - 1))])
                random = np.empty((count, n_slots, size), dtype=perms.dtype)
                random[:, 0] = identity
                random[:, 1:] = drawn.reshape(count, n_slots - 1, size)
                perms = np.concatenate([perms, random])
                methods += ["random"] * count

        # every candidate map is a bijection by construction
        k, worst = _best_candidate(fam, perms, n_slots)
        entries.append(PermutationSearchEntry(
            snr=float(snr), perms=tuple(map(tuple, perms[k].tolist())),
            min_product=worst.value, worst_pair=worst.pair, threshold=threshold,
            passes=bool(worst.value >= threshold), method=methods[k]))
    return PermutationSearch(entries=tuple(entries), mux_rate=float(r))


# ---------------------------------------------------------------------------
# effective differences and criteria


@dataclass(frozen=True, eq=False)
class EffectiveDifference:
    """Covariance-weighted difference Gram with its eigenvalues and rank."""

    matrix: np.ndarray
    eigvals: np.ndarray  # all block_len eigenvalues, ascending
    rank: int

    def __eq__(self, other):
        """Equal ranks and bitwise-equal arrays."""
        if not isinstance(other, EffectiveDifference):
            return NotImplemented
        return self.rank == other.rank and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("matrix", "eigvals"))


def effective_difference(cov, e):
    """Hadamard product of the transposed covariance with the difference Gram.

    The matrix has at most cov.rank * num_tx nonzero eigenvalues
    (``structural_count``); the remaining ones are structural zeros.
    """
    e = np.asarray(e, dtype=complex)
    if e.ndim != 2:
        raise ValueError("difference must be a num_tx x block_len matrix")
    n = e.shape[1]
    if cov.block_len != n:
        raise ValueError("difference length does not match the covariance size")
    gram = e.conj().T @ e
    matrix = cov.entries.T * gram
    eigvals = np.linalg.eigvalsh(matrix)
    return EffectiveDifference(matrix=matrix, eigvals=eigvals, rank=eig_rank(eigvals, n))


# a few ulps of a word's norm: a projection within it drops nothing the ML
# metric resolves
_SPAN_TOL = 2.0 ** -44


def _slot_spans(slot_words):
    """(basis, coords) of slot-major words x (words, slots, T), read by the
    decode on effective channels H_n B_n (``sim.error_curve``) and by the
    screen of ``screened_eigs``: orthonormal (slots, T, d) bases B_n of the
    top d singular directions of each slot's words, and the coordinates
    B_n^H x_{w,n}, (words, slots, d), for the least d at which every word is
    within _SPAN_TOL of its norm of its projection in every slot. (None,
    slot_words) when that d is T: the words are used as they are."""
    # the words are the rows of each slot's matrix, so they span the rows of vh
    vh = np.linalg.svd(np.swapaxes(slot_words, 0, 1), full_matrices=False)[2]
    norms = np.linalg.norm(slot_words, axis=-1)
    for d in range(slot_words.shape[-1]):
        basis = np.swapaxes(vh[:, :d], 1, 2)
        coords = np.einsum("ndt,wnt->wnd", vh[:, :d].conj(), slot_words)
        residual = slot_words - np.einsum("ntd,wnd->wnt", basis, coords)
        if np.all(np.linalg.norm(residual, axis=-1) <= _SPAN_TOL * norms):
            return basis, coords
    return None, slot_words


def _eig_slack(weight, num_tx):
    """Per unit of trace, a bound on how far an effective difference M (as
    computed) of a difference e lies from the PSD M* = W* o (e^H e), W* the
    PSD part of the Hermitian matrix of the weight's lower triangle (the one
    ``eigvalsh`` reads), and on how far each ``eigvalsh`` eigenvalue of M
    lies from M*'s: the rounding of the Gram, the product and the
    eigensolve, plus the weight's distance from W* (its asymmetry and that
    negative part, the ``defect``), scaled by the weight's smallest diagonal
    entry r_min, since ||A o G|| <= ||A|| max G_ii for a PSD G. The slack
    is at least defect / r_min + 2**-46 (n + num_tx): ``_span_sweep`` reads
    both parts."""
    n = weight.shape[0]
    lower = np.tril(weight) + np.tril(weight, -1).conj().T
    defect = (np.linalg.norm(weight - lower, 2)
              + max(0.0, -float(np.linalg.eigvalsh(weight)[0])))
    return 2.0 ** -46 * (n + num_tx) + defect / float(np.min(weight.diagonal().real))


def _psd_terms(mat, slack):
    """Screen terms of a stack of n x n effective differences M, each within
    eps = slack * tr M of a PSD M* (``_eig_slack``): the real diagonal d,
    eps, ``top`` >= tr M* >= ||M*||, ``det_lo`` <= det M* from one batched
    ``det``, and ``lam_lo`` = det_lo * ((n - 1) / top) ** (n - 1) <= the
    smallest eigenvalue of M* (AM-GM on the other n - 1). That determinant
    is det(M + E) for an LU backward error E with ||E|| <= 4 n**3 2**(n-1)
    u max|M_ij| (pivot growth at most 2**(n-1)), then rounded by numpy's
    sign * exp(log|det|), and |det(M* + F) - det M*| <= n ||F|| (||M*|| +
    ||F||)**(n-1)."""
    n = mat.shape[-1]
    diag = mat.diagonal(axis1=-2, axis2=-1).real
    trace = diag.sum(axis=-1)
    eps = slack * trace
    top = trace + n * eps
    det = np.linalg.det(mat).real
    pert = eps + 4 * n ** 3 * 2 ** (n - 1) * 2.0 ** -53 * top
    logs = n + np.abs(np.log(top)) + np.abs(np.log(np.abs(det)))
    det_lo = det - np.abs(det) * 2.0 ** -50 * n * logs - n * pert * (top + pert) ** (n - 1)
    return diag, eps, top, det_lo, det_lo * ((n - 1) / top) ** (n - 1)


def _rank_bounds(diag, eps, top, det_lo, lam_lo):
    """Bounds (1, pairs) for ``verify_rank_r0``'s screen against 0. Low: the
    margin by which every ``eigvalsh`` eigenvalue clears ``eig_rank``'s
    tolerance RANK_TOL_FACTOR * max|eig| * n, with the largest eigenvalue
    at most top + eps, so a positive margin certifies full rank; up: +inf."""
    n = diag.shape[-1]
    low = lam_lo - eps - _util.RANK_TOL_FACTOR * n * (top + eps) * (1 + 2.0 ** -50)
    return low[None], np.full((1, len(low)), np.inf)


def _xi_bounds(diag, eps, top, det_lo, lam_lo, m):
    """Bounds (1, pairs) on the computed product of the m smallest
    eigenvalues of full-rank-structured effective differences. Low: AM-GM on
    the other n - m eigenvalues, det * ((n - m) / tr) ** (n - m), less the
    eigensolve error eps per factor, relative to the smallest eigenvalue's
    bound. Up: Cauchy interlacing on the principal submatrix of the m
    smallest diagonal entries, then Hadamard's inequality, each entry
    widened by 2 eps. Both are widened for the product's rounding."""
    n = diag.shape[-1]
    low = (det_lo * ((n - m) / top) ** (n - m)
           * np.maximum(0.0, 1 - eps / lam_lo) ** m)
    up = np.prod(np.sort(diag, axis=-1)[:, :m] + 2 * eps[:, None], axis=-1)
    return (low * (1 - 2.0 ** -48 * n))[None], (up * (1 + 2.0 ** -48 * n))[None]


def _span_sweep(words, weight, basis, coords, slack):
    """The ``_psd_terms`` (d, eps, top, det_lo, lam_lo) of every pair of a
    codebook whose slots each span one dimension, b_n (the ``_slot_spans``
    basis, or 1 for one antenna) with coordinates c = b_n^H x, as (ii, jj,
    terms) per ``pair_chunks`` batch of ``effective_matrices``' size,
    without an n x n matrix.

    With e_n = b_n delta_n, the effective difference is D^H K D for D =
    diag(delta) and K = R^T o B^H B, so its determinant is det K prod
    |delta_n|**2. The sweep reads y = fl(s_n c) for s_n = fl(sqrt(K_nn)):
    d_n are a pair's squared slot distances, sigma their sum, u = 2**-53,
    h = 1 + 2**-49 (n + T), r_min and r_max the extreme diagonal entries of
    R (equal only to 1e-9), W* and the defect those of ``_eig_slack``. The
    terms hold
    for the PSD M0 = D'^H K0 D', K0 = W* o B^H B, within eps of whose
    eigenvalues the ``eigvalsh`` eigenvalues of the pair's computed matrix
    lie:
    - delta'_n = (y_i,n - y_j,n) / s_n exactly; d_n rounds four times, so
      d_n = s_n**2 |delta'_n|**2 (1 + t_n), |t_n| <= 4.01 u. Then e_n =
      b_n delta'_n + p_n, where p_n holds both words' span residuals (within
      2**-44 of their slot norms by the check of ``_slot_spans``, plus a few
      (T + 2) u of them for its rounding) and b_n (c - y / s_n), at most
      u |c| each: |p_n| <= 2**-43 (|x_i,n| + |x_j,n|), so ||P||_F <= pi =
      2**-42 max_w ||x_w||.
    - s_n**2 is R_nn |b_n|**2 within (T + 4) u, so ||B D'||_F**2 <= h sigma
      / r_min = a**2, the rounding of sigma included, and ||e||_F <= a + pi.
      By the Schur bound ||W* o X|| <= max W*_nn ||X|| <= r_max (1 + slack)
      ||X||, M* = W* o (e^H e) lies within r_max (1 + slack) pi (2 a + pi)
      of M0, and the computed matrix's trace is at most r_max h (a + pi)**2,
      so its eigenvalues lie within slack times that of M*'s. eps is the sum.
    - |M0_nn - d_n| <= (defect / r_min + (T + 9) u) d_n <= slack sigma <=
      eps, and top = sigma + n eps >= tr M0 with the sum's rounding.
    - det M0 = det K0 prod |delta'_n|**2 >= det_lo(K) prod d_n / prod
      (s_n**2 (1 + t_n)), with det_lo(K) of ``_psd_terms`` on K (the
      effective difference of the word B), clipped at 0. The factor 1 -
      2**-48 n covers the 7 n + 4 roundings of the products, and of lam_lo,
      ``_psd_terms``' AM-GM bound.
    The products are taken to stay in the normal range."""
    _, num_tx, n = words.shape
    b = np.ones((1, n)) if basis is None else basis[..., 0].T
    kmat = weight * (b.conj().T @ b)
    scale = np.sqrt(kmat.diagonal().real)
    with np.errstate(all="ignore"):  # a singular K gives a NaN bound, read as 0
        k_det = np.fmax(_psd_terms(kmat[None], slack)[3][0], 0.0) / np.prod(scale ** 2)
    r_min, r_max = np.min(weight.diagonal().real), np.max(weight.diagonal().real)
    pi = 2.0 ** -42 * np.sqrt(np.max(np.sum(np.abs(words) ** 2, axis=(1, 2))))
    h = 1 + 2.0 ** -49 * (n + num_tx)
    shrink = 1 - 2.0 ** -48 * n
    y = (coords[..., 0] * scale).T
    for ii, jj in pair_chunks(len(words), 2 * n * n):
        diff = y[:, ii] - y[:, jj]
        d = diff.real ** 2 + diff.imag ** 2
        sigma = d.sum(axis=0)
        a = np.sqrt(sigma * (h / r_min))
        eps = r_max * (slack * h * (a + pi) ** 2 + (1 + slack) * pi * (2 * a + pi))
        top = sigma + n * eps
        det_lo = k_det * d.prod(axis=0) * shrink
        yield ii, jj, (d.T, eps, top, det_lo, det_lo * ((n - 1) / top) ** (n - 1) * shrink)


def screened_eigs(codebook, cov, bounds, best):
    """Eigenvalues of the codeword pairs that a bound screen keeps for a
    running minimum, as ``(ii, jj, eig)`` in ``np.triu_indices`` order.

    The minimum starts at ``best`` (points,). ``bounds`` of a batch's screen
    terms (d, eps, top, det_lo, lam_lo) gives lower and upper bounds
    (points, pairs) on each pair's computed statistic. The minimum falls to
    the smallest upper bound, and a pair is dropped when its lower bound
    exceeds the minimum at every point (a NaN bound never does); the
    batch's other pairs are eigensolved. The minimum only falls, so every
    pair that could tie or beat the final one is solved.

    When every slot of the code spans one dimension (a precoded or a
    single-antenna code, ``_slot_spans``), the terms come from the slot
    distances of ``_span_sweep``, and only the kept pairs' matrices are
    built. Otherwise every ``effective_matrices`` batch gets one batched
    ``det`` (``_psd_terms``). The bounds assume a PSD matrix with nonzero
    determinant, so when cov.rank * num_tx < block_len, where det M = 0
    structurally, every pair is kept: the dense sweep."""
    words, weight = codebook.words, cov.entries.T
    _, num_tx, n = words.shape
    if len(words) < 2:
        raise ValueError("need at least two codewords")
    if structural_count(cov, num_tx, n, clip=True) < n:
        for ii, jj, mat in effective_matrices(words, weight):
            yield ii, jj, np.linalg.eigvalsh(mat)
        return
    slack = _eig_slack(weight, num_tx)
    best = np.array(best, dtype=float)
    basis, coords = _slot_spans(np.ascontiguousarray(np.swapaxes(words, 1, 2)))
    if coords.shape[-1] == 1:
        sweep = ((ii, jj, None, terms)
                 for ii, jj, terms in _span_sweep(words, weight, basis, coords, slack))
    else:
        sweep = ((ii, jj, mat, None) for ii, jj, mat in effective_matrices(words, weight))
    for ii, jj, mat, terms in sweep:
        with np.errstate(all="ignore"):  # a zero difference gives NaN bounds
            low, up = bounds(*(_psd_terms(mat, slack) if terms is None else terms))
            best = np.minimum(best, up.min(axis=-1))
            keep = ~np.all(low > best[:, None], axis=0)
        ii, jj = ii[keep], jj[keep]
        if ii.size:
            mat = (_pair_matrices(words, weight, ii, jj, _pair_buffers(words, weight, ii.size))
                   if mat is None else mat[keep])
            yield ii, jj, np.linalg.eigvalsh(mat)


def structural_count(cov, num_tx, n, clip=False):
    """cov.rank * num_tx, the structurally nonzero eigenvalue count of an
    effective difference of a num_tx x n difference (or of a precoder's rows).
    The criteria need the block length n to reach it, so a shorter block
    raises, unless ``clip`` caps the count at n."""
    count = cov.rank * num_tx
    if n < count and not clip:
        raise ValueError("block length is below the structural eigenvalue count")
    return min(count, n)


def xi_metric(codebook, cov, num_rx):
    """Minimum over codeword pairs of the product of the min(num_tx, num_rx)
    smallest structurally nonzero eigenvalues of the effective difference,
    as a ``WorstPair``.

    Pair enumeration is exhaustive. Requires block_len >= rank * num_tx so
    the structural eigenvalue count is not limited by the block length. At
    equality only the pairs that ``_xi_bounds`` cannot rule out are
    eigensolved (``screened_eigs``); the worst pair is the same.
    """
    _, num_tx, n = codebook.words.shape
    low = n - structural_count(cov, num_tx, n)
    m = min(num_tx, num_rx)
    worst = WorstPair()
    for ii, jj, eig in screened_eigs(codebook, cov, functools.partial(_xi_bounds, m=m),
                                     [np.inf]):
        worst.update(eig[:, low:low + m].prod(axis=-1), ii, jj)
    return worst


def verify_dmt_criterion(codebook_gen, cov, snr_grid, epsilon, num_rx):
    """Check the worst-pair eigenvalue product of ``xi_metric`` at ``num_rx``
    receive antennas against the rate threshold at every grid SNR.

    ``codebook_gen`` maps an SNR to the codebook of the family at that SNR;
    when it returns the same object as for the previous SNR, the metric is
    not recomputed. Returns a report dict with per-SNR margins; ``passed``
    is the overall verdict.
    """
    results = []
    book = None
    for snr in snr_grid:
        prev, book = book, codebook_gen(snr)
        threshold = criterion_threshold(snr, book.mux_rate, epsilon)
        if book is not prev:
            xi = xi_metric(book, cov, num_rx)
        margin = xi.value / threshold
        if not math.isfinite(margin):
            raise ValueError(f"margin xi / threshold overflows at snr = {snr:g}, r = {book.mux_rate:g}")
        results.append({"snr": float(snr), "xi": xi.value,
                        "threshold": threshold, "worst_pair": list(xi.pair),
                        "margin": margin,
                        "passed": bool(xi.value >= threshold)})
    return {"passed": all(row["passed"] for row in results), "per_snr": results}


def verify_rank_r0(codebook, cov):
    """Fixed-rate sufficiency check: every effective difference must reach
    the full structural rank. Reports the number of failing pairs and the
    first _LISTED_FAILURES of them in sweep order, so memory stays bounded.
    When the structural rank is the block length, the pairs whose
    ``_rank_bounds`` margin is positive are not eigensolved."""
    expected = structural_count(cov, *codebook.words.shape[1:])
    failure_count, failures = 0, []
    for ii, jj, eig in screened_eigs(codebook, cov, _rank_bounds, [0.0]):
        ranks = eig_rank(eig, eig.shape[-1])
        bad = np.flatnonzero(ranks != expected)
        failure_count += bad.size
        failures += [{"pair": [int(ii[k]), int(jj[k])], "rank": int(ranks[k])}
                     for k in bad[:_LISTED_FAILURES - len(failures)]]
    return {"passed": failure_count == 0, "expected_rank": expected,
            "failure_count": failure_count, "failures": failures}

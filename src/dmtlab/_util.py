"""Shared numerical helpers: FFT matrices, rank tolerances, seeding, the
Monte-Carlo chunk runner, the batch slicer, intervals and estimates, and
typed JSON fields."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Eigenvalues below RANK_TOL_FACTOR * max_eig * n are treated as structural zeros.
RANK_TOL_FACTOR = 1e-10

# Fixed Monte-Carlo chunk size. Must stay constant so that per-chunk seeds,
# and therefore results, do not depend on worker count.
MC_CHUNK = 16384

# Adaptive stopping is checked every MC_WAVE chunks, independent of workers.
MC_WAVE = 8

# Every batched loop (Monte-Carlo sub-blocks, pairwise sweeps) takes items in
# ``batches`` whose temporaries hold about BATCH_BUDGET real entries (1 MB):
# small enough to stay in cache and in malloc's heap, which hands larger
# blocks back to the OS on free so that every batch faults them in again;
# large enough to amortize the numpy calls.
BATCH_BUDGET = 131072

_KINDS = {int: "an integer", float: "a finite number", str: "a string"}
_REQUIRED = object()


class FieldError(ValueError):
    """A JSON field that is missing, of the wrong type or malformed; the message
    names it."""


def unitary_fft(n):
    """Unitary DFT matrix, entry (k, l) = exp(-2j*pi*k*l/n) / sqrt(n)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def fft_column(n, idx):
    """Column ``idx`` of the n-point unitary DFT matrix."""
    return np.exp(-2j * np.pi * idx * np.arange(n) / n) / np.sqrt(n)


def rank_tolerance(values, n):
    """Threshold below which eigen/singular values count as zero; one
    threshold per row of the last axis."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    return RANK_TOL_FACTOR * np.max(np.abs(values), axis=-1) * n


def eig_rank(eigvals, n):
    """Rank from the eigenvalues of an n x n Hermitian PSD matrix; a stack
    of eigenvalue rows (last axis) gives an array of ranks."""
    w = np.asarray(eigvals, dtype=float)
    ranks = np.count_nonzero(w > np.expand_dims(rank_tolerance(w, n), -1), axis=-1)
    return ranks if w.ndim > 1 else int(ranks)


def assert_hermitian(mat, what="matrix"):
    scale = max(np.max(np.abs(mat)), 1.0)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10 * scale:
        raise ValueError(f"{what} is not Hermitian within tolerance")


def spawn_rng(master_seed, *path):
    """Independent PCG64 generator derived from (master seed, index path).

    The same (seed, path) always yields the same stream, which keeps the
    permutation search's draws reproducible.
    """
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(p) for p in path)))


def chunk_rng(master_seed, chunk_idx):
    """The generator of Monte-Carlo chunk ``chunk_idx``: SFC64 seeded from
    (master seed, chunk index). SFC64 draws normals faster than PCG64, which
    ``spawn_rng`` keeps for the permutation search's stream."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((int(master_seed), int(chunk_idx)))))


def run_chunks(chunk_fn, trials, master_seed, workers=1, min_events=None, num_points=1):
    """Per-point sums of ``chunk_fn(chunk_rng(master_seed, c), size, live)``
    over the chunks c of the fixed MC_CHUNK grid, in chunk order, so a fixed
    seed gives the same totals for any ``workers``. ``chunk_fn`` returns one
    total per point of a grid of ``num_points``; only the entries of ``live``,
    the indices of the points still running, are read. A positive
    ``min_events`` retires a point after the first wave of MC_WAVE chunks whose
    running total for it reaches it, and stops once every point has retired;
    None or 0 runs the full cap. A point's total and trial count are thus those
    of a grid of that point alone. Returns ``(totals, trials_run)``, two lists
    with one entry per point."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    if min_events is not None and min_events < 0:
        raise ValueError("min_events must be nonnegative")
    num_chunks = (trials + MC_CHUNK - 1) // MC_CHUNK
    wave = MC_WAVE if min_events else num_chunks

    def run(chunk_idx, live):
        size = min(MC_CHUNK, trials - chunk_idx * MC_CHUNK)
        return chunk_fn(chunk_rng(master_seed, chunk_idx), size, live)

    totals = [0] * num_points
    done = [trials] * num_points
    live = tuple(range(num_points))
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for start in range(0, num_chunks, wave):
            chunks = range(start, min(start + wave, num_chunks))
            for result in pool.map(run, chunks, [live] * len(chunks)):
                for j in live:
                    totals[j] += result[j]
            if min_events:
                for j in live:
                    if totals[j] >= min_events:
                        done[j] = min(trials, chunks.stop * MC_CHUNK)
                live = tuple(j for j in live if totals[j] < min_events)
                if not live:
                    break
    finally:  # on an error or interrupt, drop the chunks not yet started
        pool.shutdown(cancel_futures=True)
    return totals, done


def batches(count, per_item):
    """Slices that cover ``range(count)`` in order, each of
    ``BATCH_BUDGET // per_item`` items (at least one) but the last, which is
    clipped to ``count``, for temporaries of ``per_item`` real entries an item."""
    step = max(1, BATCH_BUDGET // per_item)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def complex_normal(rng, shape):
    """Circularly-symmetric unit-variance complex Gaussians (re/im var 1/2).

    One interleaved fill: entry k is ``(g[2k] + 1j * g[2k + 1]) * sqrt(1/2)``
    for the normals g of one ``standard_normal`` call of twice the size,
    written into the output's float view and scaled there.
    """
    out = rng.standard_normal(out=np.empty((*shape, 2)))
    out *= np.sqrt(0.5)
    return out.view(complex)[..., 0]


def wilson_interval(events, trials):
    """Wilson score interval for a binomial proportion at 95% confidence. Its
    ends are exactly 0 at no events and 1 at all events: there center and
    half-width are equal in exact arithmetic, and their rounded difference
    (about 1e-18) could leave the estimate outside the interval."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054  # the two-sided 95% standard normal quantile
    p_hat = events / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half) if events > 0 else 0.0,
            min(1.0, center + half) if events < trials else 1.0)


@dataclass(frozen=True)
class Estimate:
    """A binomial Monte-Carlo estimate: ``events`` among ``trials``, their
    ratio ``probability`` and its 95% Wilson interval."""

    probability: float
    trials: int
    events: int
    ci_low: float
    ci_high: float

    @classmethod
    def of(cls, events, trials):
        return cls(events / trials, trials, events, *wilson_interval(events, trials))


def db_to_linear(snr_db):
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def linear_to_db(snr):
    return 10.0 * np.log10(np.asarray(snr, dtype=float))


def json_value(value, kind, name):
    """``value`` as ``kind``: a string, a finite number as float, or an
    integral finite number as int. A JSON bool is none of these; anything
    else raises a FieldError naming ``name``."""
    if isinstance(value, str if kind is str else (int, float)) and not isinstance(value, bool):
        if kind is str:
            return value
        try:
            number = kind(value)
            if math.isfinite(number) and (kind is float or number == value):
                return number
        except (ValueError, OverflowError):
            pass
    raise FieldError(f"{name}: expected {_KINDS[kind]}, got {value!r}")


def json_field(doc, key, where, kind=None, default=_REQUIRED):
    """``doc[key]`` of the JSON object ``doc`` at ``where``, read as ``kind``
    unless that is None; a missing key gives ``default`` if one is given."""
    if not isinstance(doc, dict):
        raise FieldError(f"{where}: expected a JSON object")
    if key not in doc:
        if default is _REQUIRED:
            raise FieldError(f"{where}.{key}: missing required field")
        return default
    return doc[key] if kind is None else json_value(doc[key], kind, f"{where}.{key}")


def json_keys(doc, keys, where):
    """Raise a FieldError naming the first key of the JSON object ``doc`` at
    ``where`` that is not among ``keys``, so that a misspelt field is never
    silently read as its default."""
    if not isinstance(doc, dict):
        raise FieldError(f"{where}: expected a JSON object")
    for key in doc:
        if key not in keys:
            raise FieldError(f"{where}.{key}: unknown field")


def json_floats(doc, key, where):
    """``doc[key]`` read as a tuple of floats: a JSON list of finite numbers."""
    values = json_field(doc, key, where)
    if not isinstance(values, list):
        raise FieldError(f"{where}.{key}: expected a JSON list")
    return tuple(json_value(v, float, f"{where}.{key}[{k}]") for k, v in enumerate(values))


def complex_pairs(values):
    """JSON form of a complex array: nested lists ending in [re, im] pairs."""
    values = np.asarray(values, dtype=complex)
    return np.stack((values.real, values.imag), axis=-1).tolist()


def json_complex(doc, key, where, ndim):
    """Inverse of ``complex_pairs``: the complex array with ``ndim`` axes kept
    at ``doc[key]``. Anything but evenly nested lists of finite [re, im]
    number pairs (null, strings, bools, NaN or inf, ragged rows) raises a
    FieldError naming the field."""
    pairs = np.array(json_field(doc, key, where), dtype=object)
    if (pairs.ndim != ndim + 1 or pairs.shape[-1] != 2
            or not all(type(x) in (int, float) and abs(x) <= sys.float_info.max
                       for x in pairs.flat)):
        raise FieldError(f"{where}.{key}: expected {ndim}-level nested lists "
                         "of finite [re, im] number pairs")
    return pairs.astype(float).view(complex)[..., 0]

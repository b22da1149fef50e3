"""Constant-modulus inner codes: time-frequency shift precoders and their
classical special cases (cyclic delay diversity, phase rolling).

A precoder row multiplies the shared outer codeword entrywise per transmit
antenna. Rows built here have unit modulus, so precoding never changes the
transmit power and the rank conditions below are scale-invariant.
"""

from dataclasses import dataclass, field

import numpy as np

from ._util import batches, complex_pairs, fft_column
from . import codes
from .codes import WorstPair, criterion_threshold, distance_strips, pair_eigvals


@dataclass(frozen=True)
class Precoder:
    """Inner code matrix with its shift bookkeeping.

    ``shifts`` holds the per-antenna (time, frequency) shift multipliers, or
    None for a custom matrix. ``doppler_stride``/``delay_stride`` are the
    index strides one shift unit advances.
    """

    matrix: np.ndarray
    shifts: tuple
    doppler_stride: int
    delay_stride: int
    num_time: int
    num_freq: int

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def num_tx(self):
        return self.matrix.shape[0]

    @property
    def block_len(self):
        return self.matrix.shape[1]

    def to_json(self):
        return {"mt": self.num_tx, "n": self.block_len, "rows": complex_pairs(self.matrix),
                "shifts": [list(s) for s in self.shifts] if self.shifts else None,
                "doppler_stride": self.doppler_stride, "delay_stride": self.delay_stride,
                "num_time": self.num_time, "num_freq": self.num_freq}


def tf_shift_row(num_time, num_freq, time_shift, freq_shift):
    """Unit-modulus row inducing the given cyclic time-frequency shift.

    Kronecker product of DFT columns of the two grid sizes, rescaled to
    unit modulus so transmit power is unchanged.
    """
    n = num_time * num_freq
    col = np.kron(fft_column(num_time, time_shift), fft_column(num_freq, freq_shift))
    return col * np.sqrt(n)


def design_tf_shift_precoder(spec, num_tx):
    """Shift-based precoder matched to a time-frequency selective channel.

    Antenna i gets the i-th (time, frequency) shift pair, in row-major
    order, of the admissible box {0..floor(1/(nu0*T))-1} x
    {0..floor(1/(tau0*F))-1}, so the pairs are distinct and in the box. The
    construction guarantees full structural rank of the covariance-weighted
    row Gram for the circulant surrogate of the channel covariance. The
    block always has room for that rank: v = floor(nu0*T*num_time) gives
    v * max_p <= num_time, likewise t * max_q <= num_freq, so
    v * t * num_tx <= n for every antenna count the box admits.
    """
    if num_tx < 1:
        raise ValueError("antenna count must be positive")
    v, t = spec.occupied_slots()
    max_p = int(np.floor(1.0 / (spec.nu0 * spec.grid_t) + 1e-12))
    max_q = int(np.floor(1.0 / (spec.tau0 * spec.grid_f) + 1e-12))
    capacity = max_p * max_q
    if capacity < num_tx:
        raise ValueError(f"only {capacity} distinct shift pairs exist for this "
                         f"channel; cannot support {num_tx} transmit antennas")
    assignment = tuple(divmod(i, max_q) for i in range(num_tx))
    rows = np.stack([tf_shift_row(spec.num_time, spec.num_freq, p * v, q * t)
                     for p, q in assignment])
    return Precoder(matrix=rows, shifts=assignment, doppler_stride=v,
                    delay_stride=t, num_time=spec.num_time, num_freq=spec.num_freq)


def classic_precoder(kind, num_tx, n_slots, stride, shifts=None):
    """Cyclic delay diversity or phase rolling precoder.

    ``kind`` is "cdd" (per-antenna cyclic delays of stride slots, i.e. a
    linear phase ramp across slots) or "phase-rolling" (per-antenna
    frequency offsets). ``shifts`` overrides the default 0, 1, ... shift
    multipliers and may deliberately contain duplicates; duplicate shifts
    collapse eigenvalue index sets and fail rank verification.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    if shifts is None:
        if n_slots < num_tx * stride:
            raise ValueError("block too short to give every antenna a distinct shift")
        shifts = list(range(num_tx))
    shifts = [int(s) for s in shifts]
    if len(shifts) != num_tx:
        raise ValueError("shift list length must equal the antenna count")
    rows = np.exp(-2j * np.pi * np.outer([s * stride for s in shifts], np.arange(n_slots))
                  / n_slots)
    if kind == "cdd":
        pairs = tuple((0, s) for s in shifts)
        return Precoder(matrix=rows, shifts=pairs, doppler_stride=1,
                        delay_stride=stride, num_time=1, num_freq=n_slots)
    if kind == "phase-rolling":
        pairs = tuple((s, 0) for s in shifts)
        return Precoder(matrix=rows, shifts=pairs, doppler_stride=stride,
                        delay_stride=1, num_time=n_slots, num_freq=1)
    raise ValueError(f"unknown precoder kind: {kind!r}")


def apply_precoder(precoder, word):
    """Entrywise product of every precoder row with a shared scalar codeword:
    one word (block_len,) gives (num_tx, block_len), a stack of words
    (..., block_len) gives (..., num_tx, block_len)."""
    word = np.asarray(word, dtype=complex)
    if word.shape[-1:] != (precoder.block_len,):
        raise ValueError("codeword length does not match the precoder")
    return precoder.matrix * word[..., None, :]


@dataclass(frozen=True)
class PrecoderRankReport:
    """Rank criterion on the precoder rows: ``gram`` is the effective
    difference of the precoder matrix, the covariance-weighted row Gram;
    reports compare and print by their scalar fields."""

    rank: int
    expected_rank: int
    sigma0: float
    passed: bool
    gram: codes.EffectiveDifference = field(compare=False, repr=False)


def verify_precoder_rank(cov, precoder):
    """Numerical rank and smallest nonzero eigenvalue of the weighted row Gram."""
    gram = codes.effective_difference(cov, precoder.matrix)
    expected = codes.structural_count(cov, precoder.num_tx, precoder.block_len)
    sigma0 = float(gram.eigvals[-gram.rank]) if gram.rank else 0.0
    return PrecoderRankReport(rank=gram.rank, expected_rank=expected, sigma0=sigma0,
                              passed=gram.rank == expected, gram=gram)


def _composed_sweep(report, words, m):
    """Outer m-smallest product and xi worst pairs of a precoded common-outer
    codebook, with the number of pairs eigensolved, from one sorted-distance
    sweep of the outer code.

    The effective difference of such a codebook is the precoder's weighted
    row Gram (``report.gram``) conjugated by the diagonal of the outer
    difference, so its eigenvalues are sandwiched between sigma0 and
    sigma_top (the smallest nonzero and the largest Gram eigenvalue) times
    the sorted entry powers. A strip keeps the pairs whose lower bound does
    not exceed the smallest upper bound so far (the bound only falls), and
    the kept pairs that the final bound still keeps are eigensolved. A
    rank-deficient Gram gives xi = 0 unsolved.
    """
    shift = words.shape[1] - report.expected_rank
    sigma0, sigma_top = report.sigma0, float(report.gram.eigvals[-1])
    deficient = not report.passed
    outer, xi, best, kept = WorstPair(), WorstPair(), np.inf, []
    for rows, cols, dist2, below in distance_strips(words):
        small = dist2[:m].prod(axis=0)
        small[below] = np.inf
        outer.update(small, rows, cols)
        if not deficient:
            up = dist2[shift:shift + m].prod(axis=0)
            up[below] = np.inf
            best = min(best, (sigma_top ** m) * float(up.min()) * (1 + 1e-9))
            low = (sigma0 ** m) * small
            r, c = np.nonzero(~(low > best))
            kept.append((rows[r, 0], cols[c], low[r, c]))
    if deficient:
        xi.value = 0.0
        return outer, xi, 0
    ii, jj, low = (np.concatenate(part) for part in zip(*kept))
    keep = ~(low > best)
    ii, jj = ii[keep], jj[keep]
    for batch in batches(ii.size, 2 * words.shape[1] ** 2):
        eig = pair_eigvals(words[:, None, :], report.gram.matrix, ii[batch], jj[batch])
        xi.update(eig[:, shift:shift + m].prod(axis=-1), ii[batch], jj[batch])
    return outer, xi, ii.size


def verify_composed_design(precoder, outer_gen, cov, snr_grid, epsilon, num_rx):
    """End-to-end check of an inner precoder with an outer scalar code family.

    At every grid SNR this verifies, with decay-exponent slack ``epsilon``:

    a. the weighted row Gram of the precoder reaches full structural rank;
    b. the outer family's worst-pair product of the m smallest entry powers
       clears the rate threshold;
    c. the design metric of the precoded codebook, computed directly,
       dominates sigma0**m times the outer product of (b) and clears the
       rate threshold itself.

    ``outer_gen`` maps an SNR to a single-antenna ``Codebook`` of the
    precoder's block length; another length raises. Failures are itemized
    per SNR in the returned report; a codebook with fewer than two words is
    flagged as a vacuous pass.
    """
    rank_report = verify_precoder_rank(cov, precoder)
    m = min(precoder.num_tx, num_rx)
    per_snr = []
    for snr in snr_grid:
        book = outer_gen(snr)
        words = book.scalar_words
        if words.shape[1] != precoder.block_len:
            raise ValueError(f"outer code block length {words.shape[1]} does not match "
                             f"the precoder block length {precoder.block_len}")
        threshold = criterion_threshold(snr, book.mux_rate, epsilon)
        row = {"snr": float(snr), "mux_rate": float(book.mux_rate), "threshold": threshold}
        if words.shape[0] < 2:
            row.update({"vacuous": True, "outer_passed": True, "xi_passed": True,
                        "chain_passed": True})
            per_snr.append(row)
            continue
        outer, xi, evaluated = _composed_sweep(rank_report, words, m)
        chain_low = rank_report.sigma0 ** m * outer.value
        row.update({
            "vacuous": False,
            "outer_min_product": outer.value,
            "outer_worst_pair": list(outer.pair),
            "outer_passed": bool(outer.value >= threshold),
            "xi": xi.value,
            "xi_worst_pair": list(xi.pair),
            "xi_pairs_evaluated": evaluated,
            "xi_passed": bool(xi.value >= threshold),
            "chain_passed": bool(xi.value >= chain_low * (1 - 1e-9)),
        })
        per_snr.append(row)
    passed = rank_report.passed and all(
        row["outer_passed"] and row["xi_passed"] and row["chain_passed"]
        for row in per_snr)
    return {"passed": passed, "rank": rank_report, "per_snr": per_snr}

"""Test-side oracles that the library does not carry: dense and brute-force
references for the fast paths, the proof steps behind the paper's results
(the Theorem-4 trace minimum over unitary rotations and the eigen-weighted
stack of the effective difference), and single-draw or single-pair helpers
that no command reads."""

import itertools
from dataclasses import dataclass

import numpy as np

from dmtlab import sim
from dmtlab._util import (Estimate, batches, complex_normal, eig_rank, rank_tolerance,
                          run_chunks, spawn_rng)
from dmtlab.channel import (BlockFading, build_covariance, draw_white, mix_white,
                            sample_channel_batch)
from dmtlab.codes import (_LISTED_FAILURES, WorstPair, _slot_words, _sort_slots,
                          criterion_threshold, effective_difference, effective_matrices,
                          pair_eigvals, pairwise_min_products, structural_count)
from dmtlab.sim import _check_nonnegative, chernoff_bound
from dmtlab.tradeoff import _jensen_stack, _snr_free, _snr_step


def psd_root(cov):
    """Hermitian PSD square root of ``cov.entries``: eigendecomposition with
    negative rounding-level eigenvalues clipped to zero."""
    w, v = np.linalg.eigh(cov.entries)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def einsum_mix(cov, white):
    """``channel.mix_white`` as the per-draw sum it replaced: the (count, N,
    M_R, M_T) channels H_n = sum_k sqrt(lambda_k) v_k[n] W_k of a (count, rho,
    M_R, M_T) white batch, one ``einsum`` in C order. Its rounding does not
    depend on the batch, so any slice of the white batch mixes to the same
    rows bit for bit."""
    return np.einsum("nk,ckij->cnij", cov.eigvecs * np.sqrt(cov.eigvals), white)


def logdet_identity_plus(h, a):
    """log det(I + a h h^H) over a (..., k, m) batch of wide matrices in one
    pass: the closed form of ``tradeoff._snr_free`` followed by
    ``tradeoff._snr_step``, with the same arithmetic."""
    k, m = h.shape[-2:]
    if k > 2:
        gram = np.einsum("...ij,...kj->...ik", h, h.conj())
        return np.linalg.slogdet(np.eye(k) + a * gram)[1]
    if k == 1:
        return np.log1p(a * (np.abs(h[..., 0, :]) ** 2).sum(axis=-1))
    power = (np.abs(h) ** 2).sum(axis=(-2, -1))
    top, bottom = h[..., 0, :], h[..., 1, :]
    det = 0.0
    for shift in range(1, m):
        minor = top[..., :-shift] * bottom[..., shift:] - top[..., shift:] * bottom[..., :-shift]
        det = det + (minor.real ** 2 + minor.imag ** 2).sum(axis=-1)
    return np.log1p(a * power + a * a * det)


def _information(blocks, bound, snr):
    """Per-draw information of a (count, N, M_R, M_T) batch at ``snr`` under
    ``bound``: the average slot log-det ("full") or the log-det of the Jensen
    channel ("jensen")."""
    scale = blocks.shape[-1] * (1 if bound == "full" else blocks.shape[1])
    return _snr_step(_snr_free(blocks, bound), bound, snr / scale)


def rank_one_channels(cov, dims, count, rng):
    """``count`` draws of a rank-one covariance with min_ant = k <= 2 as
    (count, N, k, k) channels sqrt(lambda_1) v_1[n] L, where L is the lower
    Bartlett factor of the Wishart Gram W W^H of one white k x max_ant W,
    built from the Exp(1) variates that ``outage_curve`` takes from ``rng``:
    |L_11|^2 sums the first max_ant of a trial's row, |L_22|^2 the next
    max_ant - 1 and |L_21|^2 is the last. Their information is that of
    channels with the Gram of W, apart from the SNR scale, which stays
    M_T."""
    k, m = dims.min_ant, dims.max_ant
    exps = rng.standard_exponential((count, k * m))
    factor = np.zeros((count, k, k))
    factor[:, 0, 0] = np.sqrt(exps[:, :m].sum(axis=1))
    if k == 2:
        factor[:, 1, 0] = np.sqrt(exps[:, -1])
        factor[:, 1, 1] = np.sqrt(exps[:, m:-1].sum(axis=1))
    slots = np.sqrt(cov.eigvals[0]) * cov.eigvecs[:, 0]
    return slots[None, :, None, None] * factor[:, None]


def outage_information(cov, dims, count, rng, bound, snr):
    """Per-draw information at ``snr`` of ``count`` draws as ``outage_curve``
    takes them from one chunk's ``rng``: a rank-one covariance with min_ant
    <= 2 by ``rank_one_channels``, any other by ``draw_white``, mixed on the
    estimator's sub-blocks."""
    scale = dims.num_tx * (1 if bound == "full" else dims.block_len)
    if cov.rank == 1 and dims.min_ant <= 2:
        blocks = [rank_one_channels(cov, dims, count, rng)]
    else:
        white = draw_white(cov, dims, count, rng)
        per_trial = 16 * dims.block_len * dims.num_rx * dims.num_tx
        blocks = [mix_white(cov, white[block]) for block in batches(count, per_trial)]
    return np.concatenate([_snr_step(_snr_free(b, bound), bound, snr / scale) for b in blocks])


def single_point_outage(cov, dims, point, bound, trials, master_seed, min_events, workers):
    """The outage estimate of one SNR point by the per-point chunk loop that
    ran once per grid SNR before the grid became the unit of work: each chunk
    is drawn and evaluated for this point alone (``outage_information``)."""
    rate = point.rate_nats()

    def run_chunk(rng, size, live):
        return [int(np.count_nonzero(outage_information(cov, dims, size, rng, bound,
                                                        point.snr) < rate))]

    (events,), (done,) = run_chunks(run_chunk, trials, master_seed, workers, min_events)
    return Estimate.of(events, done)


def _one_pass_features(blocks, received):
    """``sim._trial_features`` of a sub-block built in one pass, Gram and
    matched filter together."""
    conj = blocks.conj()
    jj, kk = np.triu_indices(blocks.shape[-1], 1)
    upper = np.einsum("cnrp,cnrp->cnp", conj[..., jj], blocks[..., kk])
    matched = np.einsum("cnri,cnr->cni", conj, received)
    cols = (np.einsum("cnri,cnri->cni", conj, blocks).real, upper.real, upper.imag,
            matched.real, matched.imag)
    return np.concatenate(cols, axis=-1).reshape(len(blocks), -1)


def single_snr_errors(cov, dims, codebook, snr, trials, master_seed, noise_scale, workers):
    """The ML error estimate at one SNR by the per-SNR chunk loop that ran
    once per grid SNR before the grid became the unit of work: each chunk is
    drawn, mixed and decoded at this SNR alone, with the noise scaled by
    ``noise_scale`` (0 decodes without noise)."""
    words = codebook.words
    num_words, num_tx, n = words.shape
    amp = np.sqrt(snr / num_tx)
    slot_words = np.ascontiguousarray(np.swapaxes(words, 1, 2))
    table = sim._word_table(slot_words, amp)

    def run_chunk(rng, size, live):
        white = draw_white(cov, dims, size, rng)
        sent = rng.integers(0, num_words, size)
        noise = noise_scale * complex_normal(rng, (size, n, dims.num_rx))
        wrong = 0
        for block in batches(size, num_words):
            blocks = mix_white(cov, white[block])
            received = (amp * np.einsum("cnij,cnj->cni", blocks, slot_words[sent[block]])
                        + noise[block])
            decoded = np.argmin(_one_pass_features(blocks, received) @ table.T, axis=1)
            wrong += int(np.count_nonzero(decoded != sent[block]))
        return [wrong]

    (errors,), (done,) = run_chunks(run_chunk, trials, master_seed, workers)
    return Estimate.of(errors, done)


def sorted_pair_distances(words, ii, jj):
    """The gather kernel of the sorted-distance sweeps: squared slot
    distances |w_i - w_j|**2 of scalar codewords (cardinality, num_slots),
    as a (num_slots, pairs) array sorted along the slot axis."""
    slots = np.ascontiguousarray(words.T)
    diffs = np.take(slots, ii, axis=1) - np.take(slots, jj, axis=1)
    return _sort_slots(diffs.real ** 2 + diffs.imag ** 2)


def gather_min_products(words, m):
    """``codes.pairwise_min_products`` by the gather kernel over every pair
    at once, in ``np.triu_indices`` order."""
    ii, jj = np.triu_indices(len(words), 1)
    worst = WorstPair()
    worst.update(sorted_pair_distances(words, ii, jj)[:m].prod(axis=0), ii, jj)
    return worst


def float_best_candidate(family, perms, m):
    """``codes._best_candidate`` by the per-candidate float loop it replaced:
    ``pairwise_min_products`` of each candidate's words in list order; a
    candidate replaces the best only when its minimum is strictly greater."""
    best_k, best = -1, None
    for k, combo in enumerate(perms):
        worst = pairwise_min_products(_slot_words(family.points, combo), m)
        if best is None or worst.value > best.value:
            best_k, best = k, worst
    return best_k, best


def gather_composed_sweep(report, words, m):
    """``precoder._composed_sweep`` by the gather kernel over every pair at
    once: the outer and xi worst pairs and the number of pairs eigensolved."""
    n = words.shape[1]
    shift = n - report.expected_rank
    sigma0, sigma_top = report.sigma0, float(report.gram.eigvals[-1])
    ii, jj = np.triu_indices(len(words), 1)
    dist2 = sorted_pair_distances(words, ii, jj)
    small = dist2[:m].prod(axis=0)
    outer, xi = WorstPair(), WorstPair()
    outer.update(small, ii, jj)
    if not report.passed:
        xi.value = 0.0
        return outer, xi, 0
    min_up = float(dist2[shift:shift + m].prod(axis=0).min())
    sel = (sigma0 ** m) * small <= (sigma_top ** m) * min_up * (1 + 1e-9)
    eig = pair_eigvals(words[:, None, :], report.gram.matrix, ii[sel], jj[sel])
    xi.update(eig[:, shift:shift + m].prod(axis=-1), ii[sel], jj[sel])
    return outer, xi, int(np.count_nonzero(sel))


def numerical_rank(mat):
    """Rank from singular values with the common scaled tolerance."""
    sv = np.linalg.svd(np.asarray(mat), compute_uv=False)
    return int(np.count_nonzero(sv > rank_tolerance(sv, max(mat.shape))))


def delta_decomposition(cov, e):
    """Stacked eigen-weighted difference whose Gram mirrors the effective
    difference matrix: rows are sqrt(eigval) * diag(conj(eigvec)) @ e^H,
    stacked over the covariance eigenpairs and conjugate transposed.
    """
    e = np.asarray(e, dtype=complex)
    blocks = []
    for lam, vec in zip(cov.eigvals, cov.eigvecs.T):
        blocks.append(np.sqrt(lam) * (vec.conj()[:, None] * e.conj().T))
    return np.concatenate(blocks, axis=1).conj().T


def effective_eigs(codebook, cov):
    """Ascending effective-difference eigenvalues of every codeword pair:
    yields ``(ii, jj, eig)`` in ``pair_chunks`` order, with eig of shape
    (pairs, block_len). The dense sweep, the oracle of the screened
    criteria."""
    for ii, jj, mat in effective_matrices(codebook.words, cov.entries.T):
        yield ii, jj, np.linalg.eigvalsh(mat)


def dense_rank_r0(codebook, cov):
    """``codes.verify_rank_r0`` with every pair eigensolved: the dense
    ``effective_eigs`` sweep, with no determinant screen."""
    expected = structural_count(cov, *codebook.words.shape[1:])
    failure_count, failures = 0, []
    for ii, jj, eig in effective_eigs(codebook, cov):
        ranks = eig_rank(eig, eig.shape[-1])
        bad = np.flatnonzero(ranks != expected)
        failure_count += bad.size
        failures += [{"pair": [int(ii[k]), int(jj[k])], "rank": int(ranks[k])}
                     for k in bad[:_LISTED_FAILURES - len(failures)]]
    return {"passed": failure_count == 0, "expected_rank": expected,
            "failure_count": failure_count, "failures": failures}


def dense_xi(codebook, cov, num_rx):
    """``codes.xi_metric`` with every pair eigensolved."""
    _, num_tx, n = codebook.words.shape
    low = n - structural_count(cov, num_tx, n)
    m = min(num_tx, num_rx)
    worst = WorstPair()
    for ii, jj, eig in effective_eigs(codebook, cov):
        worst.update(eig[:, low:low + m].prod(axis=-1), ii, jj)
    return worst


def dense_worst_pep(codebook, cov, snrs, num_rx):
    """``sim.worst_pep`` with every pair eigensolved."""
    _, num_tx, n = codebook.words.shape
    keep = structural_count(cov, num_tx, n, clip=True)
    worst = np.zeros(len(snrs))
    for _, _, eig in effective_eigs(codebook, cov):
        for k, snr in enumerate(snrs):
            worst[k] = max(worst[k], chernoff_bound(eig[:, n - keep:], snr, num_tx,
                                                    num_rx).max())
    return worst.tolist()


def cyclic_shift_matrix(n, power=1):
    """Cyclic delay matrix P with P[i, j] = 1 iff i == (j + power) mod n,
    so (P @ v)[i] = v[(i - power) mod n]."""
    return np.eye(n)[:, (np.arange(n) + power) % n]


@dataclass(frozen=True)
class BlockCirculant:
    """Block-circulant matrix of channel taps plus its rank-determining corner."""

    full: np.ndarray       # (n*num_rx, n*num_tx)
    corner: np.ndarray     # (min_ant, num_taps*max_ant)

    @property
    def corner_rank(self):
        return numerical_rank(self.corner)


def sample_channel(cov, dims, rng):
    """Draw one correlated channel realization as an (N, M_R, M_T) array:
    the one draw of ``sample_channel_batch(cov, dims, 1, rng)``."""
    return sample_channel_batch(cov, dims, 1, rng)[0]


def build_block_circulant(taps, n):
    """Assemble the block-circulant channel matrix of a cyclic multipath link.

    Parameters
    ----------
    taps : sequence of num_taps matrices, each num_rx x num_tx
    n : int
        Block length; must exceed the tap count.

    Returns
    -------
    BlockCirculant
        Includes the corner submatrix whose rank, multiplied by n, gives the
        rank of the full matrix: the first transmit block-column when
        num_tx <= num_rx, otherwise the last receive block-row restricted to
        the trailing num_taps block-columns.
    """
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim != 3:
        raise ValueError("taps must be a sequence of matrices")
    num_taps, num_rx, num_tx = taps.shape
    if n <= num_taps:
        raise ValueError("block length must exceed the tap count")
    # block (i, j) is taps[(i - j) mod n], zero for lags past the last tap
    full = sum(np.kron(cyclic_shift_matrix(n, lag), taps[lag]) for lag in range(num_taps))
    if num_tx <= num_rx:
        corner = full[:num_taps * num_rx, :num_tx].T
    else:
        corner = full[(n - 1) * num_rx:, (n - num_taps) * num_tx:]
    return BlockCirculant(full=full, corner=corner)


@dataclass(frozen=True)
class SingularityLevels:
    """Eigenvalue decay rates relative to the SNR, per slot and for the stack."""

    per_slot: np.ndarray  # (block_len, min_ant), ascending eigenvalues
    jensen: np.ndarray    # (min_ant,), sorted descending


def mutual_information(blocks, snr):
    """Average log-det mutual information of the per-slot channels of one
    (N, M_R, M_T) draw, in nats."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return float(_information(blocks[None], "full", snr)[0])


def jensen_mutual_information(blocks, snr):
    """Log-det capacity of the stacked wide channel of one (N, M_R, M_T)
    draw; upper-bounds the per-slot average by concavity of log det."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return float(_information(blocks[None], "jensen", snr)[0])


def singularity_levels(blocks, snr):
    """Per-slot and stacked eigenvalue decay exponents of one (N, M_R, M_T)
    draw at the given SNR.

    Level a maps eigenvalue lam through lam = snr**(-a); zero eigenvalues
    produce +inf so that clipped terms drop out of rate sums naturally.
    """
    if snr <= 1:
        raise ValueError("snr must exceed 1 so that log(snr) is positive")
    log_snr = np.log(snr)
    # ascending, exactly min_ant values per slot
    per_slot_eig = np.sort(np.linalg.svd(blocks, compute_uv=False) ** 2, axis=-1)
    eig = np.sort(np.linalg.svd(_jensen_stack(blocks[None])[0], compute_uv=False) ** 2)
    with np.errstate(divide="ignore"):
        per_slot = -np.log(per_slot_eig) / log_snr
        jensen = -np.log(eig) / log_snr  # ascending eigenvalues give descending levels
    return SingularityLevels(per_slot=per_slot, jensen=jensen)


def stacked_isi_difference(e_time, num_taps, mode="cyclic"):
    """Tap-shifted stack of a time-domain difference matrix.

    ``cyclic`` applies cyclic delays (multicarrier model); ``linear``
    applies forward shifts (single-carrier model) and requires the trailing
    num_taps - 1 columns of the difference to be zero (entries up to 1e-12
    count as zero and are cleared) so nothing falls off the block.
    """
    e_time = np.array(e_time, dtype=complex)
    num_tx, n = e_time.shape
    if n <= num_taps:
        raise ValueError("block length must exceed the tap count")
    if mode == "linear":
        tail = e_time[:, n - num_taps + 1:]
        if num_taps > 1 and np.max(np.abs(tail)) > 1e-12:
            raise ValueError("linear mode requires zero guard columns at the block end")
        tail[:] = 0  # with a zero guard, forward shifts are the cyclic ones
    elif mode != "cyclic":
        raise ValueError(f"unknown mode: {mode!r}")
    stacked = np.concatenate([np.roll(e_time, lag, axis=1) for lag in range(num_taps)])
    return stacked, numerical_rank(stacked)


def block_fading_check(codebook, num_blocks, num_rx):
    """Block-fading diagnostics: eigen-multiset identity, global metric, and
    the per-block worst products that per-block designs would certify.

    The effective difference of a block-fading channel is block diagonal in
    the per-block difference Grams, so its eigenvalues are the union of the
    per-block ones. Per-block products passing a threshold do not imply the
    global product does; this check reports both sides.
    """
    words = codebook.words
    num, num_tx, n = words.shape
    if n % num_blocks:
        raise ValueError("block count must divide the block length")
    sub_len = n // num_blocks
    cov = build_covariance(BlockFading(num_blocks, sub_len), n)
    low = n - structural_count(cov, num_tx, n)
    m = min(num_tx, num_rx)
    blocks = words.reshape(num, num_tx, num_blocks, sub_len).transpose(0, 2, 1, 3)
    max_err = 0.0
    per_block_min = np.full(num_blocks, np.inf)
    worst = WorstPair()  # the sweep of xi_metric(codebook, cov, num_rx)
    for ii, jj, eff in effective_eigs(codebook, cov):
        eig = pair_eigvals(blocks, np.ones((sub_len, sub_len)), ii, jj)  # per block
        kept = eig[..., max(0, sub_len - num_tx):][..., :m].prod(axis=-1)
        per_block_min = np.minimum(per_block_min, kept.min(axis=0))
        union = np.sort(eig.reshape(len(ii), n), axis=-1)
        max_err = max(max_err, float(np.max(np.abs(union - eff))))
        worst.update(eff[:, low:low + m].prod(axis=-1), ii, jj)
    scale = max(np.max(np.abs(words)) ** 2 * n, 1e-30)
    multiset_ok = max_err <= 1e-10 * scale
    return {"multiset_ok": bool(multiset_ok), "max_multiset_err": max_err,
            "global_xi": worst,
            "per_block_min_products": per_block_min.tolist()}


def min_entry_criterion(codebook_gen, snr_grid, epsilon):
    """Single-transmit-antenna criterion: the smallest per-slot difference
    power over all pairs must clear the rate threshold at every grid SNR.

    Zero-entry caveat: the criterion reads codeword pairs literally, so a
    block codebook whose pairs agree in some slot fails even if each slot is
    a fine standalone constellation; treat per-slot constellations as
    independent codes if that reading is intended."""
    results = []
    for snr in snr_grid:
        book = codebook_gen(snr)
        threshold = criterion_threshold(snr, book.mux_rate, epsilon)
        words = book.scalar_words
        worst = pairwise_min_products(words, 1)
        i, j = worst.pair
        results.append({"snr": float(snr), "min_entry": worst.value,
                        "threshold": threshold, "worst_pair": list(worst.pair),
                        "worst_slot": int(np.argmin(np.abs(words[i] - words[j]) ** 2)),
                        "passed": bool(worst.value >= threshold)})
    return {"passed": all(row["passed"] for row in results), "per_snr": results}


@dataclass(frozen=True)
class PepBound:
    """Closed-form average pairwise error bound."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0 + 1e-12:
            raise ValueError("bound must lie in [0, 1]")


def pep_chernoff(cov, e, snr, num_rx):
    """Average Chernoff bound on mistaking one codeword for another.

    Closed form: the product over the structurally nonzero eigenvalues lam_k
    of the effective difference of (1 + snr * lam_k / (4 * num_tx)) ** -num_rx.
    This is the exact expectation of the Gaussian-tail exponent over the
    fading distribution, so a Monte-Carlo average of
    exp(-snr/(4 num_tx) * sum_n ||H_n e_n||^2) converges to it.
    """
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    e = np.asarray(e, dtype=complex)
    num_tx, n = e.shape
    keep = structural_count(cov, num_tx, n, clip=True)
    eigvals = effective_difference(cov, e).eigvals
    return PepBound(value=float(chernoff_bound(eigvals[n - keep:], snr, num_tx, num_rx)))


def pep_monte_carlo(cov, e, snr, dims, trials=100_000, master_seed=0):
    """Monte-Carlo average of the Gaussian-tail exponent the closed-form
    bound integrates; an independent oracle for ``pep_chernoff``."""
    _check_nonnegative(snr, "snr")
    e = np.asarray(e, dtype=complex)
    coef = snr / (4.0 * dims.num_tx)

    def run_chunk(rng, size, live):
        faded = np.einsum("cnij,jn->cni", sample_channel_batch(cov, dims, size, rng), e)
        return [float(np.sum(np.exp(-coef * np.sum(np.abs(faded) ** 2, axis=(1, 2)))))]

    (total,), (trials,) = run_chunks(run_chunk, trials, master_seed)
    return total / trials


@dataclass(frozen=True)
class TraceBoundInstance:
    """Two ascending nonnegative weight profiles, the shorter applied first."""

    lam: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", theta)
        if lam.size > theta.size:
            raise ValueError("lam must not be longer than theta")
        for arr, name in ((lam, "lam"), (theta, "theta")):
            if np.any(arr < 0):
                raise ValueError(f"{name} must be nonnegative")
            if np.any(np.diff(arr) < 0):
                raise ValueError(f"{name} must be sorted ascending")


def least_favorable_trace(inst):
    """Minimum of Tr(L Q T Q^H L^H) over unitary Q: anti-sorted pairing.

    L embeds sqrt(lam) on the main diagonal of an m x n matrix and T is
    diag(theta); the minimum pairs the largest lam with the smallest theta.
    """
    m = inst.lam.size
    return float(np.dot(inst.lam, inst.theta[:m][::-1]))


def _trace_value(inst, unitary):
    m = inst.lam.size
    weights = np.abs(unitary[:m]) ** 2
    return float(inst.lam @ (weights @ inst.theta))


TRACE_ORACLE_MAX_SIZE = 7


def trace_oracle(inst, num_random_unitaries=1000, master_seed=0):
    """Brute-force check of the trace minimum.

    Exhausts all permutation matrices (so theta sizes are capped at
    ``TRACE_ORACLE_MAX_SIZE``) and samples Haar-distributed unitaries from
    QR factorizations of Gaussian matrices. Raises if the closed form misses
    the permutation minimum or is beaten by any sampled rotation.
    """
    n = inst.theta.size
    if n > TRACE_ORACLE_MAX_SIZE:
        raise ValueError(f"permutation exhaustion capped at size {TRACE_ORACLE_MAX_SIZE}")
    m = inst.lam.size
    perm_min = min(
        float(np.dot(inst.lam, np.asarray(perm)[:m]))
        for perm in itertools.permutations(inst.theta))
    closed = least_favorable_trace(inst)
    rng = spawn_rng(master_seed)
    sampled_min = np.inf
    for _ in range(num_random_unitaries):
        gauss = complex_normal(rng, (n, n))
        q = np.linalg.qr(gauss)[0]
        sampled_min = min(sampled_min, _trace_value(inst, q))
    if abs(closed - perm_min) > 1e-12 * max(1.0, abs(perm_min)):
        raise RuntimeError(f"closed form {closed} != permutation minimum {perm_min}")
    if sampled_min < closed - 1e-12 * max(1.0, abs(closed)):
        raise RuntimeError(f"sampled rotation beat the closed form: {sampled_min} < {closed}")
    return {"closed_form": closed, "perm_min": perm_min,
            "sampled_min": float(sampled_min)}


def shift_index_sets(precoder):
    """Eigenvalue index boxes occupied per antenna after shifting."""
    if precoder.shifts is None:
        raise ValueError("custom precoders carry no shift assignment")
    v, t = precoder.doppler_stride, precoder.delay_stride
    boxes = []
    for p, q in precoder.shifts:
        boxes.append({(a, b) for a in range(p * v, (p + 1) * v)
                      for b in range(q * t, (q + 1) * t)})
    return boxes

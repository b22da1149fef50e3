"""Error-probability machinery: the closed-form Chernoff bound on pairwise
error, its worst pair over a codebook, and an exhaustive maximum-likelihood
decoding Monte Carlo.
"""

import functools

import numpy as np

from ._util import Estimate, batches, complex_normal, run_chunks
from .channel import draw_white, mix_white
from .codes import _slot_spans, screened_eigs, structural_count


def chernoff_bound(eigs, snr, num_tx, num_rx):
    """Average Chernoff bound on mistaking one codeword for another, from the
    structurally nonzero eigenvalues lam_k of their effective difference
    along the last axis: the product of (1 + snr * lam_k / (4 * num_tx)) **
    -num_rx, the expectation over the fading of the Gaussian-tail exponent
    exp(-snr/(4 num_tx) * sum_n ||H_n e_n||^2). Round-off negatives count as
    zero."""
    eigs = np.clip(eigs, 0.0, None)
    return np.prod((1.0 + snr * eigs / (4.0 * num_tx)) ** (-num_rx), axis=-1)


def _pep_bounds(diag, eps, top, det_lo, lam_lo, c):
    """Bounds (snrs, pairs) on g = prod(1 + c * lam) over all n eigenvalues,
    with c = snr / (4 num_tx) of shape (snrs, 1), for the computed
    ``chernoff_bound``, which is g ** -num_rx. Low: 1 + c tr + c**n det, as
    every elementary symmetric function of PSD eigenvalues is >= 0 (at n = 1
    the two terms are one, so the det term is dropped). Up:
    (1 + c tr / n) ** n by AM-GM. An eigenvalue lam off by eps moves its
    factor by at most 1 +- r, r = c eps / (1 + c lam_lo) with lam_lo <= lam
    (zero when unknown), and both are widened for the rounding of the
    bound's own product."""
    n = diag.shape[-1]
    r = c * eps / (1 + c * np.fmax(lam_lo, 0.0))
    low = ((1 + c * (top - 2 * n * eps) + (n > 1) * c ** n * np.maximum(det_lo, 0.0))
           * np.maximum(0.0, 1 - r) ** n)
    up = ((1 + c * top / n) * (1 + r)) ** n
    return low * (1 - 2.0 ** -48 * n), up * (1 + 2.0 ** -48 * n)


def worst_pep(codebook, cov, snrs, num_rx):
    """Largest ``chernoff_bound`` over the codeword pairs at each SNR of
    ``snrs``, as a list. When cov.rank * num_tx >= block_len only the pairs
    that ``_pep_bounds`` cannot rule out at some SNR are eigensolved
    (``codes.screened_eigs``); the maximum is the same."""
    _, num_tx, n = codebook.words.shape
    keep = structural_count(cov, num_tx, n, clip=True)
    c = np.asarray(snrs, dtype=float)[:, None] / (4.0 * num_tx)
    worst = np.zeros(len(snrs))
    for _, _, eig in screened_eigs(codebook, cov, functools.partial(_pep_bounds, c=c),
                                   np.full(len(snrs), np.inf)):
        for k, snr in enumerate(snrs):
            worst[k] = max(worst[k], chernoff_bound(eig[:, n - keep:], snr, num_tx,
                                                    num_rx).max())
    return worst.tolist()


def _check_nonnegative(value, name):
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative")


def _word_table(x, amp):
    """Real (words, slots * (T**2 + 2T)) table of the word-dependent terms of
    ||r - amp H x_w||**2 - ||r||**2 for slot-major words x (words, slots,
    num_tx), the rows ``_trial_features`` is paired with. Per slot:
    |x_j|**2, Re and Im of conj(x_j) x_k for j < k, and Re and Im of x_j,
    scaled by amp**2, 2 amp**2, -2 amp**2 and -2 amp."""
    jj, kk = np.triu_indices(x.shape[-1], 1)
    cross = x[..., jj].conj() * x[..., kk]
    a2 = amp * amp
    cols = (a2 * (x.real ** 2 + x.imag ** 2), 2 * a2 * cross.real,
            -2 * a2 * cross.imag, -2 * amp * x.real, -2 * amp * x.imag)
    return np.concatenate(cols, axis=-1).reshape(len(x), -1)


def _gram_features(blocks):
    """Real (trials, slots, T**2) SNR-free features of ``_trial_features``: per
    slot the diagonal and the Re/Im upper triangle of the Gram H_n^H H_n."""
    conj = blocks.conj()
    jj, kk = np.triu_indices(blocks.shape[-1], 1)
    upper = np.einsum("cnrp,cnrp->cnp", conj[..., jj], blocks[..., kk])
    return np.concatenate((np.einsum("cnri,cnri->cni", conj, blocks).real, upper.real,
                           upper.imag), axis=-1)


def _trial_features(gram, blocks, received):
    """Real (trials, slots * (T**2 + 2T)) features matching ``_word_table``:
    per slot the ``_gram_features`` ``gram`` of ``blocks`` and the Re/Im
    matched filter H_n^H r_n."""
    matched = np.einsum("cnri,cnr->cni", blocks.conj(), received)
    return np.concatenate((gram, matched.real, matched.imag), axis=-1).reshape(len(blocks), -1)


def error_curve(cov, dims, codebook, snrs, trials=10_000, master_seed=0, workers=1):
    """Exhaustive-ML decoding error rates of a ``Codebook`` over a grid of
    SNRs, one ``Estimate`` of the decoding errors per SNR, in grid order.

    Per trial: draw a correlated channel, pick a codeword uniformly, add
    white complex Gaussian noise, decode by minimizing the slot-summed
    distance over the whole codebook. Designed for desk-scale codebooks;
    decoding cost is linear in the codebook size. Every SNR sees the same
    channels, words and noise (common random numbers): each chunk is drawn
    and mixed once and decoded at every SNR, and an SNR's estimate is that
    of a grid of that SNR alone.

    The distance is expanded as ||r||**2 - 2 amp Re<H^H r, x_w> +
    amp**2 sum_n x_{w,n}^H H_n^H H_n x_{w,n}; ||r||**2 is common to all
    words, so the rest is one real matrix product of per-trial features with
    a per-word table, taken over the chunk's sub-blocks (``_util.batches``).
    The metric sees the words only through H_n x_{w,n}, so when every
    slot's words lie in a d < T dimensional span (``_slot_spans``; d = 1 for
    a precoded code p_n s_{w,n}) the words are their coordinates c = B_n^H x
    and the channels the effective H_n B_n: slots * (d**2 + 2d) features
    instead of slots * (T**2 + 2T). The projection moves the metric by
    rounding only (the dense metric is the tests' oracle to 1e-12 relative);
    a full-span codebook is decoded as it is, bit for bit.
    """
    snrs = tuple(snrs)
    if not snrs:
        raise ValueError("the SNR grid must not be empty")
    for snr in snrs:
        _check_nonnegative(snr, "snr")
    words = codebook.words
    num_words, num_tx, n = words.shape
    if num_words < 1:
        raise ValueError("codebook must be nonempty")
    if (num_tx, n) != (dims.num_tx, dims.block_len):
        raise ValueError("codeword shape does not match the channel dimensions")
    amps = [np.sqrt(snr / num_tx) for snr in snrs]
    basis, coords = _slot_spans(np.ascontiguousarray(np.swapaxes(words, 1, 2)))
    tables = [_word_table(coords, amp).T for amp in amps]

    def run_chunk(rng, size, live):
        white = draw_white(cov, dims, size, rng)
        sent = rng.integers(0, num_words, size)
        noise = complex_normal(rng, (size, n, dims.num_rx))
        wrong = [0] * len(snrs)
        # the (trials, words) decode product is the sub-block's largest temporary
        for block in batches(size, num_words):
            blocks = mix_white(cov, white[block])
            if basis is not None:
                # H_n B_n: one (count M_R, T) x (T, d) product per slot of the
                # slot-major mix
                slot_major = np.swapaxes(blocks, 0, 1)
                blocks = np.swapaxes((slot_major.reshape(n, -1, num_tx) @ basis).reshape(
                    *slot_major.shape[:-1], -1), 0, 1)
            # the decode einsums read the slot-major layout 1.6x slower than a copy
            blocks = np.ascontiguousarray(blocks)
            faded = np.einsum("cnij,cnj->cni", blocks, coords[sent[block]])
            gram = _gram_features(blocks)
            for j in live:
                received = amps[j] * faded + noise[block]
                decoded = np.argmin(_trial_features(gram, blocks, received) @ tables[j], axis=1)
                wrong[j] += int(np.count_nonzero(decoded != sent[block]))
        return wrong

    errors, done = run_chunks(run_chunk, trials, master_seed, workers, num_points=len(snrs))
    return [Estimate.of(count, runs) for count, runs in zip(errors, done)]

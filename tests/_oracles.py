"""Test-side oracles that the library does not carry."""

import numpy as np

from dmtlab import sim
from dmtlab._util import batches, complex_normal, eig_rank, run_chunks, wilson_interval
from dmtlab.channel import draw_white, mix_white
from dmtlab.codes import (_LISTED_FAILURES, WorstPair, _sort_slots, effective_eigs, pair_eigvals,
                          structural_count)
from dmtlab.sim import ErrorEstimate, chernoff_bound
from dmtlab.tradeoff import (OutageEstimate, _jensen_information_batch,
                             _mutual_information_batch)


def psd_root(cov):
    """Hermitian PSD square root of ``cov.entries``: eigendecomposition with
    negative rounding-level eigenvalues clipped to zero."""
    w, v = np.linalg.eigh(cov.entries)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


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


def single_point_outage(cov, dims, point, bound, trials, master_seed, min_events, workers):
    """The outage estimate of one SNR point by the per-point chunk loop that
    ran once per grid SNR before the grid became the unit of work: each chunk
    is drawn, mixed and evaluated for this point alone."""
    rate = point.rate_nats()
    info_batch = _mutual_information_batch if bound == "full" else _jensen_information_batch
    per_trial = 16 * dims.block_len * dims.num_rx * dims.num_tx

    def run_chunk(rng, size, live):
        white = draw_white(cov, dims, size, rng)
        events = 0
        for block in batches(size, per_trial):
            info = info_batch(mix_white(cov, white[block]), point.snr)
            events += int(np.count_nonzero(info < rate))
        return [events]

    (events,), (done,) = run_chunks(run_chunk, trials, master_seed, workers, min_events)
    low, high = wilson_interval(events, done)
    return OutageEstimate(probability=events / done, trials=done,
                          outage_events=events, ci_low=low, ci_high=high)


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


def single_snr_errors(cov, dims, transmit, snr, trials, master_seed, noise_scale, workers):
    """The ML error estimate at one SNR by the per-SNR chunk loop that ran
    once per grid SNR before the grid became the unit of work: each chunk is
    drawn, mixed and decoded at this SNR alone."""
    words = sim._resolve_words(transmit)
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
    low, high = wilson_interval(errors, done)
    return ErrorEstimate(error_rate=errors / done, trials=done, errors=errors,
                         ci_low=low, ci_high=high)


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

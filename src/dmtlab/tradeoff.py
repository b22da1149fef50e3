"""Mutual information, outage Monte Carlo, and diversity-multiplexing curves.

All rates are natural-log quantities; the CLI converts to bits for display.
The input covariance is the identity throughout: scaling it only shifts the
SNR axis by a constant factor, which leaves every diversity exponent
unchanged.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._util import Estimate, batches, linear_to_db, run_chunks
from .channel import draw_white, mix_white


@dataclass(frozen=True)
class FixedRate:
    """Rate held constant in SNR, in nats."""

    nats: float

    def __post_init__(self):
        if not (np.isfinite(self.nats) and self.nats >= 0):
            raise ValueError("rate must be a finite nonnegative number of nats")

    def rate_at(self, snr):
        return self.nats


@dataclass(frozen=True)
class ScalingRate:
    """Rate growing as mux_rate * log(SNR)."""

    mux_rate: float

    def rate_at(self, snr):
        return self.mux_rate * np.log(snr)


@dataclass(frozen=True)
class SnrPoint:
    snr: float
    rate_mode: object

    def __post_init__(self):
        if not (np.isfinite(self.snr) and self.snr > 0):
            raise ValueError("snr must be a finite positive linear power ratio")

    def rate_nats(self):
        return float(self.rate_mode.rate_at(self.snr))


@dataclass(frozen=True)
class DmtCurve:
    """Piecewise-linear diversity curve through integer multiplexing rates."""

    points: tuple  # ((r, d), ...) at r = 0..min_ant

    def __post_init__(self):
        diversities = [d for _, d in self.points]
        if any(b > a + 1e-12 for a, b in zip(diversities, diversities[1:])):
            raise ValueError("diversity must be nonincreasing in the multiplexing rate")
        if abs(diversities[-1]) > 1e-12:
            raise ValueError("diversity must vanish at the maximal multiplexing rate")


def jensen_dmt_curve(rho, dims, variant="jensen"):
    """Closed-form diversity-multiplexing curve of the stacked channel.

    Parameters
    ----------
    rho : int
        Rank of the slot covariance matrix.
    dims : ChannelDims
    variant : {"jensen", "independent"}
        "jensen" gives d(r) = (rho*M - r)(m - r) at integer r; "independent"
        gives d(r) = rho*(M - r)(m - r), the curve of coding separately over
        rho independent channels. The independent curve never exceeds the
        jensen curve.
    """
    if rho < 1:
        raise ValueError("covariance rank must be at least 1")
    m, big_m = dims.min_ant, dims.max_ant
    points = []
    for r in range(m + 1):
        if variant == "jensen":
            d = (rho * big_m - r) * (m - r)
        elif variant == "independent":
            d = rho * (big_m - r) * (m - r)
        else:
            raise ValueError(f"unknown variant: {variant!r}")
        points.append((r, d))
    return DmtCurve(points=tuple(points))


def _wide(blocks):
    """Slot matrices with min(M_R, M_T) rows: transposed when M_R > M_T,
    which leaves log det(I + a H H^H) unchanged."""
    return blocks if blocks.shape[-2] <= blocks.shape[-1] else blocks.swapaxes(-1, -2)


def _jensen_stack(blocks):
    """The (count, min_ant, N * max_ant) Jensen channels of a (count, N, M_R,
    M_T) batch: each draw's wide slot matrices side by side. A (count, rho,
    M_R, M_T) batch of scaled white matrices sqrt(lambda_k) W_k gives the
    (count, min_ant, rho * max_ant) stack of the same Gram."""
    wide = _wide(blocks)
    count, n, k, m = wide.shape
    return wide.transpose(0, 2, 1, 3).reshape(count, k, n * m)


def _snr_free(blocks, bound):
    """The SNR-free statistics of a (count, N, M_R, M_T) batch under ``bound``,
    one row per draw, from which ``_snr_step`` gives its information at any
    SNR. Of each wide matrix h (each slot's for "full", the Jensen channel's
    for "jensen") they are ||h||_F^2 for one row and (||h||_F^2, det(h h^H))
    for two, on a last axis of length 1 or 2, and the complex Gram h h^H for
    more. det(h h^H) is the sum of the squared 2x2 minors of h (Cauchy-Binet;
    |det h|^2 when h is square), which avoids the cancellation of the Gram
    determinant on near-singular h."""
    h = _wide(blocks) if bound == "full" else _jensen_stack(blocks)
    k, m = h.shape[-2:]
    if k > 2:
        return np.einsum("...ij,...kj->...ik", h, h.conj())
    if k == 1:
        return (np.abs(h[..., 0, :]) ** 2).sum(axis=-1)[..., None]
    top, bottom = h[..., 0, :], h[..., 1, :]
    det = 0.0
    for shift in range(1, m):  # all minors on columns (j, j + shift) at once
        minor = top[..., :-shift] * bottom[..., shift:] - top[..., shift:] * bottom[..., :-shift]
        det = det + (minor.real ** 2 + minor.imag ** 2).sum(axis=-1)
    return np.stack(((np.abs(h) ** 2).sum(axis=(-2, -1)), det), axis=-1)


def _rank_one_stats(exps, m, power):
    """``_snr_free``'s statistics of draws of a rank-one covariance, from a
    (count, k * m) batch ``exps`` of Exp(1) variates, k = min_ant <= 2 and
    m = max_ant. Every slot's channel is then sqrt(lambda_1) v_1[n] W for one
    white k x m matrix W, which enters only through its complex Wishart Gram
    W W^H = L L^H. By the Bartlett decomposition |L_11|^2 ~ Gamma(m) (the sum
    of the first m variates), |L_22|^2 ~ Gamma(m - 1) (the next m - 1) and
    |L_21|^2 ~ Exp(1) (the last), all independent, so ||W||_F^2 is the sum of
    all of them and det(W W^H) = |L_11|^2 |L_22|^2, with no cancellation. They
    are scaled by ``power``: lambda_1 |v_1[n]|^2 per slot (an (N,) array, for
    "full") or lambda_1 (a scalar, for the Jensen Gram lambda_1 W W^H)."""
    first = sum(exps[:, j] for j in range(m))
    if exps.shape[1] == m:
        return np.multiply.outer(first, power)[..., None]
    second = sum(exps[:, j] for j in range(m, 2 * m - 1))
    trace = first + second + exps[:, -1]
    return np.stack((np.multiply.outer(trace, power),
                     np.multiply.outer(first * second, power * power)), axis=-1)


def _snr_step(stats, bound, a):
    """Per-draw information from ``_snr_free``'s statistics at power ``a`` per
    entry: log det(I + a h h^H), averaged over the slots for "full". One or two
    rows take the closed form log1p(a ||h||_F^2 + a^2 det(h h^H)), more rows
    slogdet."""
    if np.iscomplexobj(stats):
        logdet = np.linalg.slogdet(np.eye(stats.shape[-1]) + a * stats)[1]
    elif stats.shape[-1] == 1:
        logdet = np.log1p(a * stats[..., 0])
    else:
        logdet = np.log1p(a * stats[..., 0] + a * a * stats[..., 1])
    return logdet.mean(axis=1) if bound == "full" else logdet


def _chains(points, rates, live):
    """The points of ``live`` sorted by (SNR ascending, rate descending) and
    cut into chains: a point whose rate is no larger than its predecessor's
    joins its chain. Information never falls as the SNR rises, so along a
    chain each point's outage draws are among those of the point before."""
    chains = []
    for j in sorted(live, key=lambda j: (points[j].snr, -rates[j])):
        if chains and rates[j] <= rates[chains[-1][-1]]:
            chains[-1].append(j)
        else:
            chains.append([j])
    return chains


def outage_curve(cov, dims, points, bound="full", trials=100_000, master_seed=0,
                 min_events=100, workers=1):
    """Monte-Carlo outage probabilities over a grid of SNR points, one
    ``Estimate`` of the outage events per point, in grid order.

    Parameters
    ----------
    cov : CovarianceMatrix
    dims : ChannelDims
    points : nonempty sequence of SnrPoint
    bound : {"full", "jensen"}
        Whether outage is declared on the per-slot average information or on
        the stacked-channel upper bound.
    trials : int
        Trial cap per point. A point stops early once ``min_events`` outage
        events have accumulated at it (checked on a fixed chunk schedule so
        results do not depend on the worker count); ``min_events`` of None or
        0 always runs the full cap.
    master_seed : int
        Chunk c draws from the generator seeded by (master_seed, c), so a
        fixed seed gives byte-identical results for any ``workers``.

    Every point of the grid sees the same draws (common random numbers):
    each chunk is drawn once and mixed once per sub-block, and the SNR-free
    statistics of its draws are computed once. "jensen" never mixes: the
    eigenvectors are orthonormal, so the Jensen Gram sum_n H_n H_n^H is
    sum_k lambda_k W_k W_k^H, and its statistics come from the white matrices
    sqrt(lambda_k) W_k side by side. A rank-one covariance with min_ant <= 2
    draws no channel at all: each trial takes M_R * M_T Exp(1) variates, and
    ``_rank_one_stats`` reads the statistics of its Wishart Gram off their
    Bartlett decomposition, which is exact in distribution but not the
    Gaussian draws of ``sample_channel_batch`` for the same seed.
    Information never falls as the SNR rises, so the points still running
    are cut into chains (``_chains``): sorted by SNR, then by falling rate, a
    point whose rate is no larger than the previous point's joins that
    point's chain, and its outage draws are among that point's. Each chain's
    first point is evaluated on every draw, each later point on the draws
    kept at the point before it: those whose information there lies below
    its rate plus a slack of 1e-9 * max(1, |rate|). The slack keeps a
    superset, so a log-det whose rounding falls below its value at a lower
    SNR drops no draw. The kept draws are evaluated at the end of the
    chunk or once they fill a sub-block, so they never hold two sub-blocks,
    and are copied only when fewer than half of them are in outage (else all
    are kept). A ``ScalingRate`` grid has a rate that rises with the SNR, so
    each of its points is a chain of its own and gains nothing. Event counts
    are those of evaluating every point on every draw, so a point's estimate
    is that of a grid of that point alone.
    """
    points = tuple(points)
    if not points:
        raise ValueError("the SNR grid must not be empty")
    for point in points:
        if isinstance(point.rate_mode, ScalingRate):
            r = point.rate_mode.mux_rate
            if not 0 <= r <= dims.min_ant:
                raise ValueError("multiplexing rate must lie in [0, min_ant]")
    if bound not in ("full", "jensen"):
        raise ValueError(f"unknown bound: {bound!r}")
    if cov.block_len != dims.block_len:
        raise ValueError("covariance size does not match the block length")
    rates = [point.rate_nats() for point in points]

    # a trial's channel-sized complex temporaries (the mix, the log-det
    # kernel's), counted as 16 real entries per channel entry: at 8, the
    # 4096-trial sub-blocks of 4-entry channels still page-faulted on every
    # chunk in a process whose first numpy.random call ran on a worker thread
    per_trial = 16 * dims.block_len * dims.num_rx * dims.num_tx

    scale = dims.num_tx * (1 if bound == "full" else dims.block_len)

    def evaluate(stats, j, events, more):
        """Add point j's outage events among the rows of ``stats`` to
        ``events`` and return rows that include all that can still be in
        outage at the points after j in its chain: when ``more`` such points
        follow and fewer than half the rows are in outage at j, a copy of
        those below j's rate plus the slack (a superset, so a log-det rounded
        below its value at a lower SNR drops no draw); else ``stats`` itself."""
        info = _snr_step(stats, bound, points[j].snr / scale)
        hits = int(np.count_nonzero(info < rates[j]))
        events[j] += hits
        if more and 2 * hits < len(info):
            return stats[info < rates[j] + 1e-9 * max(1.0, abs(rates[j]))]
        return stats

    rank_one = cov.rank == 1 and dims.min_ant <= 2
    if rank_one:
        power = cov.eigvals[0] * (np.abs(cov.eigvecs[:, 0]) ** 2 if bound == "full" else 1.0)

    def run_chunk(rng, size, live):
        if not rank_one:
            white = draw_white(cov, dims, size, rng)
            if bound == "jensen":  # the white Jensen stack, which is never mixed
                white *= np.sqrt(cov.eigvals)[:, None, None]
        events = [0] * len(points)
        chains = [(chain, []) for chain in _chains(points, rates, live)]
        for block in batches(size, per_trial):
            if rank_one:  # each trial's Bartlett variates, a row of the chunk's stream
                exps = rng.standard_exponential((block.stop - block.start,
                                                 dims.num_rx * dims.num_tx))
                stats = _rank_one_stats(exps, dims.max_ant, power)
            else:
                channels = white[block] if bound == "jensen" else mix_white(cov, white[block])
                stats = _snr_free(channels, bound)
            for chain, rows in chains:
                rows.append(evaluate(stats, chain[0], events, len(chain) > 1))
                # the later points run on the rows kept so far at the end of
                # the chunk, or once they fill a sub-block, which bounds them
                if block.stop == size or sum(map(len, rows)) >= len(stats):
                    kept = rows[0] if len(rows) == 1 else np.concatenate(rows)
                    rows.clear()
                    for j in chain[1:]:
                        kept = evaluate(kept, j, events, j != chain[-1])
        return events

    events, done = run_chunks(run_chunk, trials, master_seed, workers, min_events, len(points))
    return [Estimate.of(count, runs) for count, runs in zip(events, done)]


def fit_diversity_slope(curve, window_db):
    """Least-squares slope of -log(probability) against log(snr).

    Parameters
    ----------
    curve : sequence of (snr, probability)
        SNR in linear units.
    window_db : (low, high)
        Only points whose SNR in dB falls inside the window are used.

    Returns
    -------
    (slope, stderr)

    Raises ``ValueError`` on a non-finite probability inside the window and
    when fewer than 3 usable points or 2 distinct SNRs remain.
    """
    lo, hi = window_db
    xs, ys = [], []
    for snr, prob in curve:
        if not lo - 1e-9 <= linear_to_db(snr) <= hi + 1e-9:
            continue
        if not np.isfinite(prob):
            raise ValueError(f"probability {prob} at snr={snr:g} is not finite")
        if prob <= 0:
            warnings.warn(f"excluding zero-probability point at snr={snr!r}")
            continue
        xs.append(np.log(snr))
        ys.append(-np.log(prob))
    if len(xs) < 3:
        raise ValueError("need at least 3 usable points inside the window")
    if len(set(xs)) < 2:
        raise ValueError("need at least 2 distinct SNRs inside the window")
    x = np.array(xs) - np.mean(xs)
    y = np.array(ys)
    slope = float(np.dot(x, y) / np.dot(x, x))
    resid = y - np.mean(y) - slope * x
    dof = len(xs) - 2
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / np.dot(x, x)))
    return slope, stderr

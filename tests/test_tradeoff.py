import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtlab import _util, tradeoff
from dmtlab.channel import (
    MODELS,
    BlockFading,
    ChannelDims,
    CyclicIsi,
    Fast,
    Flat,
    ScatteringSpec,
    TimeFrequency,
    build_covariance,
    draw_white,
    mix_white,
    sample_channel_batch,
)
from dmtlab.tradeoff import (
    DmtCurve,
    FixedRate,
    ScalingRate,
    SnrPoint,
    fit_diversity_slope,
    jensen_dmt_curve,
    outage_curve,
)
from dmtlab._util import (MC_CHUNK, MC_WAVE, chunk_rng, complex_normal, db_to_linear, run_chunks,
                          spawn_rng)

from _oracles import (_information, jensen_mutual_information, logdet_identity_plus,
                      mutual_information, outage_information, sample_channel,
                      single_point_outage, singularity_levels)


def _realization(blocks):
    """One (N, M_R, M_T) channel draw as the information functions take it."""
    return np.asarray(blocks, dtype=complex)


def test_mutual_information_zero_snr():
    real = _realization(np.ones((1, 1, 1)))
    assert mutual_information(real, 0.0) == pytest.approx(0.0)


def test_mutual_information_scalar_case():
    real = _realization(np.ones((1, 1, 1)))
    assert mutual_information(real, 3.0) == pytest.approx(np.log(4.0))


def test_mutual_information_matches_dense_oracle():
    rng = spawn_rng(8)
    blocks = (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))) / np.sqrt(2)
    real = _realization(blocks)
    snr = 7.5
    # brute-force oracle: eigenvalues of each slot Gram
    total = 0.0
    for blk in blocks:
        eig = np.linalg.eigvalsh(blk @ blk.conj().T)
        total += np.sum(np.log(1 + snr / 2 * eig))
    assert mutual_information(real, snr) == pytest.approx(total / 2, rel=1e-12)


def test_jensen_equals_full_for_single_slot():
    rng = spawn_rng(9)
    for mt, mr in [(1, 1), (2, 3), (3, 2)]:
        blocks = (rng.standard_normal((1, mr, mt)) + 1j * rng.standard_normal((1, mr, mt)))
        real = _realization(blocks)
        assert jensen_mutual_information(real, 4.0) == pytest.approx(
            mutual_information(real, 4.0), rel=1e-12)


def test_jensen_equals_full_for_flat_fading():
    rng = spawn_rng(10)
    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    blocks = np.stack([block] * 4)
    real = _realization(blocks)
    assert jensen_mutual_information(real, 9.0) == pytest.approx(
        mutual_information(real, 9.0), rel=1e-12)


@pytest.mark.parametrize("model,n", [(Flat(), 4), (Fast(), 4),
                                     (BlockFading(2, 2), 4),
                                     (CyclicIsi(2, (1.0, 0.7)), 4)])
def test_jensen_dominates_full_information(model, n):
    cov = build_covariance(model, n)
    for mt, mr in [(2, 2), (1, 3), (3, 1)]:
        dims = ChannelDims(mt, mr, n)
        rng = spawn_rng(11, mt, mr)
        for _ in range(200):
            real = sample_channel(cov, dims, rng)
            full = mutual_information(real, 12.0)
            assert jensen_mutual_information(real, 12.0) >= full - 1e-10


KERNEL_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (2, 4)]  # (M_R, M_T)
KERNEL_SNR_DB = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
BOUNDS = ("full", "jensen")


def _dense_information(blocks, snr, num_tx, bound):
    """Gram + slogdet reference for either bound over a (count, N, M_R, M_T)
    batch. Both take the min-antenna Gram, H H^H or H^H H: a tall channel's
    M_R x M_R Gram has rank M_T, and its slogdet misses by about 1e-12."""
    n, num_rx = blocks.shape[1:3]
    if num_rx <= num_tx:
        gram = np.einsum("cnij,cnkj->cnik", blocks, blocks.conj())
    else:
        gram = np.einsum("cnji,cnjk->cnik", blocks.conj(), blocks)
    eye = np.eye(gram.shape[-1])
    if bound == "full":
        return np.linalg.slogdet(eye + snr / num_tx * gram)[1].mean(axis=1)
    return np.linalg.slogdet(eye + snr / (num_tx * n) * gram.sum(axis=1))[1]


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("num_rx,num_tx", KERNEL_SHAPES)
def test_closed_form_matches_dense_slogdet(num_rx, num_tx, n):
    blocks = complex_normal(spawn_rng(14, num_rx, num_tx, n), (400, n, num_rx, num_tx))
    for snr in db_to_linear(KERNEL_SNR_DB):
        for bound in BOUNDS:
            # slogdet takes the log of a determinant near 1, so the oracle itself
            # is only accurate to ~1e-16 absolute where the information is tiny
            np.testing.assert_allclose(_information(blocks, bound, snr),
                                       _dense_information(blocks, snr, num_tx, bound),
                                       rtol=1e-12, atol=1e-15)


def _near_singular_blocks(rng, count, n, num_rx, num_tx):
    """Draws whose two wide rows are parallel up to a relative 1e-9..1e-3."""
    wide = max(num_rx, num_tx)
    top = complex_normal(rng, (count, n, wide))
    ratio = complex_normal(rng, (count, 1, 1))
    spread = 10.0 ** rng.uniform(-9, -3, (count, 1, 1))
    bottom = ratio * top + spread * complex_normal(rng, (count, n, wide))
    rows = np.stack([top, bottom], axis=2)  # (count, n, 2, wide)
    return rows if num_rx <= num_tx else rows.swapaxes(-1, -2)


def _mp_logdet(rows, a, mpmath):
    """40-digit log det(I + a h h^H) of a 2 x m matrix given as its two rows."""
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        h = [[mpmath.mpc(z) for z in row] for row in rows]
        g = [[mpmath.fsum(x * mpmath.conj(y) for x, y in zip(r, c)) for c in h] for r in h]
        det = (1 + a * g[0][0]) * (1 + a * g[1][1]) - a * a * g[0][1] * g[1][0]
        return float(mpmath.log(det.real))


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("num_rx,num_tx", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_closed_form_matches_mpmath_on_near_singular_draws(num_rx, num_tx, n):
    mpmath = pytest.importorskip("mpmath")
    rng = spawn_rng(15, num_rx, num_tx, n)
    blocks = _near_singular_blocks(rng, 12, n, num_rx, num_tx)
    wide = blocks if num_rx <= num_tx else blocks.swapaxes(-1, -2)
    dense_worst = 0.0
    for snr in db_to_linear(KERNEL_SNR_DB):
        a_slot, a_stack = snr / num_tx, snr / (num_tx * n)
        refs = {
            "full": np.array([np.mean([_mp_logdet(w, a_slot, mpmath) for w in draw])
                              for draw in wide]),
            "jensen": np.array([_mp_logdet(np.concatenate(list(draw), axis=1), a_stack, mpmath)
                                for draw in wide]),
        }
        for bound in BOUNDS:
            ref = refs[bound]
            np.testing.assert_allclose(_information(blocks, bound, snr), ref, rtol=1e-14, atol=0)
            dense = _dense_information(blocks, snr, num_tx, bound)
            dense_worst = max(dense_worst, np.max(np.abs(dense / ref - 1)))
    # the draws are hard: the Gram + slogdet path misses the bound held above
    assert dense_worst > 1e-14


def test_three_antenna_case_takes_slogdet_path(monkeypatch):
    blocks = complex_normal(spawn_rng(16), (200, 4, 3, 3))
    snr = 100.0
    refs = {bound: _dense_information(blocks, snr, 3, bound) for bound in BOUNDS}
    calls = []
    slogdet = np.linalg.slogdet

    def recording_slogdet(mat):
        calls.append(mat.shape)
        return slogdet(mat)

    monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
    for bound in BOUNDS:
        calls.clear()
        np.testing.assert_allclose(_information(blocks, bound, snr), refs[bound], rtol=1e-12, atol=0)
        assert calls and calls[0][-2:] == (3, 3)
    calls.clear()
    for bound in BOUNDS:
        _information(blocks[..., :2, :], bound, snr)
    assert not calls  # two rows take the closed form


@pytest.mark.parametrize("num_rx,num_tx", KERNEL_SHAPES + [(3, 3), (3, 4)])
def test_staged_information_equals_one_pass_kernel_bitwise(num_rx, num_tx):
    # the SNR-free statistics are computed once and the SNR step runs at each
    # SNR, on all draws or on any subset of them, with the arithmetic of the
    # one-pass kernel, so the log-dets are equal bit for bit
    blocks = complex_normal(spawn_rng(17, num_rx, num_tx), (300, 4, num_rx, num_tx))
    wide = blocks if num_rx <= num_tx else blocks.swapaxes(-1, -2)
    stack = wide.transpose(0, 2, 1, 3).reshape(300, wide.shape[2], -1)
    subset = spawn_rng(18).random(300) < 0.3
    for bound in ("full", "jensen"):
        stats = tradeoff._snr_free(blocks, bound)
        assert len(stats) == 300
        for snr in db_to_linear(KERNEL_SNR_DB):
            if bound == "full":
                a = snr / num_tx
                expected = logdet_identity_plus(wide, a).mean(axis=1)
            else:
                a = snr / (num_tx * 4)
                expected = logdet_identity_plus(stack, a)
            assert np.array_equal(tradeoff._snr_step(stats, bound, a), expected)
            assert np.array_equal(tradeoff._snr_step(stats[subset], bound, a), expected[subset])
            assert np.array_equal(_information(blocks, bound, snr), expected)


@pytest.mark.parametrize("num_rx,num_tx", [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3)])
def test_information_of_no_draws_is_empty(num_rx, num_tx):
    # an empty kept set can reach the SNR step, and the Jensen stack of no
    # draws keeps its (0, min_ant, N * max_ant) shape
    blocks = np.zeros((0, 4, num_rx, num_tx), dtype=complex)
    for bound in BOUNDS:
        assert _information(blocks, bound, 10.0).shape == (0,)
        assert tradeoff._snr_step(tradeoff._snr_free(blocks, bound), bound, 2.5).shape == (0,)
    assert tradeoff._jensen_stack(blocks).shape == (0, min(num_rx, num_tx), 4 * max(num_rx, num_tx))


def _assert_information_nondecreasing_in_snr(blocks, snr_grid):
    # the premise of the kept-set slack: along a draw's information curve
    # every computed value is at least the one at any lower SNR, up to 1e-12
    # relative
    for bound in BOUNDS:
        info = np.array([_information(blocks, bound, snr) for snr in snr_grid])
        assert np.all(info[1:] >= info[:-1] - 1e-12 * np.abs(info[:-1]))


# coarse steps over the whole range, then SNRs a few ulps to 1e-9 apart
_MONOTONE_SNR = np.concatenate([db_to_linear(np.arange(-20.0, 60.5, 2.5)),
                                100.0 * (1.0 + np.array([0, 4e-16, 1e-15, 1e-13, 1e-11, 1e-9]))])
_MONOTONE_SNR.sort()


@pytest.mark.parametrize("num_rx,num_tx", KERNEL_SHAPES + [(3, 3), (3, 4), (4, 3)])
def test_information_is_nondecreasing_in_snr(num_rx, num_tx):
    blocks = complex_normal(spawn_rng(19, num_rx, num_tx), (300, 4, num_rx, num_tx))
    _assert_information_nondecreasing_in_snr(blocks, _MONOTONE_SNR)


@pytest.mark.parametrize("num_rx,num_tx", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_information_of_near_singular_draws_is_nondecreasing_in_snr(num_rx, num_tx):
    # the draws of the mpmath test, whose minor sums nearly cancel
    blocks = _near_singular_blocks(spawn_rng(15, num_rx, num_tx, 4), 12, 4, num_rx, num_tx)
    _assert_information_nondecreasing_in_snr(blocks, _MONOTONE_SNR)


def test_singularity_levels_trivia():
    levels = singularity_levels(_realization(np.full((1, 1, 1), 1.0)), 100.0)
    assert levels.per_slot[0, 0] == pytest.approx(0.0)

    # eigenvalue 0.01 at snr 100 -> level 1
    levels = singularity_levels(_realization(np.full((1, 1, 1), 0.1)), 100.0)
    assert levels.per_slot[0, 0] == pytest.approx(1.0)

    with pytest.raises(ValueError):
        singularity_levels(_realization(np.full((1, 1, 1), 0.1)), 1.0)


def test_singularity_levels_round_trip():
    rng = spawn_rng(12)
    blocks = (rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
    real = _realization(blocks)
    snr = 250.0
    levels = singularity_levels(real, snr)
    for n, blk in enumerate(blocks):
        eig = np.sort(np.linalg.eigvalsh(blk @ blk.conj().T))
        recon = snr ** (-levels.per_slot[n])
        assert np.allclose(recon, eig, rtol=1e-10)
    assert np.all(np.diff(levels.jensen) <= 1e-12)  # descending


def test_dmt_curve_tables():
    dims22 = ChannelDims(2, 2, 4)
    curve = jensen_dmt_curve(1, dims22)
    assert curve.points == ((0, 4), (1, 1), (2, 0))
    curve = jensen_dmt_curve(2, dims22)
    assert curve.points == ((0, 8), (1, 3), (2, 0))
    # scalar channel with rank-L covariance behaves like L*(1 - r)
    for L in (1, 2, 5):
        curve = jensen_dmt_curve(L, ChannelDims(1, 1, 8))
        assert curve.points == ((0, L), (1, 0))
        xs, ys = np.array(curve.points, dtype=float).T
        assert np.interp(0.25, xs, ys) == pytest.approx(L * 0.75)


def test_independent_curve_never_beats_jensen():
    rng = spawn_rng(13)
    for _ in range(50):
        rho = int(rng.integers(1, 5))
        mt = int(rng.integers(1, 5))
        mr = int(rng.integers(1, 5))
        dims = ChannelDims(mt, mr, rho * mt + 1)
        jensen = jensen_dmt_curve(rho, dims, "jensen")
        indep = jensen_dmt_curve(rho, dims, "independent")
        for (r, dj), (_, di) in zip(jensen.points, indep.points):
            assert di <= dj


def test_dmt_curve_validation():
    with pytest.raises(ValueError):
        DmtCurve(points=((0, 1), (1, 2), (2, 0)))
    with pytest.raises(ValueError):
        DmtCurve(points=((0, 4), (1, 2)))
    with pytest.raises(ValueError):
        jensen_dmt_curve(0, ChannelDims(2, 2, 4))


def test_outage_zero_rate_never_in_outage():
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(1, 1, 1)
    est = outage_curve(cov, dims, [SnrPoint(10.0, FixedRate(0.0))],
                       trials=2000, master_seed=1, min_events=None)[0]
    assert est.probability == 0.0
    assert est.events == 0


def test_outage_matches_rayleigh_cdf():
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(1, 1, 1)
    snr, rate, trials = 10.0, np.log(2.0), 80 * MC_CHUNK
    # a sampler check, not a check of one seed's stream: within 5 standard
    # errors (1.28e-3 here, no wider than the 95% interval of 200 000 trials)
    est = outage_curve(cov, dims, [SnrPoint(snr, FixedRate(rate))],
                       trials=trials, master_seed=3, min_events=None)[0]
    analytic = 1.0 - np.exp(-(np.exp(rate) - 1.0) / snr)
    assert abs(est.probability - analytic) <= 5 * np.sqrt(analytic * (1 - analytic) / trials)
    assert est.probability == pytest.approx(analytic, rel=0.05)


def test_jensen_outage_never_exceeds_full():
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    dims = ChannelDims(2, 2, 4)
    point = SnrPoint(8.0, ScalingRate(0.8))
    full = outage_curve(cov, dims, [point], bound="full", trials=30_000,
                        master_seed=3, min_events=None)[0]
    jensen = outage_curve(cov, dims, [point], bound="jensen", trials=30_000,
                          master_seed=3, min_events=None)[0]
    # same seed means identical draws, so dominance holds pathwise
    assert jensen.events <= full.events


def test_outage_adaptive_stopping():
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(1, 1, 1)
    est = outage_curve(cov, dims, [SnrPoint(2.0, FixedRate(1.0))],
                       trials=10_000_000, master_seed=4, min_events=50)[0]
    assert est.events >= 50
    assert est.trials < 10_000_000


def test_outage_deterministic_across_workers():
    cov = build_covariance(Fast(), 2)
    dims = ChannelDims(2, 2, 2)
    point = SnrPoint(6.0, ScalingRate(1.0))
    kwargs = dict(trials=60_000, master_seed=5, min_events=None)
    one = outage_curve(cov, dims, [point], workers=1, **kwargs)[0]
    four = outage_curve(cov, dims, [point], workers=4, **kwargs)[0]
    assert one == four


@pytest.mark.parametrize("kwargs", [dict(workers=0), dict(workers=-1), dict(min_events=-1),
                                    dict(trials=0), dict(trials=-5)])
def test_outage_rejects_bad_budget(kwargs):
    # min_events=-1 used to stop after the first wave (131 072 of 300 000 trials)
    cov = build_covariance(Flat(), 1)
    args = dict(trials=300_000, master_seed=6, min_events=100)
    args.update(kwargs)
    with pytest.raises(ValueError):
        outage_curve(cov, ChannelDims(1, 1, 1), [SnrPoint(2.0, FixedRate(1.0))], **args)


@pytest.mark.parametrize("workers", [1, 3])
def test_run_chunks_grid_waves_and_order(workers):
    trials = 20 * MC_CHUNK + 5
    sizes = []

    def count_chunk(rng, size, live):
        sizes.append(size)
        return [1]

    assert run_chunks(count_chunk, trials, 0, workers) == ([21], [trials])
    assert sorted(sizes) == [5] + [MC_CHUNK] * 20
    # stop only on a wave boundary, once the running total reaches min_events
    assert run_chunks(count_chunk, trials, 0, workers, 1) == ([MC_WAVE], [MC_WAVE * MC_CHUNK])
    assert run_chunks(count_chunk, trials, 0, workers, MC_WAVE + 1) == (
        [2 * MC_WAVE], [2 * MC_WAVE * MC_CHUNK])
    assert run_chunks(count_chunk, trials, 0, workers, 0) == ([21], [trials])
    # float totals are summed in chunk order from the (seed, chunk) streams
    total, done = run_chunks(lambda rng, size, live: [rng.standard_normal() * size],
                             trials, 7, workers)
    expected = 0.0
    for chunk in range(21):
        expected += chunk_rng(7, chunk).standard_normal() * min(MC_CHUNK, trials - chunk * MC_CHUNK)
    assert (total, done) == ([expected], [trials])


@pytest.mark.parametrize("workers", [1, 3])
def test_run_chunks_retires_each_point_on_its_own_wave(workers):
    # point j gains j events a chunk: 0 never retires, 1 retires after the
    # second wave, 2 and 3 after the first; retired points are not evaluated
    trials = 20 * MC_CHUNK + 5
    lives = []

    def chunk(rng, size, live):
        lives.append(live)
        return [j if j in live else None for j in range(4)]

    totals, done = run_chunks(chunk, trials, 0, workers, MC_WAVE + 1, num_points=4)
    assert totals == [0, 2 * MC_WAVE, 2 * MC_WAVE, 3 * MC_WAVE]
    assert done == [trials, 2 * MC_WAVE * MC_CHUNK, MC_WAVE * MC_CHUNK, MC_WAVE * MC_CHUNK]
    assert lives == [(0, 1, 2, 3)] * MC_WAVE + [(0, 1)] * MC_WAVE + [(0,)] * 5
    for j in range(4):  # each point alone runs the same waves
        alone = run_chunks(lambda rng, size, live: [j], trials, 0, workers, MC_WAVE + 1)
        assert alone == ([totals[j]], [done[j]])


def test_run_chunks_error_drops_queued_chunks():
    calls = []

    def failing_chunk(rng, size, live):
        calls.append(size)
        if len(calls) == 1:
            raise RuntimeError("chunk failed")
        time.sleep(0.01)
        return [0]

    with pytest.raises(RuntimeError, match="chunk failed"):
        run_chunks(failing_chunk, 50 * MC_CHUNK, 0, workers=2)
    assert len(calls) < 10  # the other 40-odd queued chunks never start


def test_outage_scaling_rate_validation():
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(1, 1, 1)
    with pytest.raises(ValueError):
        outage_curve(cov, dims, [SnrPoint(10.0, ScalingRate(1.5))], trials=10)
    with pytest.raises(ValueError):
        SnrPoint(0.0, FixedRate(1.0))


@pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
def test_snr_point_rejects_non_finite(snr):
    with pytest.raises(ValueError):
        SnrPoint(snr, FixedRate(1.0))


@pytest.mark.parametrize("nats", [np.nan, np.inf, -1.0])
def test_fixed_rate_rejects_non_finite_or_negative(nats):
    # each gave a silent outage row: probability 0 at NaN and -1, 1 at inf
    with pytest.raises(ValueError, match="rate"):
        FixedRate(nats)
    assert FixedRate(0.0).rate_at(10.0) == 0.0


def test_slope_fit_exact_power_laws():
    snrs = 10 ** np.linspace(1.0, 3.0, 6)
    slope, err = fit_diversity_slope([(s, s ** -2.0) for s in snrs], (10, 30))
    assert slope == pytest.approx(2.0, abs=1e-12)
    slope, _ = fit_diversity_slope([(s, 7.0 * s ** -3.0) for s in snrs], (10, 30))
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(snr_db=st.lists(st.integers(-10, 60), min_size=3, max_size=8, unique=True),
       log_c=st.floats(-20.0, 20.0), d=st.floats(0.0, 4.0), seed=st.integers(0, 2 ** 16))
def test_slope_fit_recovers_power_laws_in_any_point_order(snr_db, log_c, d, seed):
    # -log(c snr**-d) is a line of slope d in log snr for any c; the fit
    # reads it back to 1e-12 and does not depend on the order of the points
    snrs = db_to_linear(np.array(snr_db, dtype=float))
    curve = [(s, np.exp(log_c) * s ** -d) for s in snrs]
    window = (min(snr_db), max(snr_db))
    slope, _ = fit_diversity_slope(curve, window)
    assert slope == pytest.approx(d, abs=1e-12)
    order = spawn_rng(19, seed).permutation(len(curve))
    shuffled, _ = fit_diversity_slope([curve[k] for k in order], window)
    assert shuffled == pytest.approx(slope, abs=1e-12)


def test_slope_fit_log_shift_invariance():
    snrs = 10 ** np.linspace(1.0, 2.5, 5)
    probs = np.array([0.3, 0.1, 0.02, 0.004, 0.001])
    base, _ = fit_diversity_slope(list(zip(snrs, probs)), (0, 100))
    shifted, _ = fit_diversity_slope(list(zip(3.7 * snrs, probs)), (0, 100))
    assert shifted == pytest.approx(base, rel=1e-9)


def test_slope_fit_input_policing():
    snrs = 10 ** np.linspace(1.0, 3.0, 4)
    with pytest.raises(ValueError):
        fit_diversity_slope([(s, s ** -1.0) for s in snrs], (25, 30))
    with pytest.warns(UserWarning):
        curve = [(s, 0.0) for s in snrs[:2]] + [(s, s ** -1.0) for s in snrs]
        fit_diversity_slope(curve, (10, 30))


@pytest.mark.parametrize("curve,match", [
    ([(100.0, p) for p in (0.1, 0.01, 0.001)], "2 distinct SNRs"),
    ([(10.0, 0.1), (100.0, float("nan")), (1000.0, 1e-3)], "not finite"),
    ([(10.0, 0.1), (100.0, float("inf")), (1000.0, 1e-3)], "not finite"),
], ids=["one-snr", "nan", "inf"])
def test_slope_fit_rejects_a_window_it_cannot_fit(curve, match):
    # each returned (nan, nan)
    with pytest.raises(ValueError, match=match):
        fit_diversity_slope(curve, (10, 30))


def test_window_selection_uses_db():
    snrs = [10.0, 100.0, 1000.0, 10000.0]
    curve = [(s, s ** -1.0) for s in snrs]
    slope, _ = fit_diversity_slope(curve, (10, 30))
    assert slope == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_diversity_slope(curve[:2], (10, 20))


_SUB_BLOCK_CASES = {
    "flat2x2": (Flat(), ChannelDims(2, 2, 2)),
    "isi1x1": (CyclicIsi(2, (1.0, 1.0)), ChannelDims(1, 1, 4)),
    "tf3x4": (TimeFrequency(ScatteringSpec.from_normalized(0.5, 0.5, 3, 4)),
              ChannelDims(1, 1, 12)),
}


@pytest.mark.parametrize("case", sorted(_SUB_BLOCK_CASES))
@pytest.mark.parametrize("block_trials", [1, 7, None, MC_CHUNK])
def test_sub_blocks_do_not_change_outage_estimate(monkeypatch, case, block_trials):
    # None keeps the default BATCH_BUDGET; MC_CHUNK evaluates each chunk in one
    # block; both are checked against the count of the replayed draws
    model, dims = _SUB_BLOCK_CASES[case]
    cov = build_covariance(model, dims.block_len)
    per_trial = 16 * dims.block_len * dims.num_rx * dims.num_tx
    trials = 3000 if block_trials == 1 else MC_CHUNK + 700
    points = (SnrPoint(3.0, FixedRate(1.0)), SnrPoint(10.0, ScalingRate(0.9)))
    for bound, point in itertools.product(("full", "jensen"), points):
        events = 0
        for chunk in range(2 if trials > MC_CHUNK else 1):
            size = min(MC_CHUNK, trials - chunk * MC_CHUNK)
            info = outage_information(cov, dims, size, chunk_rng(68, chunk), bound, point.snr)
            events += int(np.count_nonzero(info < point.rate_nats()))
        if block_trials is not None:
            monkeypatch.setattr(_util, "BATCH_BUDGET", per_trial * block_trials)
        est = outage_curve(cov, dims, [point], bound=bound, trials=trials, master_seed=68,
                           min_events=0)[0]
        monkeypatch.setattr(_util, "BATCH_BUDGET", per_trial * MC_CHUNK)
        whole = outage_curve(cov, dims, [point], bound=bound, trials=trials,
                             master_seed=68, min_events=0)[0]
        monkeypatch.undo()
        assert est == whole
        assert est.trials == trials and 0 < est.events == events


# one case per fading model kind and a 3 x 3 link, whose log-dets take the
# slogdet path; the grids put points into outage at very different rates
_CURVE_CASES = {
    "flat": (Flat(), ChannelDims(2, 1, 1), FixedRate(np.log(2.0)), (2.0, 9.0, 12.0, 18.0, 24.0)),
    "fast": (Fast(), ChannelDims(1, 2, 2), FixedRate(np.log(2.0)), (-2.0, 2.5, 5.0, 7.5, 12.0)),
    "block": (BlockFading(2, 2), ChannelDims(1, 1, 4), FixedRate(np.log(2.0)),
              (0.0, 9.0, 12.0, 18.0, 25.0)),
    "isi": (CyclicIsi(2, (1.0, 0.5)), ChannelDims(2, 1, 4), ScalingRate(0.5),
            (3.0, 6.0, 9.0, 14.0, 22.0)),
    "tf": (TimeFrequency(ScatteringSpec.from_normalized(0.5, 0.5, 2, 2)), ChannelDims(1, 1, 4),
           ScalingRate(0.5), (3.0, 9.0, 14.0, 22.0, 30.0)),
    "flat3x3": (Flat(), ChannelDims(3, 3, 1), FixedRate(3 * np.log(2.0)), (2.0, 8.0)),
}


def test_curve_cases_cover_every_model_kind():
    assert {type(model).kind for model, *_ in _CURVE_CASES.values()} == set(MODELS)


@pytest.mark.parametrize("min_events", [None, 0, 100, 5000])
@pytest.mark.parametrize("bound", ["full", "jensen"])
@pytest.mark.parametrize("case", sorted(_CURVE_CASES))
def test_outage_curve_equals_single_point_oracle(case, bound, min_events):
    model, dims, rate, grid_db = _CURVE_CASES[case]
    cov = build_covariance(model, dims.block_len)
    points = [SnrPoint(float(db_to_linear(db)), rate) for db in grid_db]
    # with min_events, three waves: a point retires after the first, after
    # the second or never; without, two chunks, the second partial
    trials = 2 * MC_WAVE * MC_CHUNK + 700 if min_events else MC_CHUNK + 700
    expected = [single_point_outage(cov, dims, point, bound, trials, 72, min_events, 1)
                for point in points]
    for workers in (1, 2):
        assert outage_curve(cov, dims, points, bound, trials, 72, min_events,
                            workers) == expected
    if min_events:
        assert len({est.trials for est in expected}) > 1  # points retire apart
        assert all(est.trials == trials or est.events >= min_events
                   for est in expected)


def test_outage_curve_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        outage_curve(build_covariance(Flat(), 1), ChannelDims(1, 1, 1), [], trials=100)


_PROPERTY_GRID_DB = (0.0, 4.0, 8.0, 12.0, 16.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(picks=st.lists(st.integers(0, len(_PROPERTY_GRID_DB) - 1), min_size=1, max_size=7),
       min_events=st.sampled_from([None, 0, 20, 300, 3000]),
       trials=st.one_of(st.integers(1, 2 * MC_CHUNK),
                        st.integers(MC_WAVE * MC_CHUNK + 1, 2 * MC_WAVE * MC_CHUNK + 1)),
       bound=st.sampled_from(["full", "jensen"]))
def test_outage_curve_of_a_shuffled_or_repeated_grid_is_permuted(picks, min_events, trials,
                                                                 bound):
    # every point's estimate is its own: reordering or repeating grid points
    # reorders or repeats the estimates and changes nothing else
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    dims = ChannelDims(1, 1, 4)
    points = [SnrPoint(float(db_to_linear(db)), FixedRate(1.0)) for db in _PROPERTY_GRID_DB]
    base = outage_curve(cov, dims, points, bound, trials, 73, min_events)
    picked = outage_curve(cov, dims, [points[k] for k in picks], bound, trials, 73, min_events)
    assert picked == [base[k] for k in picks]


# the models of the one-row (log1p), two-row (minor sum) and slogdet kernels,
# with the rate unit of the grid below in bits
_NESTED_CASES = {
    "isi1x1": (CyclicIsi(2, (1.0, 1.0)), ChannelDims(1, 1, 4), 1.0),
    "flat2x2": (Flat(), ChannelDims(2, 2, 1), 2.0),
    "fast3x3": (Fast(), ChannelDims(3, 3, 2), 4.0),
}
# (dB, rate in units): the chains are the 10 dB points, then 15 dB to 50 dB
# (sorted by SNR, then by falling rate: 3 units at 15 dB ends the first
# chain); the 10 dB 1-unit point is repeated; at 40 dB no draw is in outage,
# so the kept set reaching 50 dB is empty
_NESTED_GRID = ((10.0, 2.0), (15.0, 3.0), (10.0, 1.0), (20.0, 1.0), (10.0, 1.0),
                (50.0, 1.0), (40.0, 1.0))


def _grid_points(grid, unit=1.0):
    return [SnrPoint(float(db_to_linear(db)), FixedRate(unit * bits * np.log(2.0)))
            for db, bits in grid]


def test_chains_cut_where_the_rate_rises():
    points = _grid_points(_NESTED_GRID)
    rates = [p.rate_nats() for p in points]
    assert tradeoff._chains(points, rates, range(7)) == [[0, 2, 4], [1, 3, 6, 5]]
    assert tradeoff._chains(points, rates, (1, 3, 5)) == [[1, 3, 5]]
    scaling = [SnrPoint(float(db_to_linear(db)), ScalingRate(0.5)) for db in (20.0, 0.0, 10.0)]
    assert tradeoff._chains(scaling, [p.rate_nats() for p in scaling], range(3)) == [[1], [2], [0]]


@pytest.mark.parametrize("min_events", [None, 100])
@pytest.mark.parametrize("bound", ["full", "jensen"])
@pytest.mark.parametrize("case", sorted(_NESTED_CASES))
def test_nested_outage_curve_equals_single_point_oracle(monkeypatch, case, bound, min_events):
    model, dims, unit = _NESTED_CASES[case]
    cov = build_covariance(model, dims.block_len)
    points = _grid_points(_NESTED_GRID, unit)
    # with min_events, two waves: the high-outage points retire after the first
    trials = MC_WAVE * MC_CHUNK + 700 if min_events else MC_CHUNK + 700
    expected = [single_point_outage(cov, dims, point, bound, trials, 74, min_events, 1)
                for point in points]
    step, rows = tradeoff._snr_step, []

    def recording_step(stats, bound, a):
        rows.append(len(stats))
        return step(stats, bound, a)

    monkeypatch.setattr(tradeoff, "_snr_step", recording_step)
    for workers in (1, 2):
        assert outage_curve(cov, dims, points, bound, trials, 74, min_events,
                            workers) == expected
    assert expected[5].events == expected[6].events == 0
    assert 0 in rows  # the 50 dB point ran on an empty kept set
    # kept rows are evaluated once they fill a sub-block, so no SNR step
    # ever sees two sub-blocks' worth
    sub_block = _util.BATCH_BUDGET // (16 * dims.block_len * dims.num_rx * dims.num_tx)
    assert max(rows) < 2 * sub_block
    if min_events:
        assert len({est.trials for est in expected}) > 1


_BITS = (0.5, 1.0, 2.0, 3.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grid=st.lists(st.tuples(st.sampled_from(_PROPERTY_GRID_DB), st.sampled_from(_BITS)),
                     min_size=1, max_size=6),
       trials=st.integers(1, 2 * MC_CHUNK),
       bound=st.sampled_from(["full", "jensen"]))
def test_nested_outage_curve_of_a_random_grid_equals_single_point_oracle(grid, trials, bound):
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    dims = ChannelDims(1, 1, 4)
    points = _grid_points(grid)
    expected = [single_point_outage(cov, dims, point, bound, trials, 75, None, 1)
                for point in points]
    assert outage_curve(cov, dims, points, bound, trials, 75, None) == expected


_KERNEL_MODELS = (Flat(), Fast(), BlockFading(2, 2), CyclicIsi(2, (1.0, 1.0)),
                  CyclicIsi(3, (1.0, 0.5, 0.25)),
                  TimeFrequency(ScatteringSpec.from_normalized(0.5, 0.5, 2, 2)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model=st.sampled_from(_KERNEL_MODELS), num_rx=st.integers(1, 4),
       num_tx=st.integers(1, 4), count=st.integers(0, 40), seed=st.integers(0, 2 ** 16),
       snr_db=st.lists(st.floats(-20.0, 50.0), min_size=1, max_size=3))
def test_staged_kernel_of_mixed_and_white_batches_matches_dense(model, num_rx, num_tx, count,
                                                                seed, snr_db):
    # the staged kernel on the slot-major mix, on a C-order copy of it and,
    # for "jensen", on the white matrices sqrt(lambda_k) W_k, which outage_curve
    # reads instead of the mix: all within 1e-12 of the dense Gram + slogdet
    n = 1 if isinstance(model, Flat) and seed % 2 else 4
    cov = build_covariance(model, n)
    dims = ChannelDims(num_tx, num_rx, n)
    white = draw_white(cov, dims, count, spawn_rng(80, seed))
    mixed = mix_white(cov, white)
    scaled = white * np.sqrt(cov.eigvals)[:, None, None]
    for snr in db_to_linear(snr_db):
        for bound in BOUNDS:
            a = snr / (num_tx * (1 if bound == "full" else n))
            ref = _dense_information(mixed, snr, num_tx, bound)
            inputs = [mixed, np.ascontiguousarray(mixed)] + [scaled] * (bound == "jensen")
            for blocks in inputs:
                got = tradeoff._snr_step(tradeoff._snr_free(blocks, bound), bound, a)
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)
    # the two Jensen stacks have the same Gram
    stacks = [tradeoff._jensen_stack(blocks) for blocks in (scaled, mixed)]
    assert stacks[0].shape == (count, dims.min_ant, cov.rank * dims.max_ant)
    grams = [np.einsum("cij,ckj->cik", h, h.conj()) for h in stacks]
    np.testing.assert_allclose(grams[0], grams[1], rtol=0,
                               atol=1e-12 * max(1.0, np.max(np.abs(grams[1]), initial=0.0)))


def _gamma_cdf(m, x):
    """P(Gamma(m, 1) < x) = 1 - exp(-x) sum_{j<m} x^j / j! for integer m."""
    return 1.0 - np.exp(-x) * sum(x ** j / np.prod(np.arange(1.0, j + 1)) for j in range(m))


@pytest.mark.parametrize("num_rx,num_tx", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)])
def test_rank_one_single_row_outage_is_the_gamma_cdf(num_rx, num_tx):
    # one row: the information is log1p(snr / M_T * ||W||^2) with ||W||^2 ~
    # Gamma(max_ant), so the outage is its CDF at (e^R - 1) M_T / snr
    special = pytest.importorskip("scipy.special")
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(num_tx, num_rx, 1)
    m, rate, trials = dims.max_ant, np.log(2.0), 60_000
    points = [SnrPoint(float(db_to_linear(db)), FixedRate(rate)) for db in (0.0, 5.0, 10.0)]
    for bound in BOUNDS:
        for point, est in zip(points, outage_curve(cov, dims, points, bound, trials, 76, None)):
            x = np.expm1(rate) * num_tx / point.snr
            exact = _gamma_cdf(m, x)
            assert exact == pytest.approx(special.gammainc(m, x), rel=1e-12)
            assert abs(est.probability - exact) <= 5 * np.sqrt(exact * (1 - exact) / trials)


@pytest.mark.parametrize("m", [2, 3])
def test_rank_one_two_row_statistics_have_the_wishart_moments(m):
    # ||W||^2 ~ Gamma(2m): mean and variance 2m; det(W W^H) = Gamma(m) Gamma(m - 1):
    # E det = m (m - 1) and E det^2 = m^2 (m^2 - 1); each sample mean within 5 SE
    exps = chunk_rng(77, m).standard_exponential((200_000, 2 * m))
    stats = tradeoff._rank_one_stats(exps, m, 1.0)
    assert stats.shape == (200_000, 2)
    trace, det = stats.T
    for samples, expected in ((trace, 2 * m), ((trace - 2 * m) ** 2, 2 * m),
                              (det, m * (m - 1)), (det ** 2, m * m * (m * m - 1))):
        assert abs(samples.mean() - expected) <= 5 * samples.std() / np.sqrt(len(samples))


@pytest.mark.parametrize("num_rx,num_tx", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_rank_one_statistics_are_finite_and_nonnegative(num_rx, num_tx):
    dims = ChannelDims(num_tx, num_rx, 4)
    cov = build_covariance(Flat(), 4)
    exps = chunk_rng(78, num_rx).standard_exponential((5000, num_rx * num_tx))
    power = cov.eigvals[0] * np.abs(cov.eigvecs[:, 0]) ** 2
    for scale, shape in ((power, (5000, 4)), (cov.eigvals[0], (5000,))):
        stats = tradeoff._rank_one_stats(exps, dims.max_ant, scale)
        assert stats.shape == shape + (dims.min_ant,)
        assert np.all(np.isfinite(stats)) and np.all(stats >= 0)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("num_rx,num_tx", [(2, 2), (2, 3), (3, 2)])
def test_rank_one_outage_matches_gaussian_channels(num_rx, num_tx, n):
    # the Bartlett path against the information of Gaussian channel draws:
    # the two estimates of each point differ by less than 5 standard errors
    cov = build_covariance(Flat(), n)
    dims = ChannelDims(num_tx, num_rx, n)
    trials = 40_000
    points = [SnrPoint(float(db_to_linear(db)), FixedRate(2 * np.log(2.0))) for db in (0.0, 3.0)]
    blocks = sample_channel_batch(cov, dims, trials, spawn_rng(79, num_rx, num_tx, n))
    for bound in BOUNDS:
        estimates = outage_curve(cov, dims, points, bound, trials, 79, None)
        for point, est in zip(points, estimates):
            gauss = np.mean(_information(blocks, bound, point.snr) < point.rate_nats())
            pooled = (est.probability + gauss) / 2
            assert 100 < pooled * trials < trials - 100  # not vacuous
            assert abs(est.probability - gauss) <= 5 * np.sqrt(pooled * (1 - pooled) * 2 / trials)


class _RecordingRng:
    """A generator that records the name of each method taken from it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._rng, name)


@pytest.mark.parametrize("case", ["flat1x2", "flat2x2", "flat3x2-n4", "flat3x3", "isi1x1",
                                  "fast2x2"])
def test_only_rank_one_outage_draws_bartlett_variates(monkeypatch, case):
    # a rank-one covariance with min_ant <= 2 draws only exponentials and never
    # a channel; any other draws only normals, through draw_white
    model, dims = {"flat1x2": (Flat(), ChannelDims(2, 1, 1)),
                   "flat2x2": (Flat(), ChannelDims(2, 2, 1)),
                   "flat3x2-n4": (Flat(), ChannelDims(3, 2, 4)),
                   "flat3x3": (Flat(), ChannelDims(3, 3, 1)),
                   "isi1x1": (CyclicIsi(2, (1.0, 1.0)), ChannelDims(1, 1, 4)),
                   "fast2x2": (Fast(), ChannelDims(2, 2, 2))}[case]
    cov = build_covariance(model, dims.block_len)
    rank_one = cov.rank == 1 and dims.min_ant <= 2
    calls, white_draws = [], []

    def spy_draw_white(*args):
        white_draws.append(args[2])
        return draw_white(*args)

    monkeypatch.setattr(_util, "chunk_rng", lambda seed, c: _RecordingRng(chunk_rng(seed, c), calls))
    monkeypatch.setattr(tradeoff, "draw_white", spy_draw_white)
    points = [SnrPoint(3.0, FixedRate(1.0))]
    for bound in BOUNDS:
        outage_curve(cov, dims, points, bound, MC_CHUNK + 10, 80, None)
    assert set(calls) == {"standard_exponential" if rank_one else "standard_normal"}
    assert white_draws == ([] if rank_one else [MC_CHUNK, 10] * 2)

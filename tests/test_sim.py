import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmtlab import _util, codes, sim
from dmtlab.channel import (
    BlockFading,
    ChannelDims,
    CyclicIsi,
    Fast,
    Flat,
    ScatteringSpec,
    TimeFrequency,
    build_covariance,
)
from dmtlab.codes import Codebook, permutation_codebook, qam_family
from dmtlab.precoder import apply_precoder, classic_precoder, design_tf_shift_precoder
from dmtlab.sim import error_curve
from dmtlab.tradeoff import ScalingRate, SnrPoint, outage_curve
from dmtlab._util import MC_CHUNK, chunk_rng, complex_normal, spawn_rng

from _oracles import (TraceBoundInstance, least_favorable_trace, pep_chernoff, pep_monte_carlo,
                      single_snr_errors, trace_oracle)


def test_pep_zero_difference_is_one():
    cov = build_covariance(Flat(), 2)
    bound = pep_chernoff(cov, np.zeros((1, 2)), snr=10.0, num_rx=1)
    assert bound.value == pytest.approx(1.0)


def test_pep_siso_flat_closed_form():
    cov = build_covariance(Flat(), 3)
    e = np.array([[0.4, -0.3j, 0.2 + 0.1j]])
    energy = np.sum(np.abs(e) ** 2)
    for snr in (1.0, 10.0, 250.0):
        bound = pep_chernoff(cov, e, snr, num_rx=1)
        assert bound.value == pytest.approx(1.0 / (1.0 + snr * energy / 4.0), rel=1e-10)


def test_pep_matches_monte_carlo():
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    dims = ChannelDims(2, 2, 4)
    rng = spawn_rng(50)
    e = 0.4 * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    snr = 6.0
    closed = pep_chernoff(cov, e, snr, num_rx=2).value
    sampled = pep_monte_carlo(cov, e, snr, dims, trials=400_000, master_seed=51)
    assert sampled == pytest.approx(closed, rel=0.02)


def test_pep_monotone_in_snr_and_eigs():
    cov = build_covariance(Fast(), 3)
    e = np.array([[0.5, 0.4, 0.3]])
    values = [pep_chernoff(cov, e, snr, num_rx=2).value
              for snr in np.linspace(0.0, 50.0, 20)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    bigger = pep_chernoff(cov, 1.2 * e, 10.0, num_rx=2).value
    assert bigger <= pep_chernoff(cov, e, 10.0, num_rx=2).value


def test_trace_bound_examples():
    assert least_favorable_trace(TraceBoundInstance([1.0, 2.0], [3.0, 4.0])) == 10.0
    assert least_favorable_trace(TraceBoundInstance([0.0, 0.0], [3.0, 4.0])) == 0.0
    assert least_favorable_trace(TraceBoundInstance([1.0], [2.0, 5.0])) == 2.0


def test_trace_bound_validation():
    with pytest.raises(ValueError):
        TraceBoundInstance([2.0, 1.0], [1.0, 2.0])  # not ascending
    with pytest.raises(ValueError):
        TraceBoundInstance([-1.0], [1.0])
    with pytest.raises(ValueError):
        TraceBoundInstance([1.0, 2.0], [1.0])  # lam longer than theta


def test_trace_oracle_small_instances():
    rng = spawn_rng(52)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, n + 1))
        inst = TraceBoundInstance(np.sort(rng.uniform(0, 3, m)),
                                  np.sort(rng.uniform(0, 3, n)))
        out = trace_oracle(inst, num_random_unitaries=200, master_seed=trial)
        assert out["closed_form"] == pytest.approx(out["perm_min"], abs=1e-12)
        assert out["sampled_min"] >= out["closed_form"] - 1e-12


def test_trace_oracle_rejects_large_instances():
    inst = TraceBoundInstance(np.arange(8.0), np.arange(8.0))
    with pytest.raises(ValueError):
        trace_oracle(inst)


def test_arithmetic_geometric_step():
    # random profile check of the mean inequality used to peel the rate
    # exponent out of the weighted eigenvalue sum
    rng = spawn_rng(53)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        alpha = rng.uniform(0, 2, m)
        lam = np.sort(rng.uniform(0.01, 1.0, m))
        snr = float(rng.uniform(2.0, 1000.0))
        active = [k for k in range(1, m + 1) if alpha[k - 1] <= 1]
        if not active:
            continue
        lhs = sum(snr ** (1 - alpha[k - 1]) * lam[m - k] for k in active)
        exponent = sum(max(0.0, 1 - a) for a in alpha)
        prod = np.prod([lam[m - k] for k in active])
        rhs = len(active) * (snr ** exponent * prod) ** (1.0 / len(active))
        assert lhs >= rhs - 1e-9 * abs(rhs)


def test_zero_noise_decodes_perfectly():
    # at SNR 1e12 the noise is 1e-6 of the signal's amplitude
    cov = build_covariance(Fast(), 2)
    dims = ChannelDims(1, 1, 2)
    fam = qam_family(16.0, 0.5)
    code = permutation_codebook(fam, [range(4), range(4)])
    est = error_curve(cov, dims, code, (1e12,), trials=2000, master_seed=54)[0]
    assert est.events == 0


def test_antipodal_error_rate_matches_analytic():
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(1, 1, 1)
    words = np.array([[[1.0]], [[-1.0]]], dtype=complex)
    book = Codebook(words=words, snr=4.0, mux_rate=0.0)
    snr = 4.0
    est = error_curve(cov, dims, book, (snr,), trials=400_000, master_seed=55)[0]
    analytic = 0.5 * (1.0 - np.sqrt(snr / (1.0 + snr)))
    assert est.ci_low <= analytic <= est.ci_high
    assert est.probability == pytest.approx(analytic, rel=0.05)


def test_error_rate_dominates_outage_at_scaling_rate():
    # at scaling rate the outage converse binds numerically: QAM at rate
    # r*log(snr) cannot beat the matched outage probability (within CI)
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(1, 1, 1)
    r = 0.5
    for snr in (64.0, 256.0):
        fam = qam_family(snr, r)
        code = permutation_codebook(fam, [range(len(fam))])
        err = error_curve(cov, dims, code, (snr,), trials=100_000, master_seed=56)[0]
        out = outage_curve(cov, dims, [SnrPoint(snr, ScalingRate(r))],
                           trials=100_000, master_seed=56, min_events=None)[0]
        assert err.ci_high >= out.ci_low


def test_precoded_pair_input():
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    dims = ChannelDims(2, 2, 4)
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
    fam = qam_family(9.0, 0.5)
    outer = permutation_codebook(fam, [range(len(fam))] * 4)
    book = Codebook(apply_precoder(pre, outer.scalar_words), outer.snr, outer.mux_rate)
    est = error_curve(cov, dims, book, (9.0,), trials=4000, master_seed=57)[0]
    assert 0.0 <= est.probability <= 1.0


def test_simulate_deterministic_across_workers():
    cov = build_covariance(Fast(), 2)
    dims = ChannelDims(1, 1, 2)
    fam = qam_family(16.0, 0.5)
    code = permutation_codebook(fam, [range(4), range(4)])
    kwargs = dict(trials=50_000, master_seed=58)
    one = error_curve(cov, dims, code, (8.0,), workers=1, **kwargs)
    four = error_curve(cov, dims, code, (8.0,), workers=4, **kwargs)
    assert one == four


@pytest.mark.parametrize("kwargs", [
    dict(snr=float("nan")), dict(snr=-1.0), dict(snr=float("inf")),
    dict(snr=float("-inf")), dict(trials=0), dict(trials=-5), dict(workers=0),
    dict(workers=-1),
])
def test_simulate_rejects_bad_inputs(kwargs):
    cov = build_covariance(Fast(), 2)
    dims = ChannelDims(1, 1, 2)
    fam = qam_family(16.0, 0.5)
    code = permutation_codebook(fam, [range(4), range(4)])
    args = dict(snr=8.0, trials=100, master_seed=59)
    args.update(kwargs)
    with pytest.raises(ValueError):
        error_curve(cov, dims, code, (args.pop("snr"),), **args)


@pytest.mark.parametrize("snr", [float("nan"), -1.0, float("inf")])
def test_pep_monte_carlo_rejects_bad_snr(snr):
    cov = build_covariance(Flat(), 2)
    with pytest.raises(ValueError):
        pep_monte_carlo(cov, np.ones((1, 2)), snr, ChannelDims(1, 1, 2), trials=100)


@pytest.mark.parametrize("trials", [0, -5])
def test_pep_monte_carlo_rejects_bad_trials(trials):
    # trials=0 divided by zero and trials=-5 returned -0.0
    cov = build_covariance(Flat(), 2)
    with pytest.raises(ValueError):
        pep_monte_carlo(cov, np.ones((1, 2)), 4.0, ChannelDims(1, 1, 2), trials=trials)


def _one_draw_complex_normal(rng, shape):
    g = rng.standard_normal((*shape, 2))
    return (g[..., 0] + 1j * g[..., 1]) * np.sqrt(0.5)


def _faded(blocks, words):
    """Faded candidates f_w = H x_w for every trial and word: (trials, words, slots, rx)."""
    return np.einsum("cnij,wjn->cwni", blocks, words)


def _dense_metric(faded, received, amp):
    """The faded-tensor ML metric ||r - amp f_w||**2: (trials, words)."""
    return np.sum(np.abs(received[:, None] - amp * faded) ** 2, axis=(2, 3))


def _dense_draws(cov, dims, num_words, size, rng, noise_scale):
    white = _one_draw_complex_normal(rng, (size, cov.rank, dims.num_rx, dims.num_tx))
    blocks = np.einsum("nk,ckij->cnij", cov.eigvecs * np.sqrt(cov.eigvals), white)
    sent = rng.integers(0, num_words, size)
    noise = noise_scale * _one_draw_complex_normal(rng, (size, dims.block_len, dims.num_rx))
    return blocks, sent, noise


def _dense_errors(cov, dims, words, snr, trials, master_seed, noise_scale):
    """Error count of error_curve's draws at the one SNR ``snr``, decoded with
    the dense metric and the noise scaled by ``noise_scale``."""
    amp = np.sqrt(snr / dims.num_tx)
    errors = 0
    for chunk in range((trials + MC_CHUNK - 1) // MC_CHUNK):
        size = min(MC_CHUNK, trials - chunk * MC_CHUNK)
        rng = chunk_rng(master_seed, chunk)
        blocks, sent, noise = _dense_draws(cov, dims, len(words), size, rng, noise_scale)
        faded = _faded(blocks, words)
        received = amp * faded[np.arange(size), sent] + noise
        metric = _dense_metric(faded, received, amp)
        errors += int(np.count_nonzero(np.argmin(metric, axis=1) != sent))
    return errors


_DECODE_COVS = {
    "flat": build_covariance(Flat(), 4),
    "isi": build_covariance(CyclicIsi(2, (1.0, 0.5)), 4),
    "tf": build_covariance(TimeFrequency(ScatteringSpec.from_normalized(0.5, 0.5, 2, 2)), 4),
}


def _random_book(rng, num_words, num_tx, n=4):
    words = rng.standard_normal((num_words, num_tx, n)) + 1j * rng.standard_normal(
        (num_words, num_tx, n))
    powers = np.sum(np.abs(words) ** 2, axis=(1, 2))
    words *= np.sqrt(0.9 * n * num_tx / powers.max())  # peak power below the cap
    return Codebook(words=words, snr=10.0, mux_rate=0.0)


@pytest.mark.parametrize("cov_name", sorted(_DECODE_COVS))
@pytest.mark.parametrize("num_tx", [1, 2])
@pytest.mark.parametrize("num_rx", [1, 2, 3])
@pytest.mark.parametrize("noise_scale", [0.0, 1.0])
def test_expanded_metric_matches_dense(cov_name, num_tx, num_rx, noise_scale):
    cov = _DECODE_COVS[cov_name]
    rng = spawn_rng(60, num_tx, num_rx, int(noise_scale))
    dims, words = ChannelDims(num_tx, num_rx, 4), _random_book(rng, 24, num_tx).words
    amp = np.sqrt(20.0 / num_tx)
    blocks, sent, noise = _dense_draws(cov, dims, len(words), 3000, rng, noise_scale)
    received = amp * np.einsum("cnij,cjn->cni", blocks, words[sent]) + noise
    faded = _faded(blocks, words)
    dense = _dense_metric(faded, received, amp)
    power = np.sum(np.abs(received) ** 2, axis=(1, 2))
    table = sim._word_table(np.swapaxes(words, 1, 2), amp)
    expanded = sim._trial_features(sim._gram_features(blocks), blocks, received) @ table.T
    scale = power[:, None] + amp ** 2 * np.sum(np.abs(faded) ** 2, axis=(2, 3))
    assert np.max(np.abs(expanded + power[:, None] - dense) / scale) < 1e-12
    assert np.array_equal(np.argmin(expanded, axis=1), np.argmin(dense, axis=1))


def _precoded_words(kind, num_tx, outer):
    """(words, num_tx, 4) precoded words of scalar outer words (words, 4)."""
    if kind == "tf":
        pre = design_tf_shift_precoder(ScatteringSpec.from_normalized(0.5, 0.5, 2, 2), num_tx)
    else:
        pre = classic_precoder(kind, num_tx=num_tx, n_slots=4, stride=1)
    return apply_precoder(pre, outer)


def _span_words(rng, kind, num_tx, num_words, spans):
    """(words, per-slot spans) of a test book: slot n of a "spans" book holds
    random words of a random span of dimension spans[n] (clipped to T); a
    precoded slot's words are multiples of one precoder column, so that every
    slot is one-dimensional."""
    if kind == "spans":
        dims_n = [min(d, num_tx) for d in spans]
        words = np.stack([complex_normal(rng, (num_words, d)) @ complex_normal(rng, (d, num_tx))
                          for d in dims_n], axis=2)
        return words, dims_n
    return _precoded_words(kind, num_tx, complex_normal(rng, (num_words, 4))), [1] * 4


def _effective_and_dense(words, num_rx, rng):
    """(expanded, dense, power, scale) on 40 draws of the ISI channel at SNR
    20: the effective-channel metric that ``error_curve`` decodes on, which
    is the dense metric less ||r||**2, the dense metric, ||r||**2 and the
    per-entry scale ||r||**2 + amp**2 ||H x_w||**2 of their difference."""
    num_words, num_tx, _ = words.shape
    basis, coords = codes._slot_spans(np.ascontiguousarray(np.swapaxes(words, 1, 2)))
    dims, amp = ChannelDims(num_tx, num_rx, 4), np.sqrt(20.0 / num_tx)
    blocks, sent, noise = _dense_draws(_DECODE_COVS["isi"], dims, num_words, 40, rng, 1.0)
    received = amp * np.einsum("cnij,cjn->cni", blocks, words[sent]) + noise
    faded = _faded(blocks, words)
    eff = blocks if basis is None else np.einsum("cnrt,ntd->cnrd", blocks, basis)
    table = sim._word_table(coords, amp)
    power = np.sum(np.abs(received) ** 2, axis=(1, 2))[:, None]
    expanded = sim._trial_features(sim._gram_features(eff), eff, received) @ table.T
    scale = power + amp ** 2 * np.sum(np.abs(faded) ** 2, axis=(2, 3))
    return expanded, _dense_metric(faded, received, amp), power, scale


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num_tx=st.integers(1, 3), num_rx=st.integers(1, 2), num_words=st.integers(1, 9),
       kind=st.sampled_from(["cdd", "phase-rolling", "tf", "spans"]),
       spans=st.lists(st.integers(0, 3), min_size=4, max_size=4), seed=st.integers(0, 2 ** 16))
@example(num_tx=3, num_rx=2, num_words=6, kind="spans", spans=[0, 1, 2, 3], seed=0)
@example(num_tx=2, num_rx=1, num_words=1, kind="spans", spans=[2, 0, 1, 0], seed=1)
@example(num_tx=2, num_rx=2, num_words=4, kind="spans", spans=[0, 0, 0, 0], seed=2)
def test_effective_channel_metric_matches_dense(num_tx, num_rx, num_words, kind, spans, seed):
    rng = spawn_rng(74, seed)
    words, dims_n = _span_words(rng, kind, num_tx, num_words, spans)
    expect = max(min(d, num_words) for d in dims_n)
    basis, coords = codes._slot_spans(np.ascontiguousarray(np.swapaxes(words, 1, 2)))
    assert (basis is None) == (expect == num_tx)
    assert coords.shape == (num_words, 4, expect)
    expanded, dense, power, scale = _effective_and_dense(words, num_rx, rng)
    assert np.max(np.abs(expanded + power - dense) / scale) < 1e-12
    assert np.array_equal(np.argmin(expanded, axis=1), np.argmin(dense, axis=1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num_tx=st.integers(1, 3), num_rx=st.integers(1, 2), num_words=st.integers(2, 9),
       kind=st.sampled_from(["cdd", "phase-rolling", "tf", "spans"]),
       spans=st.lists(st.integers(0, 3), min_size=4, max_size=4),
       ties=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                               st.sampled_from([0.0, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13]),
                               st.booleans()), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
@example(num_tx=2, num_rx=1, num_words=3, kind="cdd", spans=[1, 1, 1, 1],
         ties=[(0, 1, 0.0, True), (0, 2, 1e-13, True)], seed=0)
@example(num_tx=3, num_rx=2, num_words=4, kind="spans", spans=[3, 1, 2, 0],
         ties=[(1, 0, 1e-9, False), (1, 3, 1e-12, False)], seed=1)
def test_effective_channel_metric_matches_dense_near_ties(num_tx, num_rx, num_words, kind,
                                                          spans, ties, seed):
    # word j becomes word i moved by ``gap`` of its norm, a duplicate at 0:
    # along itself (a complex multiple, which keeps every slot's span) or
    # along a random direction (which may widen it)
    rng = spawn_rng(78, seed)
    words, _ = _span_words(rng, kind, num_tx, num_words, spans)
    for i, j, gap, along in ties:
        word = words[i % num_words]
        step = word * np.exp(2j * np.pi * rng.uniform()) if along else complex_normal(
            rng, word.shape) * np.linalg.norm(word) / np.sqrt(word.size)
        words[j % num_words] = word + gap * step
    expanded, dense, power, scale = _effective_and_dense(words, num_rx, rng)
    assert np.max(np.abs(expanded + power - dense) / scale) < 1e-12
    # where the two least dense values lie further apart than both bounds,
    # the decode picks the dense argmin
    rows = np.arange(len(dense))
    order = np.argsort(dense, axis=1)
    best, second = order[:, 0], order[:, 1]
    apart = (dense[rows, second] - dense[rows, best]
             > 1e-12 * (scale[rows, best] + scale[rows, second]))
    assert np.array_equal(np.argmin(expanded, axis=1)[apart], best[apart])


def _rank_one_book(rng, num_words, tilt):
    """Unit-modulus scalar words on the column (1, 1) in every slot, but with
    word 0 moved off it by ``tilt`` of its norm in slot 0, along (1, -1)."""
    words = np.exp(2j * np.pi * rng.uniform(size=(num_words, 1, 4))) * np.ones((2, 1))
    words[0, :, 0] += tilt * np.array([1.0, -1.0]) * words[0, 0, 0]
    return Codebook(words=words * np.sqrt(0.9), snr=10.0, mux_rate=0.0)


@pytest.mark.parametrize("tilt,dims_kept", [(2.0 ** -43, 2), (2.0 ** -47, 1)])
def test_span_tolerance_decides_the_decode(tilt, dims_kept):
    # above the 2**-44 span tolerance the code is decoded as it is, bit for
    # bit the single-SNR oracle; below it, on one-dimensional effective
    # channels, as the dense decode
    cov, dims = _DECODE_COVS["tf"], ChannelDims(2, 2, 4)
    book = _rank_one_book(spawn_rng(75), 16, tilt)
    basis, coords = codes._slot_spans(np.ascontiguousarray(np.swapaxes(book.words, 1, 2)))
    assert coords.shape[-1] == dims_kept and (basis is None) == (dims_kept == 2)
    snrs, trials = (1.0, 10.0), MC_CHUNK + 700
    curve = error_curve(cov, dims, book, snrs, trials, 76)
    if basis is None:
        assert curve == [single_snr_errors(cov, dims, book, snr, trials, 76, 1.0, 1)
                         for snr in snrs]
    assert [est.events for est in curve] == [
        _dense_errors(cov, dims, book.words, snr, trials, 76, 1.0) for snr in snrs]
    assert curve[0].events > 0


@pytest.mark.parametrize("block_trials", [1, 7, None, MC_CHUNK])
@pytest.mark.parametrize("workers", [1, 2])
def test_precoded_decode_matches_dense_for_any_sub_blocks(monkeypatch, block_trials, workers):
    cov, dims = _DECODE_COVS["isi"], ChannelDims(2, 2, 4)
    outer = permutation_codebook(qam_family(16.0, 0.5), [range(4)] * 4)
    words = _precoded_words("cdd", 2, outer.scalar_words)
    book = Codebook(words, outer.snr, outer.mux_rate)
    trials = 3000 if block_trials == 1 else MC_CHUNK + 700
    if block_trials is not None:
        monkeypatch.setattr(_util, "BATCH_BUDGET", len(words) * block_trials)
    est = error_curve(cov, dims, book, (2.0,), trials, 77, workers)[0]
    assert est.events == _dense_errors(cov, dims, words, 2.0, trials, 77, 1.0) > 0


@pytest.mark.parametrize("cov_name", sorted(_DECODE_COVS))
@pytest.mark.parametrize("num_tx", [1, 2])
@pytest.mark.parametrize("num_rx", [1, 2, 3])
@pytest.mark.parametrize("noise_scale", [0.0, 1.0])
def test_simulate_matches_dense_decode(cov_name, num_tx, num_rx, noise_scale):
    # noise_scale is the dense oracle's; against its noiseless decode the
    # estimator runs at SNR 1e12, where the noise is 1e-6 of the signal's
    # amplitude, and neither errs
    cov = _DECODE_COVS[cov_name]
    book = _random_book(spawn_rng(61, num_tx, num_rx), 16, num_tx)
    dims = ChannelDims(num_tx, num_rx, 4)
    snr = 10.0 if noise_scale else 1e12
    est = error_curve(cov, dims, book, (snr,), trials=2500, master_seed=62)[0]
    assert est.events == _dense_errors(cov, dims, book.words, snr, 2500, 62, noise_scale)
    if noise_scale == 0.0:
        assert est.events == 0


def test_simulate_precoded_pair_matches_dense_decode():
    cov = _DECODE_COVS["isi"]
    dims = ChannelDims(2, 2, 4)
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
    outer = permutation_codebook(qam_family(9.0, 0.5), [range(4)] * 4)
    words = apply_precoder(pre, outer.scalar_words)
    book = Codebook(words, outer.snr, outer.mux_rate)
    # at SNR 9 about one trial in 6000 errs, so that match may count none; at
    # SNR 1 the two decoders must agree on hundreds of errors
    for snr, least in ((9.0, 0), (1.0, 100)):
        est = error_curve(cov, dims, book, (snr,), trials=3000, master_seed=63)[0]
        assert est.events >= least
        assert est.events == _dense_errors(cov, dims, words, snr, 3000, 63, 1.0)


def test_decode_slices_do_not_change_results(monkeypatch):
    cov = _DECODE_COVS["isi"]
    book = _random_book(spawn_rng(64), 16, 2)
    kwargs = dict(trials=MC_CHUNK + 500, master_seed=65)
    dims = ChannelDims(2, 2, 4)
    whole = error_curve(cov, dims, book, (10.0,), **kwargs)[0]
    # 1003 trials per slice: uneven slices within both chunks
    monkeypatch.setattr(_util, "BATCH_BUDGET", 16 * 1003)
    sliced = error_curve(cov, dims, book, (10.0,), **kwargs)[0]
    assert whole == sliced
    assert whole.events > 0


@pytest.mark.parametrize("block_trials", [1, 7, None, MC_CHUNK])
@pytest.mark.parametrize("workers", [1, 2])
def test_sub_blocks_do_not_change_error_estimate(monkeypatch, block_trials, workers):
    # the decode loop sizes its sub-blocks from the codebook size; None keeps
    # the default BATCH_BUDGET, MC_CHUNK evaluates each chunk in one block
    cov = _DECODE_COVS["tf"]
    book = _random_book(spawn_rng(66), 12, 2)
    dims = ChannelDims(2, 2, 4)
    trials = 3000 if block_trials == 1 else MC_CHUNK + 700
    kwargs = dict(trials=trials, master_seed=67, workers=workers)
    monkeypatch.setattr(_util, "BATCH_BUDGET", 12 * MC_CHUNK)
    whole = error_curve(cov, dims, book, (4.0,), **kwargs)[0]
    if block_trials is not None:
        monkeypatch.setattr(_util, "BATCH_BUDGET", 12 * block_trials)
    else:
        monkeypatch.undo()
    assert error_curve(cov, dims, book, (4.0,), **kwargs)[0] == whole
    assert whole.events > 0


# one case per fading model kind and a 3 x 3 link
_ERROR_CURVE_CASES = {
    "flat": (build_covariance(Flat(), 4), ChannelDims(2, 2, 4)),
    "fast": (build_covariance(Fast(), 4), ChannelDims(1, 2, 4)),
    "block": (build_covariance(BlockFading(2, 2), 4), ChannelDims(2, 1, 4)),
    "isi": (_DECODE_COVS["isi"], ChannelDims(2, 2, 4)),
    "tf": (_DECODE_COVS["tf"], ChannelDims(1, 1, 4)),
    "mimo3x3": (_DECODE_COVS["isi"], ChannelDims(3, 3, 4)),
}


@pytest.mark.parametrize("noise_scale", [0.0, 1.0])
@pytest.mark.parametrize("case", sorted(_ERROR_CURVE_CASES))
def test_error_curve_equals_single_snr_oracle(case, noise_scale):
    # noise_scale is the oracle's; against its noiseless decode the estimator
    # runs at 1e12 times each SNR, where the noise is 1e-6 of the signal's
    # amplitude, and neither errs
    cov, dims = _ERROR_CURVE_CASES[case]
    book = _random_book(spawn_rng(69, dims.num_tx), 16, dims.num_tx)
    snrs = (1.0, 4.0, 10.0, 40.0)
    trials = MC_CHUNK + 700
    expected = [single_snr_errors(cov, dims, book, snr, trials, 70, noise_scale, 1)
                for snr in snrs]
    grid = [snr * (1.0 if noise_scale else 1e12) for snr in snrs]
    for workers in (1, 2):
        assert error_curve(cov, dims, book, grid, trials, 70, workers) == expected
    assert sum(est.events for est in expected) > 0 if noise_scale else all(
        est.events == 0 for est in expected)


def test_error_curve_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        error_curve(build_covariance(Flat(), 2), ChannelDims(1, 1, 2),
                    _random_book(spawn_rng(71), 4, 1, n=2), [], trials=100)


_PROPERTY_SNRS = (0.5, 2.0, 8.0, 32.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(picks=st.lists(st.integers(0, len(_PROPERTY_SNRS) - 1), min_size=1, max_size=6),
       trials=st.integers(1, 2 * MC_CHUNK))
def test_error_curve_of_a_shuffled_or_repeated_grid_is_permuted(picks, trials):
    cov, dims = _DECODE_COVS["isi"], ChannelDims(1, 1, 4)
    book = _random_book(spawn_rng(72), 8, 1)
    base = error_curve(cov, dims, book, _PROPERTY_SNRS, trials, 73)
    picked = error_curve(cov, dims, book, [_PROPERTY_SNRS[k] for k in picks], trials, 73)
    assert picked == [base[k] for k in picks]

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtlab.channel import (
    BlockFading,
    ChannelDims,
    CovarianceMatrix,
    CyclicIsi,
    MODELS,
    FadingModel,
    Fast,
    Flat,
    ScatteringSpec,
    TimeFrequency,
    build_covariance,
    circulant_covariance,
    draw_white,
    mix_white,
    sample_channel_batch,
)
from dmtlab._util import complex_normal, spawn_rng, unitary_fft
from dmtlab.tradeoff import _jensen_stack

from _oracles import (build_block_circulant, einsum_mix, numerical_rank, psd_root,
                      sample_channel)


def test_dims_invariants():
    dims = ChannelDims(num_tx=3, num_rx=2, block_len=4)
    assert dims.min_ant == 2
    assert dims.max_ant == 3
    with pytest.raises(ValueError):
        ChannelDims(num_tx=0, num_rx=1, block_len=1)
    with pytest.raises(ValueError):
        ChannelDims(num_tx=1, num_rx=1, block_len=0)


def test_flat_covariance_is_all_ones_rank_one():
    cov = build_covariance(Flat(), 3)
    assert np.allclose(cov.entries, np.ones((3, 3)))
    assert cov.rank == 1
    assert np.mean(np.real(np.diag(cov.entries))) == pytest.approx(1.0)


def test_block_fading_covariance():
    cov = build_covariance(BlockFading(num_blocks=2, block_len=2), 4)
    expected = np.kron(np.eye(2), np.ones((2, 2)))
    assert np.allclose(cov.entries, expected)
    assert cov.rank == 2
    with pytest.raises(ValueError):
        build_covariance(BlockFading(num_blocks=2, block_len=3), 4)


def test_cyclic_isi_covariance_matches_direct_formula():
    # independent evaluation: R[a, b] = (1/n) sum_l pdp[l] exp(-2j pi (a-b) l / n)
    n, pdp = 4, [1.0, 1.0]
    raw = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            raw[a, b] = sum(p * np.exp(-2j * np.pi * (a - b) * l / n)
                            for l, p in enumerate(pdp)) / n
    expected = raw * n / sum(pdp)

    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), n)
    assert np.allclose(cov.entries, expected, atol=1e-12)
    # closed form from the same evaluation: (1 + exp(-j pi (a-b)/2)) / 2
    a, b = 1, 0
    assert cov.entries[a, b] == pytest.approx((1 + np.exp(-1j * np.pi * (a - b) / 2)) / 2)
    assert cov.rank == 2
    assert np.allclose(np.diag(cov.entries), 1.0)


def test_cyclic_isi_eigvectors_are_fft_columns():
    n, pdp = 6, (2.0, 0.5, 1.0)
    cov = build_covariance(CyclicIsi(3, pdp), n)
    fft = unitary_fft(n)
    scale = n / sum(pdp)
    for l, power in enumerate(pdp):
        col = fft[:, l]
        assert np.allclose(cov.entries @ col, power * scale * col, atol=1e-10)


def test_cyclic_isi_rejects_degenerate_profiles():
    with pytest.raises(ValueError):
        CyclicIsi(2, (0.0, 0.0))
    with pytest.raises(ValueError):
        CyclicIsi(2, (1.0, -0.5))
    with pytest.raises(ValueError):
        build_covariance(CyclicIsi(5, (1.0,) * 5), 4)


def test_expected_ranks_across_models():
    cases = [
        (Flat(), 6, 1),
        (Fast(), 6, 6),
        (BlockFading(3, 2), 6, 3),
        (CyclicIsi(3, (1.0, 0.0, 2.0)), 6, 2),
    ]
    for model, n, rho in cases:
        cov = build_covariance(model, n)
        assert cov.rank == rho
        assert np.allclose(np.diag(cov.entries), 1.0)
        # the nonzero eigenpairs reproduce the matrix
        recon = (cov.eigvecs * cov.eigvals) @ cov.eigvecs.conj().T
        assert np.allclose(recon, cov.entries, atol=1e-10)
    # time-frequency: the rank of the circulant surrogate, not of the
    # generically full-rank two-level Toeplitz matrix
    for spec in (ScatteringSpec.from_normalized(0.5, 0.5, 4, 4),
                 ScatteringSpec.from_normalized(0.5, 0.25, 4, 8)):
        assert circulant_covariance(spec).rank == spec.doppler_slots * spec.delay_slots == 4


@pytest.mark.parametrize("model", [None, "flat", np.ones((2, 2)), FadingModel()])
def test_build_covariance_rejects_non_models(model):
    with pytest.raises(TypeError, match="unknown covariance model"):
        build_covariance(model, 2)


def test_models_table_and_equality():
    classes = (Flat, Fast, BlockFading, CyclicIsi, TimeFrequency)
    assert MODELS == {cls.kind: cls for cls in classes} and len(MODELS) == 5
    assert Flat() == Flat() and Fast() == Fast() and Flat() != Fast()
    assert repr(Flat()) == "Flat()" and repr(Fast()) == "Fast()"


def test_scattering_spec_validation():
    with pytest.raises(ValueError):
        ScatteringSpec(tau0=1.0, nu0=1.5, grid_t=0.5, grid_f=0.5, num_time=2, num_freq=2)
    with pytest.raises(ValueError):
        # grid too coarse for the Doppler spread
        ScatteringSpec(tau0=0.1, nu0=0.5, grid_t=3.0, grid_f=1.0, num_time=2, num_freq=2)
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 4, 4)
    assert spec.block_len == 16
    assert spec.doppler_slots == 2
    assert spec.delay_slots == 2


def test_brickwall_correlation_matches_quadrature():
    from scipy import integrate

    spec = ScatteringSpec(tau0=0.4, nu0=0.6, grid_t=1.0, grid_f=1.0, num_time=2, num_freq=2)
    level = 1.0 / (spec.tau0 * spec.nu0)  # unit power spread over the support
    for dt, df in [(0.0, 0.0), (0.7, 0.3), (1.5, -2.0), (-0.4, 0.9)]:
        re = integrate.dblquad(lambda nu, tau: level * np.cos(2 * np.pi * (nu * dt - tau * df)),
                               0, spec.tau0, 0, spec.nu0)[0]
        im = integrate.dblquad(lambda nu, tau: level * np.sin(2 * np.pi * (nu * dt - tau * df)),
                               0, spec.tau0, 0, spec.nu0)[0]
        assert spec.correlation(dt, df) == pytest.approx(re + 1j * im, abs=1e-10)


def test_time_frequency_covariance_structure():
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 3, 4)
    cov = build_covariance(TimeFrequency(spec), 12)
    assert np.allclose(np.diag(cov.entries), 1.0)
    # two-level Toeplitz: entry depends only on slot index differences
    k = spec.num_freq
    for n1 in range(12):
        for n2 in range(12):
            m1, f1 = divmod(n1, k)
            m2, f2 = divmod(n2, k)
            ref = spec.correlation((m1 - m2) * spec.grid_t, (f1 - f2) * spec.grid_f)
            assert cov.entries[n1, n2] == pytest.approx(ref, abs=1e-12)


def test_circulant_covariance_examples():
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 4, 4)
    cov = circulant_covariance(spec)
    assert cov.block_len == 16
    assert cov.rank == 4
    assert np.allclose(np.diag(cov.entries), 1.0)

    # degenerate single-slot grid: nu0*T = tau0*F = 1 with spread product 1/4
    single_spec = ScatteringSpec(tau0=0.5, nu0=0.5, grid_t=2.0, grid_f=2.0,
                                 num_time=1, num_freq=1)
    single = circulant_covariance(single_spec)
    assert single.block_len == 1
    assert single.rank == 1
    assert single.entries[0, 0] == pytest.approx(1.0)

    mixed = circulant_covariance(ScatteringSpec.from_normalized(0.5, 0.25, 4, 8))
    assert mixed.rank == 2 * 2
    # eigenvalue multiset agrees with a dense eigensolver on the built matrix
    dense = np.linalg.eigvalsh(np.asarray(mixed.entries))
    nonzero = np.sort(dense)[-mixed.rank:]
    assert np.allclose(np.sort(mixed.eigvals), nonzero, atol=1e-10)
    assert np.allclose(nonzero, 32 / 4)  # constant level n/(v*t)


def test_circulant_covariance_degenerate_spread():
    spec = ScatteringSpec.from_normalized(0.05, 0.5, 4, 4)
    with pytest.raises(ValueError):
        circulant_covariance(spec)


def _slot_covariance(draws):
    """Sample slot covariance of (count, N, M_R, M_T) draws, pooled over the
    scalar subchannels."""
    flat = draws.reshape(draws.shape[0], draws.shape[1], -1)
    return np.einsum("cnp,cmp->nm", flat, flat.conj()) / (flat.shape[0] * flat.shape[2])


def test_sample_channel_empirical_covariance_identity():
    dims = ChannelDims(2, 2, 4)
    cov = build_covariance(Fast(), 4)
    draws = sample_channel_batch(cov, dims, 100_000, spawn_rng(11))
    # each scalar subchannel across slots: covariance ~ identity
    est = _slot_covariance(draws)
    assert np.linalg.norm(est - np.eye(4)) / np.linalg.norm(np.eye(4)) < 0.02


def test_complex_normal_matches_one_draw_formula():
    for shape in ((16384, 4, 2, 2), (5, 3)):
        rng, ref_rng = spawn_rng(12), spawn_rng(12)
        g = ref_rng.standard_normal(2 * int(np.prod(shape)))
        ref = (g[0::2] + 1j * g[1::2]).reshape(shape) * np.sqrt(0.5)
        z = complex_normal(rng, shape)
        assert np.array_equal(z.view(float), ref.view(float))
        assert rng.standard_normal() == ref_rng.standard_normal()


def test_sample_channel_flat_blocks_identical():
    dims = ChannelDims(2, 3, 5)
    cov = build_covariance(Flat(), 5)
    blocks = sample_channel(cov, dims, spawn_rng(3))
    for blk in blocks[1:]:
        assert np.allclose(blk, blocks[0], atol=1e-12)


def test_sample_channel_block_fading_structure():
    dims = ChannelDims(1, 1, 4)
    cov = build_covariance(BlockFading(2, 2), 4)
    draws = sample_channel_batch(cov, dims, 100_000, spawn_rng(7))[:, :, 0, 0]
    # constant within blocks
    assert np.allclose(draws[:, 0], draws[:, 1], atol=1e-10)
    assert np.allclose(draws[:, 2], draws[:, 3], atol=1e-10)
    # uncorrelated across blocks
    corr = np.mean(draws[:, 0] * draws[:, 2].conj())
    assert abs(corr) < 0.02


def test_sample_channel_deterministic_for_seed():
    dims = ChannelDims(2, 2, 3)
    cov = build_covariance(Fast(), 3)
    a = sample_channel(cov, dims, spawn_rng(42, 5))
    b = sample_channel(cov, dims, spawn_rng(42, 5))
    assert np.array_equal(a, b)


def test_jensen_stack_shapes():
    # min_ant x N * max_ant per draw; a tall channel's slots are stacked
    # transposed, which has the singular values of the conjugate-transposed
    # concatenation
    rng = spawn_rng(0)
    cov = build_covariance(Fast(), 4)
    for dims in (ChannelDims(num_tx=2, num_rx=3, block_len=4),
                 ChannelDims(num_tx=3, num_rx=2, block_len=4)):
        batch = sample_channel_batch(cov, dims, 5, rng)
        stack = _jensen_stack(batch)
        assert stack.shape == (5, 2, 4 * 3)
        for draw, got in zip(batch, stack):
            slots = draw if dims.num_rx <= dims.num_tx else draw.conj().swapaxes(-1, -2)
            ref = np.concatenate(list(slots), axis=1)
            np.testing.assert_allclose(np.linalg.svd(got, compute_uv=False),
                                       np.linalg.svd(ref, compute_uv=False), rtol=1e-12)


@pytest.mark.parametrize("model,dims", [
    (Flat(), ChannelDims(2, 3, 5)),
    (Fast(), ChannelDims(1, 1, 3)),
    (BlockFading(2, 2), ChannelDims(2, 2, 4)),
    (CyclicIsi(2, (1.0, 0.5)), ChannelDims(3, 2, 4)),
    (TimeFrequency(ScatteringSpec.from_normalized(0.5, 0.5, 2, 3)), ChannelDims(2, 1, 6)),
])
def test_sample_channel_matches_single_draw_formula(model, dims):
    # the single-realization draw sample_channel used before it went through
    # sample_channel_batch: the same white stream, bit for bit, mixed to the
    # per-draw formula up to the GEMM's rounding
    cov = build_covariance(model, dims.block_len)
    rng, ref_rng = spawn_rng(13, dims.block_len), spawn_rng(13, dims.block_len)
    for _ in range(200):
        one = sample_channel(cov, dims, rng)
        white = complex_normal(ref_rng, (cov.rank, dims.num_rx, dims.num_tx))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        np.testing.assert_allclose(one, einsum_mix(cov, white[None])[0], rtol=1e-12, atol=1e-15)


# one model per kind of channel.MODELS; flat with n > 1 has rank 1 < n
_DRAW_MODELS = {
    "flat": (Flat(), 5),
    "fast": (Fast(), 3),
    "block": (BlockFading(2, 2), 4),
    "isi": (CyclicIsi(2, (1.0, 1.0)), 4),
    "tf": (TimeFrequency(ScatteringSpec.from_normalized(0.5, 0.5, 2, 3)), 6),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_draw_factor_reproduces_covariance(kind):
    model, n = _DRAW_MODELS[kind]
    cov = build_covariance(model, n)
    factor = cov.eigvecs * np.sqrt(cov.eigvals)
    assert factor.shape == (n, cov.rank)
    np.testing.assert_allclose(factor @ factor.conj().T, cov.entries, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_sample_channel_batch_draws_rank_white_matrices(kind):
    # the stream advances by rank * M_R * M_T complex normals per draw
    model, n = _DRAW_MODELS[kind]
    cov = build_covariance(model, n)
    dims = ChannelDims(3, 2, n)
    rng, ref_rng = spawn_rng(14, n), spawn_rng(14, n)
    sample_channel_batch(cov, dims, 7, rng)
    complex_normal(ref_rng, (7, cov.rank, dims.num_rx, dims.num_tx))
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_draw_then_mix_is_sample_channel_batch(kind):
    # same channels bit for bit, and the generator ends in the same state
    model, n = _DRAW_MODELS[kind]
    cov = build_covariance(model, n)
    dims = ChannelDims(3, 2, n)
    rng, ref_rng = spawn_rng(18, n), spawn_rng(18, n)
    white = draw_white(cov, dims, 300, rng)
    assert white.shape == (300, cov.rank, 2, 3)
    assert np.array_equal(white, complex_normal(spawn_rng(18, n), (300, cov.rank, 2, 3)))
    mixed = mix_white(cov, white)
    assert np.array_equal(mixed, sample_channel_batch(cov, dims, 300, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # any slice of the white batch mixes to the per-draw formula's rows, and
    # the same slice mixes to the same channels bit for bit; the GEMM's
    # rounding may depend on the slice's size, so rows of the whole mix are
    # only close
    for a, b in ((0, 1), (0, 7), (5, 12), (17, 300), (299, 300), (0, 300)):
        part = mix_white(cov, white[a:b])
        np.testing.assert_allclose(part, einsum_mix(cov, white[a:b]), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(part, mixed[a:b], rtol=1e-12, atol=1e-15)
        assert np.array_equal(mix_white(cov, white[a:b].copy()), part)


def test_mix_is_slot_major():
    # the slot axis is the outer memory axis of the mix
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    mixed = mix_white(cov, draw_white(cov, ChannelDims(3, 2, 4), 50, spawn_rng(20)))
    assert mixed.shape == (50, 4, 2, 3)
    assert mixed.swapaxes(0, 1).flags.c_contiguous
    assert mix_white(cov, np.zeros((0, cov.rank, 2, 3), dtype=complex)).shape == (0, 4, 2, 3)


def test_draw_white_rejects_size_mismatch():
    cov = build_covariance(Flat(), 3)
    with pytest.raises(ValueError, match="block length"):
        draw_white(cov, ChannelDims(1, 1, 4), 5, spawn_rng(19))


@pytest.mark.parametrize("kind", ["isi", "block", "tf"])
def test_sample_channel_empirical_covariance(kind):
    # the rank-reduced draw and the old full-length draw through the PSD
    # square root both have slot covariance cov.entries
    model, n = _DRAW_MODELS[kind]
    cov = build_covariance(model, n)
    dims = ChannelDims(2, 2, n)
    count = 100_000
    old_draws = np.einsum("nk,ckij->cnij", psd_root(cov),
                          complex_normal(spawn_rng(15), (count, n, 2, 2)))
    for draws in (sample_channel_batch(cov, dims, count, spawn_rng(16)), old_draws):
        est = _slot_covariance(draws)
        assert np.linalg.norm(est - cov.entries) / np.linalg.norm(cov.entries) < 0.02


def test_flat_single_slot_draw_matches_sqrt_factor_draw():
    # n = 1: one white matrix either way and a factor of exactly 1, so the
    # 2x2 flat stream is the one of the full-length PSD-root draw
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(2, 2, 1)
    got = sample_channel_batch(cov, dims, 16384, spawn_rng(17))
    white = complex_normal(spawn_rng(17), (16384, 1, 2, 2))
    ref = np.einsum("nk,ckij->cnij", psd_root(cov), white)
    assert np.array_equal(got.view(float), ref.view(float))


@pytest.mark.parametrize("mt,mr", [(2, 2), (1, 2), (3, 2)])
def test_block_circulant_rank_identity_random(mt, mr):
    rng = spawn_rng(19, mt, mr)
    n, taps = 4, 2
    for _ in range(20):
        mats = (rng.standard_normal((taps, mr, mt)) + 1j * rng.standard_normal((taps, mr, mt))) / np.sqrt(2)
        bc = build_block_circulant(mats, n)
        assert numerical_rank(bc.full) == n * bc.corner_rank
        assert bc.corner.shape == (min(mt, mr), taps * max(mt, mr))


def test_block_circulant_example_dimensions():
    rng = spawn_rng(4)
    mats = (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
    bc = build_block_circulant(mats, 4)
    assert bc.full.shape == (8, 8)
    assert numerical_rank(bc.full) == 8
    assert bc.corner_rank == 2


def test_block_circulant_zero_and_single_tap():
    zero = build_block_circulant(np.zeros((2, 2, 2)), 4)
    assert numerical_rank(zero.full) == 0
    assert zero.corner_rank == 0

    rng = spawn_rng(5)
    single = (rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2)))
    bc = build_block_circulant(single, 3)
    # block diagonal with identical blocks
    assert numerical_rank(bc.full) == 3 * np.linalg.matrix_rank(single[0])
    off = bc.full[2:4, 0:2]
    assert np.allclose(off, 0.0)
    with pytest.raises(ValueError):
        build_block_circulant(single, 1)


def test_block_circulant_structure_contract():
    rng = spawn_rng(6)
    taps = rng.standard_normal((2, 1, 1)) + 1j * rng.standard_normal((2, 1, 1))
    bc = build_block_circulant(taps, 5)
    for i in range(5):
        for j in range(5):
            lag = (i - j) % 5
            ref = taps[lag, 0, 0] if lag < 2 else 0.0
            assert bc.full[i, j] == pytest.approx(ref)


def test_covariance_json_round_trip(tmp_path):
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    path = tmp_path / "cov.json"
    cov.save(path)
    loaded = CovarianceMatrix.load(path)
    assert np.allclose(loaded.entries, cov.entries, atol=1e-12)
    assert loaded.rank == cov.rank
    # file content is valid JSON with the documented keys
    payload = json.loads(path.read_text())
    assert set(payload) == {"n", "entries"}


@st.composite
def _covariances(draw):
    """Unit-diagonal covariances I + B B^H, rescaled, with signed zeros: the
    drawn B may hold zeros of either sign, and the diagonal's imaginary parts
    are +0.0 or -0.0 as drawn."""
    n, cols = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))
    b = np.array(draw(st.lists(parts, min_size=2 * n * cols, max_size=2 * n * cols)))
    b = b.reshape(n, cols, 2).view(complex)[..., 0]
    raw = np.eye(n) + b @ b.conj().T
    scale = 1.0 / np.sqrt(np.real(np.diag(raw)))
    entries = raw * np.outer(scale, scale)
    entries[np.diag_indices(n)] = [complex(1.0, draw(st.sampled_from([0.0, -0.0])))
                                   for _ in range(n)]
    return CovarianceMatrix.from_entries(entries)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cov=_covariances())
def test_covariance_json_round_trip_is_bitwise(tmp_path_factory, cov):
    path = tmp_path_factory.mktemp("cov") / "cov.json"
    cov.save(path)
    loaded = CovarianceMatrix.load(path)
    # every float of the entries, signed zeros included, comes back bit for bit
    assert loaded.entries.shape == cov.entries.shape
    assert np.array_equal(loaded.entries.view(float).view(np.int64),
                          cov.entries.view(float).view(np.int64))
    assert loaded.rank == cov.rank


def test_covariance_rejects_non_hermitian():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        CovarianceMatrix.from_entries(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_covariance_rejects_non_finite_entries(bad):
    entries = np.array([[1.0, bad], [bad, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        CovarianceMatrix.from_entries(entries)

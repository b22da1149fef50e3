import numpy as np
import pytest

from dmtlab.channel import (
    CyclicIsi,
    Flat,
    ScatteringSpec,
    build_covariance,
    circulant_covariance,
)
from dmtlab import _util
from dmtlab.codes import (
    Codebook,
    effective_difference,
    pairwise_min_products,
    permutation_codebook,
    qam_family,
    search_permutations,
    xi_metric,
)
from dmtlab.precoder import (
    Precoder,
    apply_precoder,
    classic_precoder,
    design_tf_shift_precoder,
    tf_shift_row,
    verify_composed_design,
    verify_precoder_rank,
)
from dmtlab._util import rank_tolerance, spawn_rng, unitary_fft

from _oracles import cyclic_shift_matrix, gather_composed_sweep, shift_index_sets
from test_codes import sweep_words


def test_tf_shift_precoder_full_rank_on_surrogate():
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 4, 4)
    pre = design_tf_shift_precoder(spec, num_tx=2)
    assert pre.matrix.shape == (2, 16)
    assert np.allclose(np.abs(pre.matrix), 1.0)
    cov = circulant_covariance(spec)
    report = verify_precoder_rank(cov, pre)
    assert report.rank == 8 == report.expected_rank
    assert report.passed
    assert report.sigma0 > 0


def test_tf_shift_single_antenna_trivial():
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 4, 4)
    pre = design_tf_shift_precoder(spec, num_tx=1)
    cov = circulant_covariance(spec)
    report = verify_precoder_rank(cov, pre)
    assert report.rank == cov.rank
    assert report.passed


def test_tf_shift_infeasible_antenna_count():
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 8, 8)
    with pytest.raises(ValueError, match="4 distinct shift pairs"):
        design_tf_shift_precoder(spec, num_tx=5)


def test_tf_verification_reports_both_covariances():
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 4, 4)
    pre = design_tf_shift_precoder(spec, num_tx=2)
    from dmtlab.channel import TimeFrequency
    toeplitz = build_covariance(TimeFrequency(spec), 16)
    circulant = verify_precoder_rank(circulant_covariance(spec), pre)
    eff = effective_difference(toeplitz, pre.matrix)
    assert circulant.passed
    # Toeplitz side is reported, not asserted: the eigenvalue at the
    # surrogate's structural count should still be healthy
    assert eff.eigvals[-circulant.expected_rank] > 0.01
    assert eff.rank >= circulant.rank


def test_cdd_multicarrier_example_eigen_multiset():
    # two antennas, two taps, four slots: delays {0, 2} interleave the two
    # covariance eigenvalues, giving multiset {l0, l1, l0, l1} and rank 4
    pdp = (1.0, 0.5)
    cov = build_covariance(CyclicIsi(2, pdp), 4)
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
    eff = effective_difference(cov, pre.matrix).matrix
    lam = 4 * np.array(pdp) / sum(pdp)
    expected = np.sort(np.concatenate([lam, lam]))
    assert np.allclose(np.sort(np.linalg.eigvalsh(eff)), expected, rtol=1e-9)
    report = verify_precoder_rank(cov, pre)
    assert report.rank == 4
    assert report.passed


def _rank_cases():
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 4, 4)
    isi = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    zero = Precoder(matrix=np.zeros((2, 4), dtype=complex), shifts=None, doppler_stride=1,
                    delay_stride=1, num_time=1, num_freq=4)
    return [
        (isi, classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)),
        (isi, classic_precoder("cdd", num_tx=2, n_slots=4, stride=2, shifts=[0, 0])),
        (build_covariance(CyclicIsi(2, (1.0, 1.0)), 4),
         classic_precoder("phase-rolling", num_tx=2, n_slots=4, stride=2)),
        (circulant_covariance(spec), design_tf_shift_precoder(spec, num_tx=2)),
        (isi, zero),
    ]


@pytest.mark.parametrize("case", range(5),
                         ids=["cdd", "cdd-duplicate", "phase-rolling", "tf-shift", "zero"])
def test_precoder_rank_is_rank_criterion_on_rows(case):
    # the report's Gram is the weighted row Gram, bit for bit, and sigma0 is
    # the smallest eigenvalue above the rank tolerance (0 when none is)
    cov, pre = _rank_cases()[case]
    report = verify_precoder_rank(cov, pre)
    p = pre.matrix
    gram = cov.entries.T * (p.conj().T @ p)
    assert report.gram.matrix.tobytes() == gram.tobytes()
    eig = np.linalg.eigvalsh(gram)
    nonzero = eig[eig > rank_tolerance(eig, pre.block_len)]
    assert report.sigma0 == (float(nonzero[0]) if nonzero.size else 0.0)
    assert report.rank == nonzero.size
    assert report.expected_rank == cov.rank * pre.num_tx
    assert report.passed == (nonzero.size == cov.rank * pre.num_tx)
    assert report == verify_precoder_rank(cov, pre)


def test_precoder_rank_rejects_size_mismatch_and_short_block():
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 4, 4)
    with pytest.raises(ValueError, match="difference length does not match"):
        verify_precoder_rank(cov, design_tf_shift_precoder(spec, num_tx=2))
    three = Precoder(matrix=np.ones((3, 4), dtype=complex), shifts=None, doppler_stride=1,
                     delay_stride=1, num_time=1, num_freq=4)
    with pytest.raises(ValueError, match="below the structural eigenvalue count"):
        verify_precoder_rank(cov, three)


def test_tf_design_rejects_bad_spreads_and_antenna_counts():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ScatteringSpec.from_normalized(bad, 0.5, 4, 4)
        with pytest.raises(ValueError, match="finite"):
            ScatteringSpec.from_normalized(0.5, bad, 4, 4)
    spec = ScatteringSpec.from_normalized(0.5, 0.5, 4, 4)
    for num_tx in (0, -1):
        with pytest.raises(ValueError, match="antenna count must be positive"):
            design_tf_shift_precoder(spec, num_tx=num_tx)

def test_tf_design_block_always_holds_the_structural_rank():
    # v = floor(nu0*T*num_time) and max_p = floor(1/(nu0*T)) give
    # v * max_p <= num_time (likewise t * max_q <= num_freq), so every antenna
    # count the shift box admits has v * t * num_tx <= n: a block-length check
    # in the design could never fail
    products = (0.1, 0.125, 0.2, 0.25, 1 / 3, 0.4, 0.5, 0.75, 1.0)
    grids = (1, 2, 3, 4, 6)
    checked = 0
    for nu0_t in products:
        for tau0_f in products:
            if nu0_t * tau0_f >= 1:
                continue
            for num_time in grids:
                for num_freq in grids:
                    spec = ScatteringSpec.from_normalized(nu0_t, tau0_f, num_time, num_freq)
                    v, t = spec.doppler_slots, spec.delay_slots
                    if v < 1 or t < 1:
                        continue
                    max_p = int(np.floor(1 / nu0_t + 1e-12))
                    max_q = int(np.floor(1 / tau0_f + 1e-12))
                    capacity = max_p * max_q
                    assert circulant_covariance(spec).rank == v * t
                    assert v * t * capacity <= spec.block_len
                    pre = design_tf_shift_precoder(spec, num_tx=capacity)
                    assert (pre.doppler_stride, pre.delay_stride) == (v, t)
                    # the shift pairs are the whole box in row-major order:
                    # distinct and admissible by construction
                    assert pre.shifts == tuple((p, q) for p in range(max_p)
                                               for q in range(max_q))
                    checked += 1
    assert checked > 300


def test_cdd_rows_match_shift_construction():
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
    assert np.allclose(pre.matrix[0], np.ones(4))
    assert np.allclose(pre.matrix[1], np.array([1, -1, 1, -1], dtype=complex))
    # same rows as the generic time-frequency construction on a 1 x 4 grid
    assert np.allclose(pre.matrix[1], tf_shift_row(1, 4, 0, 2))


def test_single_antenna_classic_is_constant_row():
    pre = classic_precoder("cdd", num_tx=1, n_slots=4, stride=1)
    assert np.allclose(pre.matrix, np.ones((1, 4)))


def test_duplicate_delays_fail_rank():
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2, shifts=[0, 0])
    report = verify_precoder_rank(cov, pre)
    assert report.rank == cov.rank < report.expected_rank
    assert not report.passed


def test_apply_precoder_repetition_and_energy():
    ones = Precoder(matrix=np.ones((2, 3), dtype=complex), shifts=((0, 0), (0, 1)),
                    doppler_stride=1, delay_stride=1, num_time=1, num_freq=3)
    word = np.array([1.0, -0.5j, 0.25])
    out = apply_precoder(ones, word)
    assert np.allclose(out[0], word) and np.allclose(out[1], word)
    # constant-modulus rows preserve per-antenna energy
    pre = classic_precoder("cdd", num_tx=2, n_slots=3, stride=1)
    out = apply_precoder(pre, word)
    for row in out:
        assert np.sum(np.abs(row) ** 2) == pytest.approx(np.sum(np.abs(word) ** 2))
    # a stack of words is precoded in one product, bitwise as word by word
    rng = spawn_rng(40)
    stack = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    out = apply_precoder(pre, stack)
    assert out.shape == (5, 2, 3)
    assert out.tobytes() == np.stack([apply_precoder(pre, w) for w in stack]).tobytes()
    for bad in (np.ones(4), np.ones((3, 1)), np.ones((2, 4))):
        with pytest.raises(ValueError, match="codeword length"):
            apply_precoder(pre, bad)


def test_conjugation_identity_random():
    # weighted Gram of a precoded difference equals the diagonal conjugation
    # of the weighted row Gram for every (precoder, difference) pair
    rng = spawn_rng(41)
    cov = build_covariance(CyclicIsi(2, (1.0, 0.6)), 4)
    for trial in range(100):
        phases = rng.uniform(0, 2 * np.pi, (2, 4))
        pre = Precoder(matrix=np.exp(1j * phases), shifts=None, doppler_stride=1,
                       delay_stride=1, num_time=1, num_freq=4)
        e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        precoded = apply_precoder(pre, e)
        gram = precoded.conj().T @ precoded
        lhs = cov.entries.T * gram
        row_gram = effective_difference(cov, pre.matrix).matrix
        rhs = np.diag(e.conj()) @ row_gram @ np.diag(e)
        assert np.allclose(lhs, rhs, atol=1e-10 * max(1.0, np.max(np.abs(rhs))))


def test_eigenvalue_chain_bound_random():
    # every structurally nonzero eigenvalue of the precoded difference Gram
    # dominates sigma0 times the matching sorted entry power
    rng = spawn_rng(42)
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
    rep = verify_precoder_rank(cov, pre)
    gram = effective_difference(cov, pre.matrix).matrix
    for _ in range(100):
        e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        eff = np.diag(e.conj()) @ gram @ np.diag(e)
        eig = np.linalg.eigvalsh(eff)
        entry = np.sort(np.abs(e) ** 2)
        assert np.all(eig[-4:] >= rep.sigma0 * entry - 1e-9)


def test_shift_index_sets_disjoint():
    spec = ScatteringSpec.from_normalized(0.5, 0.25, 4, 8)
    pre = design_tf_shift_precoder(spec, num_tx=4)
    boxes = shift_index_sets(pre)
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert not boxes[i] & boxes[j]


def test_similarity_to_cyclic_permutations():
    # conjugating the diagonal of a conjugated shift row by the DFT gives a
    # Kronecker product of cyclic permutation powers, entrywise
    for big_m, big_k, p, q in [(3, 4, 1, 2), (2, 2, 1, 1), (4, 3, 2, 1)]:
        row = tf_shift_row(big_m, big_k, p, q)
        fmat = np.kron(unitary_fft(big_m), unitary_fft(big_k))
        lhs = fmat.T @ np.diag(row.conj()) @ fmat.conj()
        rhs = np.kron(cyclic_shift_matrix(big_m, p), cyclic_shift_matrix(big_k, q))
        assert np.allclose(lhs, rhs, atol=1e-10)


def _isi_setup():
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
    return cov, pre


def test_composed_design_passes_with_searched_outer():
    cov, pre = _isi_setup()
    grid = [10.0, 100.0]
    search = search_permutations(grid, 1.0, 4, budget=300, master_seed=5, epsilon=0.5)
    report = verify_composed_design(pre, search.codebook_at, cov, grid,
                                    epsilon=0.5, num_rx=2)
    assert report["rank"].passed
    assert report["passed"], report["per_snr"]


def test_composed_design_repetition_outer_fails():
    cov, pre = _isi_setup()

    def repetition(snr):
        fam = qam_family(snr, 1.0)
        return permutation_codebook(fam, [range(len(fam))] * 4)

    report = verify_composed_design(pre, repetition, cov, [100.0],
                                    epsilon=0.5, num_rx=2)
    assert not report["passed"]
    assert not report["per_snr"][0]["outer_passed"]


def test_composed_design_duplicate_shift_fails_rank():
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    bad = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2, shifts=[0, 0])
    search = search_permutations([100.0], 1.0, 4, budget=100, master_seed=6, epsilon=0.5)
    report = verify_composed_design(bad, search.codebook_at, cov, [100.0],
                                    epsilon=0.5, num_rx=2)
    assert not report["rank"].passed
    assert not report["passed"]


def test_composed_design_vacuous_single_word():
    cov, pre = _isi_setup()

    def singleton(snr):
        fam = qam_family(snr, 0.0)
        return permutation_codebook(fam, [range(1)] * 4)

    report = verify_composed_design(pre, singleton, cov, [10.0], epsilon=0.5, num_rx=2)
    assert report["per_snr"][0]["vacuous"]
    assert report["passed"]


def test_composed_design_rejects_multi_antenna_outer():
    # the outer code is single-antenna; a 2-antenna codebook must not be
    # cut to its first antenna
    cov, pre = _isi_setup()
    words = pre.matrix * qam_family(9.0, 0.5).points[:, None, None]  # precoded repetition
    book = Codebook(words=words, snr=9.0, mux_rate=0.5)
    with pytest.raises(ValueError, match="single transmit antenna"):
        verify_composed_design(pre, lambda snr: book, cov, [9.0], epsilon=0.5, num_rx=2)


@pytest.mark.parametrize("shifts,size", [([0, 0], 5), (None, 5), (None, 1)],
                         ids=["rank-deficient", "full-rank", "one-word"])
def test_composed_design_rejects_outer_of_another_length(shifts, size):
    # a 3-slot outer code against a 4-slot precoder: with duplicate shifts it
    # came back with outer metrics, with distinct shifts it raised the
    # covariance-size message, and a one-word code was a vacuous pass
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    pre = classic_precoder("cdd", 2, 4, 2, shifts=shifts)
    book = Codebook(words=0.05 * np.arange(3.0 * size).reshape(size, 1, 3), snr=10.0,
                    mux_rate=0.5)
    with pytest.raises(ValueError, match="outer code block length 3 does not match "
                                         "the precoder block length 4"):
        verify_composed_design(pre, lambda snr: book, cov, [10.0], epsilon=0.5, num_rx=2)


def test_precoded_pairs_pass_rank_criterion():
    # delay-diversity precoded repetition pairs reach the full structural
    # rank on the two-tap multicarrier channel
    from dmtlab.codes import verify_rank_r0
    cov, pre = _isi_setup()
    fam = qam_family(16.0, 0.5)
    outer = permutation_codebook(fam, [range(len(fam))] * 4)
    words = apply_precoder(pre, outer.scalar_words)
    book = Codebook(words=words, snr=16.0, mux_rate=0.5)
    report = verify_rank_r0(book, cov)
    assert report["passed"]
    assert report["expected_rank"] == 4


def test_pruned_xi_matches_exhaustive(monkeypatch):
    # the pruned evaluator used for composed designs agrees with the
    # exhaustive metric on small instances, also when its sweep is chunked
    rng = spawn_rng(43)
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
    fam = qam_family(25.0, 1.0)
    perms = [rng.permutation(len(fam)) for _ in range(4)]
    outer = permutation_codebook(fam, perms)
    words = apply_precoder(pre, outer.scalar_words)
    book = Codebook(words=words, snr=25.0, mux_rate=1.0)
    exhaustive = xi_metric(book, cov, 2)
    outer_worst = pairwise_min_products(outer.scalar_words, 2)
    # pairs the sandwich cannot rule out, counted pair by pair
    row_gram = effective_difference(cov, pre.matrix).matrix
    nonzero = np.linalg.eigvalsh(row_gram)[4 - cov.rank * 2:]
    pairs = [(i, j) for i in range(len(fam)) for j in range(i + 1, len(fam))]
    dist2 = []
    for i, j in pairs:
        diff = outer.scalar_words[i] - outer.scalar_words[j]
        dist2.append(np.sort(diff.real ** 2 + diff.imag ** 2))
    level = nonzero[-1] ** 2 * min(d[:2].prod() for d in dist2) * (1 + 1e-9)
    survivors = sum(nonzero[0] ** 2 * d[:2].prod() <= level for d in dist2)
    rows = []
    for budget in (8_000_000, 8):  # one batch; one pair a batch
        monkeypatch.setattr(_util, "BATCH_BUDGET", budget)
        report = verify_composed_design(pre, lambda s: outer, cov, [25.0],
                                        epsilon=0.5, num_rx=2)
        row = report["per_snr"][0]
        assert row["xi"] == pytest.approx(exhaustive.value, rel=1e-9)
        assert row["xi_pairs_evaluated"] == survivors < len(pairs)
        assert row["outer_min_product"] == outer_worst.value
        assert row["outer_worst_pair"] == list(outer_worst.pair)
        rows.append(row)
    assert rows[0] == rows[1]


_COMPOSED_SETUPS = {  # (model, precoder, num_rx): m = 1, 2 and 4 = slots
    "cdd2-rx1": (CyclicIsi(2, (1.0, 0.5)), ("cdd", 2, 4, 2, None), 1),
    "cdd2-rx2": (CyclicIsi(2, (1.0, 0.5)), ("cdd", 2, 4, 2, None), 2),
    "cdd4-rx4": (Flat(), ("cdd", 4, 4, 1, None), 4),
    "deficient": (CyclicIsi(2, (1.0, 0.5)), ("cdd", 2, 4, 2, [0, 0]), 2),
}


@pytest.mark.parametrize("budget", [None, 1])  # the default; one-row strips
@pytest.mark.parametrize("kind", ["random", "lattice"])
@pytest.mark.parametrize("num", [2, 3, 17, 100])
@pytest.mark.parametrize("setup", sorted(_COMPOSED_SETUPS))
def test_composed_design_matches_gather_kernel(monkeypatch, budget, kind, num, setup):
    if budget is not None:
        monkeypatch.setattr(_util, "BATCH_BUDGET", budget)
    model, (kind_pre, num_tx, n, stride, shifts), num_rx = _COMPOSED_SETUPS[setup]
    cov = build_covariance(model, n)
    pre = classic_precoder(kind_pre, num_tx, n, stride, shifts=shifts)
    words = sweep_words(kind, num, n) * (0.3 if kind == "random" else 1.0)
    outer = Codebook(words=words[:, None, :], snr=25.0, mux_rate=1.0)
    row = verify_composed_design(pre, lambda snr: outer, cov, [25.0], epsilon=0.5,
                                 num_rx=num_rx)["per_snr"][0]
    m = min(num_tx, num_rx)
    assert pairwise_min_products(outer.scalar_words, m).value == row["outer_min_product"]
    ref_outer, ref_xi, evaluated = gather_composed_sweep(
        verify_precoder_rank(cov, pre), outer.scalar_words, m)
    assert (row["outer_min_product"], row["outer_worst_pair"]) == (
        ref_outer.value, list(ref_outer.pair))
    assert (row["xi"], row["xi_worst_pair"], row["xi_pairs_evaluated"]) == (
        ref_xi.value, list(ref_xi.pair), evaluated)
    assert (evaluated == 0) == (setup == "deficient")

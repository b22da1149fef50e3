"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte-Carlo criteria use fixed master seeds, so every number below is
deterministic and reproducible regardless of worker count.
"""

import numpy as np

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
from dmtlab.codes import (
    Codebook,
    effective_difference,
    permutation_codebook,
    qam_family,
    search_permutations,
)
from dmtlab.precoder import (
    apply_precoder,
    classic_precoder,
    verify_composed_design,
    verify_precoder_rank,
)
from dmtlab.sim import error_curve
from dmtlab.tradeoff import (
    FixedRate,
    ScalingRate,
    SnrPoint,
    fit_diversity_slope,
    jensen_dmt_curve,
    outage_curve,
)
from dmtlab._util import db_to_linear, spawn_rng

from _oracles import (TraceBoundInstance, build_block_circulant, delta_decomposition,
                      jensen_mutual_information, least_favorable_trace, mutual_information,
                      numerical_rank, pep_chernoff, pep_monte_carlo, psd_root, sample_channel,
                      trace_oracle)


def _verdict(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def _unit_diag_cov(rng, n, rho):
    mat = rng.standard_normal((n, rho)) + 1j * rng.standard_normal((n, rho))
    raw = mat @ mat.conj().T
    scale = 1.0 / np.sqrt(np.real(np.diag(raw)))
    from dmtlab.channel import CovarianceMatrix
    return CovarianceMatrix.from_entries(raw * np.outer(scale, scale))


def test_criterion_1_dmt_formula_table():
    ok = jensen_dmt_curve(1, ChannelDims(2, 2, 2)).points == ((0, 4), (1, 1), (2, 0))
    ok &= jensen_dmt_curve(2, ChannelDims(2, 2, 4)).points == ((0, 8), (1, 3), (2, 0))
    for taps in (1, 2, 3, 6):
        curve = jensen_dmt_curve(taps, ChannelDims(1, 1, taps + 1))
        ok &= curve.points == ((0, taps), (1, 0))
    rng = spawn_rng(1001)
    for _ in range(50):
        rho = int(rng.integers(1, 6))
        mt = int(rng.integers(1, 5))
        mr = int(rng.integers(1, 5))
        dims = ChannelDims(mt, mr, rho * mt)
        jensen = jensen_dmt_curve(rho, dims, "jensen")
        indep = jensen_dmt_curve(rho, dims, "independent")
        ok &= all(di <= dj for (_, dj), (_, di) in zip(jensen.points, indep.points))
    _verdict("criterion-1 dmt-formula-table", bool(ok))


def test_criterion_2_cdd_eigenvalue_interleaving():
    worst = 0.0
    for pdp in ((1.0, 1.0), (1.0, 0.5)):
        cov = build_covariance(CyclicIsi(2, pdp), 4)
        pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
        eig = np.sort(np.linalg.eigvalsh(effective_difference(cov, pre.matrix).matrix))
        lam = 4.0 * np.array(pdp) / sum(pdp)
        expected = np.sort(np.concatenate([lam, lam]))
        worst = max(worst, float(np.max(np.abs(eig - expected) / expected)))
        rank_ok = verify_precoder_rank(cov, pre).rank == 4
        if not rank_ok:
            _verdict("criterion-2 cdd-eigen-interleave", False, f"rank != 4 for {pdp}")
    _verdict("criterion-2 cdd-eigen-interleave", worst < 1e-9,
             f"max relative eigen error {worst:.2e}")


def test_criterion_3_trace_minimum_oracle():
    rng = spawn_rng(1003)
    for trial in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        inst = TraceBoundInstance(np.sort(rng.uniform(0.0, 4.0, m)),
                                  np.sort(rng.uniform(0.0, 4.0, n)))
        out = trace_oracle(inst, num_random_unitaries=1000, master_seed=3000 + trial)
        closed = least_favorable_trace(inst)
        if abs(out["perm_min"] - closed) > 1e-12 * max(1.0, closed):
            _verdict("criterion-3 trace-minimum-oracle", False, f"instance {trial}")
        if out["sampled_min"] < closed - 1e-12 * max(1.0, closed):
            _verdict("criterion-3 trace-minimum-oracle", False, f"instance {trial}")
    _verdict("criterion-3 trace-minimum-oracle", True, "200 instances")


def test_criterion_4_identity_suite():
    rng = spawn_rng(1004)
    n, mt = 4, 2

    for trial in range(100):  # eigen-weighted stack vs Hadamard product
        cov = _unit_diag_cov(spawn_rng(1004, trial), n, int(1 + trial % 3))
        e = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
        delta = delta_decomposition(cov, e)
        lhs = np.linalg.eigvalsh(delta.conj().T @ delta)
        rhs = np.linalg.eigvalsh(effective_difference(cov, e).matrix)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * max(1.0, rhs[-1]))

    for trial in range(100):  # lifted-diagonal construction
        cov = _unit_diag_cov(spawn_rng(1104, trial), n, 2)
        e = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
        lift = np.kron(psd_root(cov).T, np.eye(mt))
        diag_e = np.zeros((n * mt, n), dtype=complex)
        for slot in range(n):
            diag_e[slot * mt:(slot + 1) * mt, slot] = e[:, slot]
        upsilon = lift @ diag_e
        lhs = np.linalg.eigvalsh(upsilon.conj().T @ upsilon)
        rhs = np.linalg.eigvalsh(effective_difference(cov, e).matrix)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * max(1.0, rhs[-1]))

    for trial in range(100):  # precoder conjugation identity
        cov = _unit_diag_cov(spawn_rng(1204, trial), n, 2)
        from dmtlab.precoder import Precoder
        phases = rng.uniform(0, 2 * np.pi, (mt, n))
        pre = Precoder(matrix=np.exp(1j * phases), shifts=None, doppler_stride=1,
                       delay_stride=1, num_time=1, num_freq=n)
        e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        precoded = apply_precoder(pre, e)
        lhs = cov.entries.T * (precoded.conj().T @ precoded)
        rhs = np.diag(e.conj()) @ effective_difference(cov, pre.matrix).matrix @ np.diag(e)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * np.max(np.abs(rhs)))

    for trial in range(100):  # block-fading eigen multiset union
        e = rng.standard_normal((mt, 4)) + 1j * rng.standard_normal((mt, 4))
        cov = build_covariance(BlockFading(2, 2), 4)
        eff = effective_difference(cov, e)
        union = []
        for b in range(2):
            sub = e[:, 2 * b:2 * b + 2]
            union.append(np.linalg.eigvalsh(sub.conj().T @ sub))
        union = np.sort(np.concatenate(union))
        assert np.allclose(union, eff.eigvals, rtol=1e-10,
                           atol=1e-10 * max(1.0, union[-1]))

    for trial in range(100):  # block-circulant rank identity, integer-exact
        taps = (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
        bc = build_block_circulant(taps, 4)
        assert numerical_rank(bc.full) == 4 * bc.corner_rank

    for trial in range(100):  # scalar congruence sandwich
        cov = _unit_diag_cov(spawn_rng(1304, trial), 5, int(1 + trial % 5))
        e = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        eig = np.linalg.eigvalsh(effective_difference(cov, e[None, :]).matrix)
        base = np.zeros(5)
        base[5 - cov.rank:] = cov.eigvals
        lo, hi = np.min(np.abs(e) ** 2), np.max(np.abs(e) ** 2)
        assert np.all(eig >= lo * base - 1e-10 * max(1.0, hi))
        assert np.all(eig <= hi * base + 1e-10 * max(1.0, hi * base[-1]))

    _verdict("criterion-4 identity-suite", True, "6 identities x 100 instances")


def test_criterion_5_jensen_ordering():
    models = [
        (Flat(), 4), (Fast(), 4), (BlockFading(2, 2), 4),
        (CyclicIsi(2, (1.0, 0.7)), 4),
        (TimeFrequency(ScatteringSpec.from_normalized(0.5, 0.5, 3, 4)), 12),
    ]
    antenna_pairs = [(2, 2), (1, 2), (3, 2)]
    for model, n in models:
        cov = build_covariance(model, n)
        for mt, mr in antenna_pairs:
            dims = ChannelDims(mt, mr, n)
            rng = spawn_rng(1005, n, dims.num_tx, dims.num_rx)
            for _ in range(10_000 // len(antenna_pairs) + 1):
                real = sample_channel(cov, dims, rng)
                full = mutual_information(real, 15.0)
                jensen = jensen_mutual_information(real, 15.0)
                if jensen < full - 1e-10:
                    _verdict("criterion-5 jensen-ordering", False,
                             f"violation for {model!r}")

    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    dims = ChannelDims(2, 2, 4)
    for snr_db in (5.0, 10.0, 15.0):
        point = SnrPoint(float(db_to_linear(snr_db)), ScalingRate(0.8))
        full = outage_curve(cov, dims, [point], bound="full", trials=100_000,
                            master_seed=1505, min_events=None)[0]
        jensen = outage_curve(cov, dims, [point], bound="jensen", trials=100_000,
                              master_seed=1505, min_events=None)[0]
        slack = (full.ci_high - full.ci_low) + (jensen.ci_high - jensen.ci_low)
        if jensen.probability > full.probability + slack:
            _verdict("criterion-5 jensen-ordering", False, f"outage at {snr_db} dB")
    _verdict("criterion-5 jensen-ordering", True,
             "5 models x 10k draws; outage ordering on 3-point grid")


def test_criterion_6a_siso_flat_slope():
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(1, 1, 1)
    rate = FixedRate(np.log(2.0))
    curve = []
    for snr_db in (10.0, 15.0, 20.0, 25.0, 30.0):
        point = SnrPoint(float(db_to_linear(snr_db)), rate)
        est = outage_curve(cov, dims, [point], trials=1_000_000,
                           master_seed=1600 + int(snr_db), min_events=None)[0]
        curve.append((point.snr, est.probability))
    slope, err = fit_diversity_slope(curve, (10.0, 30.0))
    _verdict("criterion-6a siso-flat-slope", 0.85 <= slope <= 1.15,
             f"slope {slope:.4f} +- {err:.4f} (1e6 trials/point)")


def test_criterion_6b_siso_isi_slope():
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    dims = ChannelDims(1, 1, 4)
    rate = FixedRate(np.log(2.0))
    curve = []
    for snr_db in (10.0, 13.0, 16.0, 19.0, 22.0, 25.0):
        point = SnrPoint(float(db_to_linear(snr_db)), rate)
        est = outage_curve(cov, dims, [point], trials=2_000_000,
                           master_seed=1660 + int(snr_db), min_events=None)[0]
        curve.append((point.snr, est.probability))
    slope, err = fit_diversity_slope(curve, (10.0, 25.0))
    _verdict("criterion-6b siso-isi-slope", 1.7 <= slope <= 2.3,
             f"slope {slope:.4f} +- {err:.4f} (2e6 trials/point)")


def test_criterion_6c_mimo_flat_slope_windows():
    # The asymptotic diversity of the 2x2 flat channel at fixed rate is 4;
    # that value is NOT reachable at desk scale. Required instead: local
    # slopes increase across windows and the final window reaches >= 3.0.
    cov = build_covariance(Flat(), 1)
    dims = ChannelDims(2, 2, 1)
    rate = FixedRate(2 * np.log(2.0))
    curve = []
    for snr_db in (6.0, 8.0, 10.0, 12.0, 14.0, 16.0):
        point = SnrPoint(float(db_to_linear(snr_db)), rate)
        est = outage_curve(cov, dims, [point], trials=10_000_000,
                           master_seed=1690 + int(snr_db), min_events=None)[0]
        curve.append((point.snr, est.probability))
    slopes = [fit_diversity_slope(curve, win)[0]
              for win in ((6.0, 12.0), (8.0, 14.0), (10.0, 16.0))]
    monotone = all(a < b for a, b in zip(slopes, slopes[1:]))
    print("note: asymptotic diversity 4 of the 2x2 flat channel is not "
          "desk-reproducible; checking window trend instead")
    _verdict("criterion-6c mimo-flat-slope-windows",
             monotone and slopes[-1] >= 3.0,
             f"window slopes {[round(s, 3) for s in slopes]} (1e7 trials/point)")


def test_criterion_7_pep_bound():
    rng = spawn_rng(1007)
    model_pool = [
        (Flat(), 3), (Fast(), 3), (BlockFading(2, 2), 4),
        (CyclicIsi(2, (1.0, 0.5)), 4),
    ]
    worst_rel = 0.0
    for trial in range(10):
        model, n = model_pool[trial % len(model_pool)]
        cov = build_covariance(model, n)
        mt = int(rng.integers(1, 3))
        mr = int(rng.integers(1, 3))
        dims = ChannelDims(mt, mr, n)
        e = 0.5 * (rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n)))
        snr = float(rng.uniform(1.0, 12.0))
        closed = pep_chernoff(cov, e, snr, mr).value
        sampled = pep_monte_carlo(cov, e, snr, dims, trials=1_000_000,
                                  master_seed=1700 + trial)
        worst_rel = max(worst_rel, abs(sampled - closed) / closed)

    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    e = 0.4 * (spawn_rng(1707).standard_normal((2, 4))
               + 1j * spawn_rng(1708).standard_normal((2, 4)))
    values = [pep_chernoff(cov, e, snr, 2).value
              for snr in np.linspace(0.0, 100.0, 20)]
    monotone = all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    _verdict("criterion-7 pep-bound", worst_rel < 0.02 and monotone,
             f"worst MC relative error {worst_rel:.4f}; monotone={monotone}")


def test_criterion_8_composed_design_end_to_end():
    grid = [float(db_to_linear(db)) for db in (10.0, 20.0, 30.0, 40.0)]
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)

    for r in (0.5, 1.0):
        search = search_permutations(grid, r, 4, budget=800, master_seed=1008,
                                     epsilon=0.5)
        report = verify_composed_design(pre, search.codebook_at, cov, grid,
                                        epsilon=0.5, num_rx=2)
        if not report["passed"]:
            _verdict("criterion-8 composed-design", False,
                     f"searched outer code failed at r={r}: {report['per_snr']}")

    def repetition(snr):
        fam = qam_family(snr, 1.0)
        return permutation_codebook(fam, [range(len(fam))] * 4)

    rep_report = verify_composed_design(pre, repetition, cov, grid,
                                        epsilon=0.5, num_rx=2)
    rep_fails = not all(row["outer_passed"] for row in rep_report["per_snr"])

    bad_pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2, shifts=[0, 0])
    bad_report = verify_composed_design(bad_pre, repetition, cov, [grid[0]],
                                        epsilon=0.5, num_rx=2)
    dup_fails = not bad_report["rank"].passed

    _verdict("criterion-8 composed-design", rep_fails and dup_fails,
             "searched passes r in {0.5, 1}; repetition fails the entry-product "
             "check; duplicate shifts fail the rank check")


def test_criterion_9_determinism_across_workers():
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    dims = ChannelDims(2, 2, 4)
    point = SnrPoint(float(db_to_linear(10.0)), ScalingRate(1.0))
    outage = [outage_curve(cov, dims, [point], trials=80_000, master_seed=1009,
                           min_events=None, workers=w)[0] for w in (1, 4)]
    outer = permutation_codebook(qam_family(16.0, 0.5), [range(4)] * 4)
    book = Codebook(apply_precoder(classic_precoder("cdd", 2, 4, 2), outer.scalar_words),
                    outer.snr, outer.mux_rate)
    errors = [error_curve(cov, dims, book, (16.0,), trials=40_000, master_seed=1010,
                          workers=w)[0] for w in (1, 4)]
    ok = outage[0] == outage[1] and errors[0] == errors[1]
    _verdict("criterion-9 determinism", ok,
             f"outage {outage[0].probability:.6f}, error {errors[0].probability:.6f} "
             "identical for 1 and 4 workers")

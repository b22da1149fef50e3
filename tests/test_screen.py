"""The determinant screen of the pair criteria (``verify_rank_r0``,
``xi_metric`` / ``verify_dmt_criterion`` and ``worst_pep`` / ``dmtlab pep``)
against the dense sweep that eigensolves every pair: values, worst pairs,
failure lists and CSV bytes must be identical."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtlab import _util, cli, codes
from dmtlab.channel import (BlockFading, CovarianceMatrix, CyclicIsi, Fast, Flat,
                            ScatteringSpec, TimeFrequency, build_covariance)
from dmtlab.codes import Codebook, qam_family, verify_dmt_criterion, verify_rank_r0, xi_metric
from dmtlab.precoder import apply_precoder, classic_precoder, design_tf_shift_precoder
from dmtlab.sim import worst_pep

from _oracles import dense_rank_r0, dense_worst_pep, dense_xi


def _random_cov(rng, n, rho):
    # random rank-rho PSD, rescaled to the unit diagonal the type requires
    mat = rng.standard_normal((n, rho)) + 1j * rng.standard_normal((n, rho))
    raw = mat @ mat.conj().T
    scale = 1.0 / np.sqrt(np.real(np.diag(raw)))
    return CovarianceMatrix.from_entries(raw * np.outer(scale, scale))


def _random_code(rng):
    num, num_tx, n = rng.integers(2, 14), rng.integers(1, 3), rng.integers(1, 6)
    words = rng.standard_normal((num, num_tx, n)) + 1j * rng.standard_normal((num, num_tx, n))
    return 0.3 * words, _random_cov(rng, n, rng.integers(1, n + 1))


def _cdd_code(rng):
    # a CDD-precoded QAM permutation code: many pairs tie exactly
    fam = qam_family(float(rng.choice([4, 9, 16])), 1.0)
    perms = [np.arange(len(fam))] + [rng.permutation(len(fam)) for _ in range(3)]
    outer = np.stack([fam.points[p] for p in perms], axis=1)
    words = apply_precoder(classic_precoder("cdd", num_tx=2, n_slots=4, stride=2), outer)
    model = [CyclicIsi(2, (1.0, 1.0)), CyclicIsi(2, (1.0, 0.5)), BlockFading(2, 2),
             Flat(), Fast()][rng.integers(5)]
    return words, build_covariance(model, 4)


def _diagonal_code(rng):
    # words diag(x) over QAM points under flat fading: M = diag(|x_i - x_j|**2),
    # the xi bounds are tight at m = n and products of equal multisets tie
    n = int(rng.integers(2, 4))
    points = qam_family(16.0, 1.0).points
    words = np.zeros((int(rng.integers(4, 16)), n, n), complex)
    words[:, range(n), range(n)] = rng.choice(points, (len(words), n))
    return words, build_covariance(Flat(), n)


def _near_singular_code(rng):
    # word 0 is zero and word k = diag(sqrt(lam)) V^H for a random unitary V, so
    # pair (0, k) has eigenvalues lam: a smallest one within a few parts per
    # million of the rank tolerance, exactly zero or far below it
    n = int(rng.integers(2, 4))
    num = int(rng.integers(4, 16))
    words = np.zeros((num, n, n), complex)
    for k in range(1, num):
        lam = np.ones(n)
        lam[0] = rng.choice([_util.RANK_TOL_FACTOR * n * (1 + rng.uniform(-3e-6, 3e-6)),
                             0.0, 1e-13, 1e-6])
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        words[k] = 0.5 * np.sqrt(lam)[:, None] * np.linalg.qr(gauss)[0].conj().T
    return words, build_covariance(Flat(), n)


def _single_antenna_code(rng):
    # scalar words: every slot spans one dimension, so the screen reads the
    # slot distances; a covariance of rank below n takes the dense sweep
    num, n = rng.integers(2, 14), rng.integers(1, 6)
    words = rng.standard_normal((num, 1, n)) + 1j * rng.standard_normal((num, 1, n))
    return 0.3 * words, _random_cov(rng, n, rng.integers(max(1, n - 1), n + 1))


_TF_SPEC = ScatteringSpec.from_normalized(0.5, 0.5, 2, 2)


def _precoded_code(rng, rows=None):
    # QAM permutation (tying pairs) or random outer words under a
    # phase-rolling, TF-shift or CDD precoder of ``rows``, over a covariance
    # whose diagonal may vary by 1e-10
    if rows is None:
        kind = ["phase-rolling", "tf"][rng.integers(2)]
        pre = (design_tf_shift_precoder(_TF_SPEC, 2) if kind == "tf"
               else classic_precoder(kind, num_tx=2, n_slots=4, stride=2))
        rows = pre.matrix
    if rng.integers(2):
        fam = qam_family(float(rng.choice([4, 9, 16])), 1.0)
        outer = np.stack([fam.points[rng.permutation(len(fam))] for _ in range(4)], axis=1)
    else:
        num = rng.integers(2, 14)
        outer = 0.3 * (rng.standard_normal((num, 4)) + 1j * rng.standard_normal((num, 4)))
    model = [CyclicIsi(2, (1.0, 0.5)), BlockFading(2, 2), TimeFrequency(_TF_SPEC), Flat(),
             Fast()][rng.integers(5)]
    entries = build_covariance(model, 4).entries
    if rng.integers(2):
        tilt = 1 + rng.uniform(-5e-11, 5e-11, 4)
        entries = entries * np.outer(tilt, tilt)
    return rows * outer[:, None, :], CovarianceMatrix.from_entries(entries)


def _duplicate_shift_code(rng):
    # CDD with one shift on both antennas: K = R^T o P^H P is singular, so no
    # determinant bound certifies a pair
    return _precoded_code(rng, classic_precoder("cdd", num_tx=2, n_slots=4, stride=2,
                                                shifts=[1, 1]).matrix)


def _constant_slot_code(rng):
    # one slot sends the same symbol in every word: every pair's effective
    # difference is singular
    words, cov = _cdd_code(rng)
    slot = rng.integers(4)
    words[:, :, slot] = words[:1, :, slot]
    return words, cov


def _tilted_code(rng):
    # a 16-word CDD-precoded code with word 0 moved off its slot's line by
    # 2**-43 (above the span tolerance: the dense sweep) or 2**-47 (below
    # it: the slot distances) of its norm
    fam = qam_family(16.0, 1.0)
    rows = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2).matrix
    words = rows * np.stack([fam.points[rng.permutation(16)] for _ in range(4)], axis=1)[:, None]
    tilt, dims = [(2.0 ** -43, 2), (2.0 ** -47, 1)][rng.integers(2)]
    slot = rng.integers(4)
    off = np.array([-rows[1, slot].conj(), rows[0, slot].conj()])  # orthogonal to the line
    words[0, :, slot] += tilt * np.linalg.norm(words[0, :, slot]) * off / np.linalg.norm(off)
    assert codes._slot_spans(np.swapaxes(words, 1, 2))[1].shape[-1] == dims
    model = [CyclicIsi(2, (1.0, 0.5)), BlockFading(2, 2), TimeFrequency(_TF_SPEC),
             Fast()][rng.integers(4)]
    return words, build_covariance(model, 4)


_FAMILIES = {"random": _random_code, "cdd": _cdd_code, "diagonal": _diagonal_code,
             "near-singular": _near_singular_code, "single-antenna": _single_antenna_code,
             "precoded": _precoded_code, "duplicate-shift": _duplicate_shift_code,
             "constant-slot": _constant_slot_code, "tilted": _tilted_code}


def _both(fn, oracle, *args):
    """(screened, dense) results, or the messages of the errors both raise."""
    try:
        return fn(*args), oracle(*args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            oracle(*args)
        return None, None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(_FAMILIES)), seed=st.integers(0, 2 ** 32 - 1),
       duplicates=st.integers(0, 2), num_rx=st.integers(1, 3), small_batches=st.booleans(),
       snr_db=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=10))
def test_screen_matches_dense_sweep(tmp_path_factory, family, seed, duplicates, num_rx,
                                    small_batches, snr_db):
    rng = np.random.default_rng(seed)
    words, cov = _FAMILIES[family](rng)
    for _ in range(duplicates):  # zero differences: NaN bounds
        words[rng.integers(len(words))] = words[rng.integers(len(words))]
    book = Codebook(words=words, snr=100.0, mux_rate=0.5)
    snr_db = sorted(snr_db)
    snrs = [10.0 ** (db / 10.0) for db in snr_db]
    with pytest.MonkeyPatch.context() as mp:
        if small_batches:  # three pairs a batch
            mp.setattr(_util, "BATCH_BUDGET", 6 * words.shape[-1] ** 2)

        screened, dense = _both(verify_rank_r0, dense_rank_r0, book, cov)
        assert screened == dense

        screened, dense = _both(xi_metric, dense_xi, book, cov, num_rx)
        if screened is not None:
            assert (screened.value, screened.pair) == (dense.value, dense.pair)
            args = (lambda snr: book, cov, [1e3, 1e4], 0.5, num_rx)
            report = verify_dmt_criterion(*args)
            mp.setattr(codes, "xi_metric", dense_xi)
            assert report == verify_dmt_criterion(*args)

        screened, dense = _both(worst_pep, dense_worst_pep, book, cov, snrs, num_rx)
        assert screened == dense
        path = tmp_path_factory.mktemp("pep")
        (path / "book.json").write_text(json.dumps(book.to_json()))
        (path / "cov.json").write_text(json.dumps(cov.to_json()))
        code = cli.dispatch(["pep", "--codebook", str(path / "book.json"),
                             "--cov", str(path / "cov.json"), "--mr", str(num_rx),
                             "--snr-db", *map(repr, snr_db), "--out", str(path / "pep.csv")])
    if code == 0:
        dense = dense_worst_pep(Codebook.load(path / "book.json"),
                                CovarianceMatrix.load(path / "cov.json"), snrs, num_rx)
        cli.write_report({"columns": ["snr_db", "pep_bound"],
                          "rows": [list(row) for row in zip(snr_db, dense)]},
                         "csv", path / "dense.csv")
        assert (path / "pep.csv").read_bytes() == (path / "dense.csv").read_bytes()


def _benchmark_like_code(seed):
    """A 100-word CDD-precoded QAM permutation code over the rank-2 ISI
    covariance, like the benchmark's design_verify code."""
    rng = np.random.default_rng(seed)
    fam = qam_family(100.0, 1.0)
    outer = np.stack([fam.points] + [fam.points[rng.permutation(100)] for _ in range(3)],
                     axis=1)
    words = apply_precoder(classic_precoder("cdd", num_tx=2, n_slots=4, stride=2), outer)
    return (Codebook(words=words, snr=100.0, mux_rate=1.0),
            build_covariance(CyclicIsi(2, (1.0, 1.0)), 4))


def test_workload_scale_code_matches_dense_sweep():
    # the screen leaves a few pairs to solve and must still give the dense
    # answers bit for bit
    book, cov = _benchmark_like_code(721)
    assert verify_rank_r0(book, cov) == dense_rank_r0(book, cov)
    for num_rx in (1, 2):
        xi, dense = xi_metric(book, cov, num_rx), dense_xi(book, cov, num_rx)
        assert (xi.value, xi.pair) == (dense.value, dense.pair)
    snrs = [10.0 ** (db / 10.0) for db in range(0, 81, 10)]
    assert worst_pep(book, cov, snrs, 2) == dense_worst_pep(book, cov, snrs, 2)


def test_screen_eigensolves_few_pairs(monkeypatch):
    # the bounds settle nearly every pair of such a code; each eigvalsh call
    # counts its matrices, so _eig_slack's covariance counts one
    book, cov = _benchmark_like_code(5)
    solved, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    xi_metric(book, cov, 2)
    assert 0 < sum(solved) < 4950 // 20
    solved.clear()
    worst_pep(book, cov, [10.0 ** (db / 10.0) for db in range(0, 41, 5)], 2)
    assert 0 < sum(solved) < 4950 // 20


def test_screen_builds_few_pair_matrices(monkeypatch):
    # a precoded code's screen reads slot distances: only the pairs it
    # keeps get an n x n matrix
    book, cov = _benchmark_like_code(5)
    built, pair_matrices = [], codes._pair_matrices

    def counting(words, weight, ii, jj, bufs):
        built.append(len(ii))
        return pair_matrices(words, weight, ii, jj, bufs)

    monkeypatch.setattr(codes, "_pair_matrices", counting)
    snrs = [10.0 ** (db / 10.0) for db in range(0, 41, 5)]
    for sweep in (lambda: verify_rank_r0(book, cov), lambda: xi_metric(book, cov, 2),
                  lambda: worst_pep(book, cov, snrs, 2)):
        built.clear()
        sweep()
        assert sum(built) < 4950 // 20


@settings(max_examples=40, deadline=None, derandomize=True)
@given(family=st.sampled_from(["cdd", "diagonal", "single-antenna", "precoded", "tilted"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_span_terms_bound_the_computed_matrices(family, seed):
    # each term of the slot-distance screen against the matrix the dense
    # sweep computes: the diagonal within 2 eps, every eigenvalue within eps
    # of [lam_lo, top], and det_lo below the determinant those allow
    words, cov = _FAMILIES[family](np.random.default_rng(seed))
    weight, (_, num_tx, n) = cov.entries.T, words.shape
    basis, coords = codes._slot_spans(np.ascontiguousarray(np.swapaxes(words, 1, 2)))
    if coords.shape[-1] != 1:
        return
    slack = codes._eig_slack(weight, num_tx)
    for ii, jj, (diag, eps, top, det_lo, lam_lo) in codes._span_sweep(words, weight, basis,
                                                                     coords, slack):
        mat = codes._pair_matrices(words, weight, ii, jj,
                                   codes._pair_buffers(words, weight, len(ii)))
        eig = np.linalg.eigvalsh(mat)
        assert np.all(np.abs(np.diagonal(mat, axis1=1, axis2=2).real - diag) <= 2 * eps[:, None])
        assert np.all(eig[:, 0] >= lam_lo - eps) and np.all(eig[:, -1] <= top + eps)
        assert np.all(det_lo <= np.prod(np.maximum(eig + eps[:, None], 0.0), axis=-1))


def test_screened_eigs_keeps_open_pairs_in_order(monkeypatch):
    # scalar words under flat fading (rho * M_T = n = 1, so the screen
    # applies), two pairs a batch: (0, 1) (0, 2) | (0, 3) (1, 2) | (1, 3) (2, 3);
    # hand-written bounds (points, pairs) at two points
    monkeypatch.setattr(_util, "BATCH_BUDGET", 4)
    words = np.array([0.0, 0.1, 0.3, 0.6])[:, None, None]
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    nan, inf = np.nan, np.inf
    lows = iter([[[nan, 4.0], [9.0, 4.0]],  # (0, 1) NaN: solved; (0, 2) above the start, 3
                 [[1.0, 2.5], [1.0, 4.0]],  # (1, 2) above the 2 of (0, 3)'s upper bound
                 [[5.0, 2.5], [1.5, 2.5]]])  # (1, 3) below it at the second point only
    ups = iter([[[5.0, 5.0], [5.0, 5.0]], [[2.0, 3.0], [2.0, 5.0]], [[inf, inf]] * 2])

    def bounds(diag, eps, top, det_lo, lam_lo):
        assert diag.shape == (2, 1)
        return np.array(next(lows)), np.array(next(ups))

    out = list(codes.screened_eigs(book, build_covariance(Flat(), 1), bounds, [3.0, 3.0]))
    ii, jj, eig = (np.concatenate(part) for part in zip(*out))
    assert list(zip(ii.tolist(), jj.tolist())) == [(0, 1), (0, 3), (1, 3)]
    assert np.array_equal(eig, codes.pair_eigvals(words, np.ones((1, 1)), ii, jj))
    assert next(lows, None) is None

    # rho * M_T < n: the dense sweep, every pair in np.triu_indices order
    words = 0.15 * np.arange(8.0).reshape(4, 1, 2)
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    out = list(codes.screened_eigs(book, build_covariance(Flat(), 2), None, [3.0]))
    ii, jj, eig = (np.concatenate(part) for part in zip(*out))
    assert [ii.tolist(), jj.tolist()] == [k.tolist() for k in np.triu_indices(4, 1)]
    assert np.array_equal(eig, codes.pair_eigvals(words, np.ones((2, 2)), ii, jj))

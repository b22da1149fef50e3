import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmtlab import _util, codes
from dmtlab.channel import (
    BlockFading,
    CyclicIsi,
    Fast,
    Flat,
    ScatteringSpec,
    TimeFrequency,
    build_covariance,
)
from dmtlab.codes import (
    Codebook,
    criterion_threshold,
    distance_strips,
    effective_difference,
    pair_chunks,
    pair_eigvals,
    pairwise_min_products,
    permutation_codebook,
    qam_family,
    search_permutations,
    structural_count,
    verify_dmt_criterion,
    verify_rank_r0,
    xi_metric,
)
from dmtlab.precoder import (apply_precoder, classic_precoder, design_tf_shift_precoder,
                             verify_composed_design)
from dmtlab._util import complex_normal, spawn_rng, unitary_fft

from _oracles import (block_fading_check, cyclic_shift_matrix, delta_decomposition,
                      float_best_candidate, gather_min_products, min_entry_criterion,
                      numerical_rank, psd_root, sorted_pair_distances, stacked_isi_difference)


def _scalar_codebook(words, snr=10.0, r=0.0):
    return Codebook(words=np.asarray(words, dtype=complex)[:, None, :], snr=snr, mux_rate=r)


def _random_cov(rng, n, rho):
    # random rank-rho PSD, rescaled to the unit diagonal the type requires
    mat = rng.standard_normal((n, rho)) + 1j * rng.standard_normal((n, rho))
    raw = mat @ mat.conj().T
    scale = 1.0 / np.sqrt(np.real(np.diag(raw)))
    from dmtlab.channel import CovarianceMatrix
    return CovarianceMatrix.from_entries(raw * np.outer(scale, scale))


# -- QAM families ------------------------------------------------------------

def test_qam_zero_rate_single_point():
    fam = qam_family(100.0, 0.0)
    assert len(fam) == 1
    assert fam.points[0] == 0.0


def test_qam_sixteen_point_geometry():
    fam = qam_family(16.0, 1.0)
    assert fam.per_dim == 4
    assert len(fam) == 16
    assert fam.scale ** 2 == pytest.approx(2.0 / 16.0)
    # minimum pairwise distance achieves the declared value
    worst = pairwise_min_products(fam.points[:, None], 1)
    assert worst.value == pytest.approx(0.125)
    assert np.max(np.abs(fam.points) ** 2) == pytest.approx(0.5625)


@pytest.mark.parametrize("snr, r", [(float("inf"), 1.0), (float("nan"), 1.0),
                                    (100.0, float("inf")), (100.0, float("nan"))])
def test_qam_rejects_non_finite_inputs(snr, r):
    with pytest.raises(ValueError, match="finite"):
        qam_family(snr, r)


def test_qam_points_stay_in_unit_disk():
    rng = spawn_rng(21)
    for _ in range(30):
        snr = float(rng.uniform(1, 10_000))
        r = float(rng.uniform(0, 2))
        fam = qam_family(snr, r)
        assert np.max(np.abs(fam.points)) <= 1.0 + 1e-12


# -- permutation codebooks ---------------------------------------------------

def test_identity_permutation_code_repeats_symbol():
    fam = qam_family(16.0, 1.0)
    code = permutation_codebook(fam, [range(16), range(16)])
    assert code.words.shape == (16, 1, 2)
    assert np.allclose(code.scalar_words[:, 0], code.scalar_words[:, 1])


def test_permutation_code_all_entries_nonzero():
    fam = qam_family(16.0, 0.5)
    rng = spawn_rng(22)
    perms = [rng.permutation(len(fam)) for _ in range(2)]
    code = permutation_codebook(fam, perms)
    words = code.scalar_words
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            assert np.all(np.abs(words[i] - words[j]) > 0)


def test_permutation_code_rejects_non_bijection():
    fam = qam_family(4.0, 1.0)
    with pytest.raises(ValueError):
        permutation_codebook(fam, [[0, 0, 1, 2], range(4)])


def test_pairwise_min_products_matches_double_loop(monkeypatch):
    rng = spawn_rng(23)
    words = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    best = {3: (np.inf, None), 2: (np.inf, None), 1: (np.inf, None)}
    for i in range(7):
        for j in range(i + 1, 7):
            diff = words[i] - words[j]
            d2 = np.sort(diff.real ** 2 + diff.imag ** 2)
            for m, value in ((3, d2.prod()), (2, d2[:2].prod()), (1, d2[0])):
                if value < best[m][0]:
                    best[m] = (value, (i, j))
    for budget in (8_000_000, 14):  # one batch; two pairs a batch
        monkeypatch.setattr(_util, "BATCH_BUDGET", budget)
        for m in (3, 2, 1):  # full product, two smallest, smallest entry
            worst = pairwise_min_products(words, m)
            assert (worst.value, worst.pair) == best[m]
        assert pairwise_min_products(words, 4) == pairwise_min_products(words, 3)
    with pytest.raises(ValueError, match="m must be"):
        pairwise_min_products(words, 0)


def sweep_words(kind, num, slots):
    """Scalar words for the strip-kernel tests: complex normals, or the first
    ``num`` words of a permutation code on the 10 x 10 QAM grid, whose
    lattice differences tie exactly."""
    rng = spawn_rng(61, num, slots)
    if kind == "random":
        return rng.standard_normal((num, slots)) + 1j * rng.standard_normal((num, slots))
    fam = qam_family(100.0, 1.0)
    perms = [rng.permutation(len(fam)) for _ in range(slots)]
    return permutation_codebook(fam, perms).scalar_words[:num]


_STRIP_CASES = [(kind, num, slots) for kind in ("random", "lattice")
                for num in (2, 3, 17, 100) for slots in (1, 2, 4)]


@pytest.mark.parametrize("budget", [None, 1])  # the default; one-row strips
@pytest.mark.parametrize("kind, num, slots", _STRIP_CASES)
def test_strip_sweeps_match_gather_kernel(monkeypatch, budget, kind, num, slots):
    if budget is not None:
        monkeypatch.setattr(_util, "BATCH_BUDGET", budget)
    words = sweep_words(kind, num, slots)
    ii, jj = np.triu_indices(num, 1)
    # the pair cells of the strips, in C order, are the gathered pairs
    cells = []
    for rows, cols, dist2, below in distance_strips(words):
        pair = np.ones(dist2.shape[1:], dtype=bool)
        pair[below] = False
        assert budget is None or dist2.shape[1] == 1
        cells.append((np.broadcast_to(rows, pair.shape)[pair],
                      np.broadcast_to(cols, pair.shape)[pair], dist2[:, pair]))
    rows, cols, dist2 = (np.concatenate(part, axis=-1) for part in zip(*cells))
    assert np.array_equal(rows, ii) and np.array_equal(cols, jj)
    assert dist2.tobytes() == sorted_pair_distances(words, ii, jj).tobytes()
    for m in sorted({1, 2, slots}):
        worst = pairwise_min_products(words, m)
        assert worst == gather_min_products(words, m)
        assert type(worst.value) is float and type(worst.pair[0]) is int


def test_lattice_sweep_words_tie_exactly():
    # the lattice cases above exercise the tie-breaking between exact ties:
    # the smallest slot distance is reached by many pairs
    for num in (17, 100):
        words = sweep_words("lattice", num, 4)
        smallest = sorted_pair_distances(words, *np.triu_indices(num, 1))[0]
        assert np.count_nonzero(smallest == smallest.min()) > 1


@pytest.mark.parametrize("num", [0, 1, 2, 5, 17])
@pytest.mark.parametrize("per_pair", [1, 2, 3, 7, 100])
def test_pair_chunks_follow_triu_order(monkeypatch, num, per_pair):
    monkeypatch.setattr(_util, "BATCH_BUDGET", 7)
    chunks = list(pair_chunks(num, per_pair))
    assert all(0 < ii.size <= max(1, 7 // per_pair) for ii, _ in chunks)
    ii = np.concatenate([c[0] for c in chunks]) if chunks else np.empty(0, int)
    jj = np.concatenate([c[1] for c in chunks]) if chunks else np.empty(0, int)
    ref_i, ref_j = np.triu_indices(num, 1)
    assert np.array_equal(ii, ref_i) and np.array_equal(jj, ref_j)


_KERNEL_COVS = {
    "flat": Flat(),
    "block": BlockFading(2, 2),
    "isi": CyclicIsi(2, (1.0, 0.5)),
    "tf": TimeFrequency(ScatteringSpec.from_normalized(0.5, 0.5, 2, 2)),
}


@pytest.mark.parametrize("model", sorted(_KERNEL_COVS))
@pytest.mark.parametrize("num_tx", [1, 2])
def test_pair_sweeps_match_per_pair_oracle(monkeypatch, model, num_tx):
    # a budget of 80 real entries puts two 4x4 pairs in a batch, so every
    # sweep crosses many batch boundaries
    monkeypatch.setattr(_util, "BATCH_BUDGET", 80)
    n, num = 4, 9
    cov = build_covariance(_KERNEL_COVS[model], n)
    rng = spawn_rng(47)
    words = 0.3 * (rng.standard_normal((num, num_tx, n))
                   + 1j * rng.standard_normal((num, num_tx, n)))
    words[3] = words[0]  # a zero difference: rank 0 and a zero product
    words[5, :, 1] = words[1, :, 1]  # a difference with a zero slot
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)

    pairs = [(i, j) for i in range(num) for j in range(i + 1, num)]
    dense = {p: effective_difference(cov, words[p[0]] - words[p[1]]) for p in pairs}
    batched = np.concatenate([pair_eigvals(words, cov.entries.T, ii, jj)
                              for ii, jj in pair_chunks(num, n * n)])
    for (i, j), eig in zip(pairs, batched):
        ref = dense[(i, j)].eigvals
        assert np.max(np.abs(eig - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300)

    keep = cov.rank * num_tx
    if keep > n:
        return  # the rank and xi criteria need rank * num_tx <= block_len
    report = verify_rank_r0(book, cov)
    failures = [{"pair": list(p), "rank": dense[p].rank}
                for p in pairs if dense[p].rank != keep]
    assert report["failure_count"] == len(failures)
    assert report["failures"] == failures
    assert report["passed"] == (not failures)

    # xi without the repeated word, whose zero product would tie with round-off
    distinct = [p for p in pairs if 3 not in p]
    book = Codebook(words=np.delete(words, 3, axis=0), snr=10.0, mux_rate=0.0)
    m = min(num_tx, 2)
    prods = [dense[p].eigvals[n - keep:n - keep + m].prod() for p in distinct]
    k = int(np.argmin(prods))
    xi = xi_metric(book, cov, 2)
    assert xi.pair == tuple(i - (i > 3) for i in distinct[k])
    assert xi.value == pytest.approx(prods[k], rel=1e-12)


# -- permutation search ------------------------------------------------------

def test_search_two_point_family_is_exhaustive_optimum():
    # snr, r chosen so the family has exactly 2 points per dimension = 4...
    # use r small so per_dim rounds to 2 -> but exhaustive cap needs tiny size;
    # force a 2-point-per-dim family via snr=4, r=1 (per_dim=2, 4 points).
    search = search_permutations([4.0], 1.0, 2, budget=10, master_seed=0)
    entry = search.entries[0]
    assert entry.method == "exhaustive"
    fam = qam_family(4.0, 1.0)
    # brute-force oracle over every pair of permutations
    import itertools
    best = -np.inf
    for p0 in itertools.permutations(range(4)):
        for p1 in itertools.permutations(range(4)):
            words = np.stack([fam.points[list(p0)], fam.points[list(p1)]], axis=1)
            best = max(best, pairwise_min_products(words, 2).value)
    assert entry.min_product == pytest.approx(best, rel=1e-12)


def _random_affine(per_dim, rng):
    # one map at a time, one rng.integers call per 4 or 2 values: the oracle
    # of the batched codes._random_affines
    while True:
        a, b, c, d = (int(v) for v in rng.integers(0, per_dim, 4))
        if math.gcd((a * d - b * c) % per_dim, per_dim) == 1:
            s, u = (int(v) for v in rng.integers(0, per_dim, 2))
            return (a, b, c, d, s, u)


@pytest.mark.parametrize("q", [2, 3, 5, 10, 32])
@pytest.mark.parametrize("count", [1, 7, 2400])
def test_batched_affine_draw_matches_per_map_loop(q, count):
    loop_rng, batch_rng = spawn_rng(31, q, count), spawn_rng(31, q, count)
    expected = [_random_affine(q, loop_rng) for _ in range(count)]
    maps = codes._random_affines(q, count, batch_rng)
    assert maps.shape == (count, 6)
    assert [tuple(int(v) for v in row) for row in maps] == expected
    # the generator is left where the loop leaves it
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
    assert np.array_equal(batch_rng.permutation(q * q), loop_rng.permutation(q * q))
    assert np.array_equal(batch_rng.integers(0, q, 9), loop_rng.integers(0, q, 9))


@pytest.mark.parametrize("elements", [4_000_000, 300])
def test_torus_screen_matches_per_candidate_loop(monkeypatch, elements):
    # 300 complex elements (600 real entries) score 3 candidates of a 5x5
    # grid per batch
    monkeypatch.setattr(_util, "BATCH_BUDGET", 2 * elements)
    rng = spawn_rng(29)
    q, slots = 5, 4
    maps = [[(1, 0, 0, 1, 0, 0)] + [_random_affine(q, rng) for _ in range(slots - 1)]
            for _ in range(20)]
    two_small, full = codes._torus_bound_score(maps, q)
    da, db = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    for k, cand in enumerate(maps):
        dist = []
        for a, b, c, d, _, _ in cand:
            va, vb = (a * da + b * db) % q, (c * da + d * db) % q
            dist.append(np.minimum(va, q - va) ** 2 + np.minimum(vb, q - vb) ** 2)
        dist = np.sort(np.stack(dist).reshape(slots, -1)[:, 1:].astype(float), axis=0)
        assert two_small[k] == (dist[0] * dist[1]).min()
        assert full[k] == dist.prod(axis=0).min()


@pytest.mark.parametrize("r, grid_db", [(0.5, (10.0, 20.0, 30.0, 40.0)),
                                         (1.0, (10.0, 20.0, 30.0))])
def test_search_is_chunk_invariant(monkeypatch, r, grid_db):
    # criterion 8's search; at r = 1 the grid stops at 30 dB, because at 600
    # real entries a batch the 10 000-word sweep of 40 dB takes minutes
    grid = [10.0 ** (db / 10.0) for db in grid_db]
    results = []
    for budget in (8_000_000, _util.BATCH_BUDGET, 600):
        monkeypatch.setattr(_util, "BATCH_BUDGET", budget)
        search = search_permutations(grid, r, 4, budget=800, master_seed=1008,
                                     epsilon=0.5)
        results.append([(e.perms, e.min_product, e.worst_pair, e.method)
                        for e in search.entries])
    assert results[0] == results[1] == results[2]


def _oracle_search(grid, r, n_slots, **kwargs):
    """``search_permutations`` with the per-candidate float loop it replaced."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes, "_best_candidate", float_best_candidate)
        return search_permutations(grid, r, n_slots, **kwargs).entries


@pytest.mark.parametrize("r", [0.5, 1.0])
def test_search_equals_float_oracle_on_criterion_8_grids(r):
    # criterion 8's search, up to the 10 000-word code of 40 dB at r = 1
    grid = [10.0 ** (db / 10.0) for db in (10.0, 20.0, 30.0, 40.0)]
    kwargs = dict(budget=800, master_seed=1008, epsilon=0.5)
    assert search_permutations(grid, r, 4, **kwargs).entries == _oracle_search(grid, r, 4, **kwargs)


def test_search_equals_float_oracle_on_the_largest_exhaustive_family():
    # 4 words over 3 slots: all 13 824 slot maps, each tied with the
    # relabelings of its own code
    kwargs = dict(budget=5, master_seed=3, epsilon=0.5)
    entries = search_permutations([4.0], 1.0, 3, **kwargs).entries
    assert entries[0].method == "exhaustive"
    assert entries == _oracle_search([4.0], 1.0, 3, **kwargs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(snr_r=st.sampled_from([(4.0, 1.0), (10.0, 1.0), (16.0, 1.0), (30.0, 1.0),
                              (100.0, 0.5), (1000.0, 0.5), (100.0, 1.0)]),
       n_slots=st.integers(2, 5), budget=st.integers(1, 64), seed=st.integers(0, 2 ** 16),
       batch_budget=st.sampled_from([None, 64]))
def test_search_entries_equal_float_oracle(snr_r, n_slots, budget, seed, batch_budget):
    # families of 4 to 100 words, exhaustive (4 words, 2 slots) or affine
    # and random candidates, with one-row strips and one-candidate screen
    # batches at a tiny budget
    snr, r = snr_r
    assume((snr, n_slots) != (4.0, 3))  # 13 824 exhaustive candidates: a test of its own
    with pytest.MonkeyPatch.context() as patch:
        if batch_budget is not None:
            patch.setattr(_util, "BATCH_BUDGET", batch_budget)
        kwargs = dict(budget=budget, master_seed=seed, epsilon=0.5)
        assert (search_permutations([snr], r, n_slots, **kwargs).entries
                == _oracle_search([snr], r, n_slots, **kwargs))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(q=st.integers(2, 7), slots=st.integers(2, 5), count=st.integers(1, 12),
       seed=st.integers(0, 2 ** 16), data=st.data(),
       batch_budget=st.sampled_from([None, 64, 2000]), wide=st.booleans())
def test_best_candidate_equals_float_oracle_on_exact_ties(q, slots, count, seed, data,
                                                          batch_budget, wide):
    # candidates that repeat an earlier one, relabel its words (the same
    # code, so the same float minimum at other pairs) or repeat the grid in
    # every slot: the winner is the first of the equal float minima; in
    # int16 or in the int32 of grids above q = 128
    fam = qam_family(float(q * q), 1.0)
    rng = spawn_rng(83, seed)
    size = len(fam)
    perms = np.stack([np.stack([rng.permutation(size) for _ in range(slots)])
                      for _ in range(count)])
    for k in range(count):
        kind = data.draw(st.sampled_from(["fresh", "repeat", "relabel", "grid"]))
        if kind == "grid":
            perms[k] = np.arange(size)
        elif k and kind != "fresh":
            earlier = perms[data.draw(st.integers(0, k - 1))]
            perms[k] = earlier[:, rng.permutation(size)] if kind == "relabel" else earlier
    m = data.draw(st.integers(1, slots))
    with pytest.MonkeyPatch.context() as patch:
        if batch_budget is not None:
            patch.setattr(_util, "BATCH_BUDGET", batch_budget)
        if wide:
            patch.setattr(codes, "_lattice_dtype", lambda per_dim: np.int32)
        assert codes._best_candidate(fam, perms, m) == float_best_candidate(fam, perms, m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(snr=st.floats(4.0, 1e4), r=st.sampled_from([0.5, 1.0]), slots=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_lattice_margin_bounds_the_float_products(snr, r, slots, seed, data):
    # the float product of the m smallest squared slot distances of a pair
    # is s**(2m) times the kernel product within eps = (w - 1) / 8, exactly
    fam = qam_family(snr, r)
    q = fam.per_dim
    x = np.arange(q) - (q - 1) / 2.0
    assert np.array_equal(fam.points.reshape(q, q).real,
                          np.broadcast_to(fam.scale * x[:, None], (q, q)))
    rng = spawn_rng(89, seed)
    perms = rng.integers(0, len(fam), (1, slots, 2))  # one pair of words
    if data.draw(st.booleans()):  # neighbors at the edge of the grid
        perms[0, :, 0] = rng.integers(0, q, slots) * q + q - 1
        perms[0, :, 1] = np.maximum(perms[0, :, 0] - 1, 0)
    m = data.draw(st.integers(1, slots))
    coords = np.stack(np.divmod(perms.astype(np.int16).transpose(1, 0, 2), q))
    bufs = np.empty(4 * slots, np.int16), np.empty(4)
    kernel = codes._lattice_products(coords, m, 0, 1, bufs)[0, 0, 0]
    value = pairwise_min_products(codes._slot_words(fam.points, perms[0]), m).value
    assert kernel == int(kernel) and (value == 0) == (kernel == 0)
    exact = Fraction(fam.scale) ** (2 * m) * int(kernel)
    eps = (codes._lattice_margin(q, m) - 1) / 8
    assert abs(Fraction(value) - exact) <= Fraction(eps) * exact


@pytest.mark.parametrize("r, grid_db", [(0.5, (10.0, 20.0, 30.0)), (1.0, (10.0, 20.0))])
def test_search_early_exit_keeps_entries(monkeypatch, r, grid_db):
    # the screen drops candidates proven to lose and the best-first sweep
    # skips or stops them; with every screen bound forced to +inf none is
    # dropped, skipped or stopped: the entries are the same, and with the
    # screen on fewer candidates are swept or evaluated in float
    grid = [10.0 ** (db / 10.0) for db in grid_db]
    screen, sweep, winner, work = codes._screen, codes._lattice_sweep, codes._float_winner, []

    def counting_sweep(*args):
        work.append(1)
        return sweep(*args)

    def counting_winner(points, perms, kk, *args):
        work.append(len(np.unique(kk)))
        return winner(points, perms, kk, *args)

    def search(on):
        def forced(*args):
            bound, cells = screen(*args)
            return (bound if on else np.full_like(bound, np.inf)), cells
        monkeypatch.setattr(codes, "_screen", forced)
        work.clear()
        found = search_permutations(grid, r, 4, budget=800, master_seed=1008, epsilon=0.5)
        return found.entries, sum(work)

    monkeypatch.setattr(codes, "_lattice_sweep", counting_sweep)
    monkeypatch.setattr(codes, "_float_winner", counting_winner)
    (on, work_on), (off, work_off) = search(True), search(False)
    assert on == off
    assert work_on < work_off


@pytest.mark.parametrize("n_slots", [0, -1, 1.5, 2.0])
def test_search_rejects_slot_counts_other_than_positive_integers(n_slots):
    # a 0-slot search would list all size! permutations of the family
    with pytest.raises(ValueError, match="n_slots"):
        search_permutations([100.0], 1.0, n_slots, budget=5)


def test_search_single_slot_reports_min_distance():
    search = search_permutations([16.0], 1.0, 1, budget=5, master_seed=0)
    entry = search.entries[0]
    assert entry.min_product == pytest.approx(qam_family(16.0, 1.0).scale ** 2)


def test_search_meets_threshold_example():
    search = search_permutations([16.0], 1.0, 2, budget=400, master_seed=1, epsilon=0.5)
    entry = search.entries[0]
    assert entry.min_product >= criterion_threshold(16.0, 1.0, 0.5)
    assert entry.passes
    code = search.codebook_at(16.0)
    assert code.words.shape == (16, 1, 2)


def test_searched_codebook_feeds_the_criteria():
    # codebook_at returns a single-antenna Codebook, so the search result
    # goes straight into the criteria, with the rows of the codebook built
    # by hand from the recorded slot permutations
    grid = [16.0, 64.0]
    search = search_permutations(grid, 1.0, 2, budget=50, master_seed=3, epsilon=0.5)

    def explicit(snr):
        entry = next(e for e in search.entries if e.snr == snr)
        fam = qam_family(snr, 1.0)
        words = np.stack([fam.points[np.asarray(perm)] for perm in entry.perms], axis=1)
        return _scalar_codebook(words, snr=snr, r=1.0)

    assert all(isinstance(search.codebook_at(snr), Codebook) for snr in grid)
    assert (min_entry_criterion(search.codebook_at, grid, 0.5)
            == min_entry_criterion(explicit, grid, 0.5))
    cov = build_covariance(Fast(), 2)
    assert (verify_dmt_criterion(search.codebook_at, cov, grid, 0.5, 1)
            == verify_dmt_criterion(explicit, cov, grid, 0.5, 1))


def test_search_failure_is_flagged_not_raised():
    # a 100-word code over 4 slots cannot hold the full product above the
    # rate threshold at this SNR; the miss must surface as a flag, not an
    # exception, with the threshold recorded alongside the best-found value
    search = search_permutations([100.0], 1.0, 4, budget=60, master_seed=2,
                                 epsilon=0.5)
    entry = search.entries[0]
    assert entry.threshold == pytest.approx(100.0 ** -1.5)
    assert entry.passes == (entry.min_product >= entry.threshold)
    assert not entry.passes
    assert len(entry.perms) == 4


# -- effective differences ---------------------------------------------------

def test_effective_difference_flat_equals_gram():
    cov = build_covariance(Flat(), 4)
    rng = spawn_rng(24)
    e = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    eff = effective_difference(cov, e)
    assert np.allclose(eff.matrix, e.conj().T @ e, atol=1e-12)


def test_effective_difference_compares_by_value():
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    e = np.array([[0.5, 0.1j, 0.0, -0.3]])
    eff = effective_difference(cov, e)
    assert eff == effective_difference(cov, e.copy())
    assert not (eff != effective_difference(cov, e))
    assert eff != effective_difference(cov, 2 * e)
    assert eff != "not an effective difference"
    with pytest.raises(TypeError):
        hash(eff)


def test_effective_difference_fast_is_diagonal():
    cov = build_covariance(Fast(), 4)
    rng = spawn_rng(25)
    e = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    eff = effective_difference(cov, e)
    assert np.allclose(eff.matrix, np.diag(np.sum(np.abs(e) ** 2, axis=0)), atol=1e-12)


def test_effective_difference_matches_explicit_stack():
    # eigenvalues agree with the Gram of (psd_root^T kron I) diag(e_n)
    rng = spawn_rng(26)
    for trial in range(100):
        n, mt, rho = 4, 2, 2
        cov = _random_cov(spawn_rng(26, trial), n, rho)
        e = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
        eff = effective_difference(cov, e)
        sqrt_t = psd_root(cov).T  # transposed PSD root: sqrt_t @ sqrt_t^H = cov^T
        lift = np.kron(sqrt_t, np.eye(mt))
        diag_e = np.zeros((n * mt, n), dtype=complex)
        for slot in range(n):
            diag_e[slot * mt:(slot + 1) * mt, slot] = e[:, slot]
        upsilon = lift @ diag_e
        oracle = np.linalg.eigvalsh(upsilon.conj().T @ upsilon)
        assert np.allclose(np.linalg.eigvalsh(eff.matrix), oracle,
                           atol=1e-10 * max(1.0, np.max(oracle)))


_TF_SPEC = ScatteringSpec.from_normalized(0.5, 0.5, 2, 2)


@pytest.mark.parametrize("model", [Flat(), BlockFading(2, 2), CyclicIsi(2, (1.0, 0.5)),
                                   TimeFrequency(_TF_SPEC)], ids=lambda model: model.kind)
@pytest.mark.parametrize("kind", ["cdd", "phase-rolling", "tf"])
@pytest.mark.parametrize("num_tx", [1, 2])
def test_precoded_difference_is_the_slot_gram_scaled_by_the_outer_difference(model, kind,
                                                                            num_tx):
    # slot n of a precoded pair's difference is p_n delta_n, so M = D^H K D
    # with D = diag(delta) and K = R^T o P^H P, the precoder's effective
    # difference: det M = det K prod |delta_n|**2, the identity the screen
    # of the pair criteria reads
    pre = (design_tf_shift_precoder(_TF_SPEC, num_tx) if kind == "tf"
           else classic_precoder(kind, num_tx=num_tx, n_slots=4, stride=2))
    cov = build_covariance(model, 4)
    kmat = effective_difference(cov, pre.matrix).matrix
    rng = spawn_rng(30, num_tx)
    for _ in range(20):
        one, two = complex_normal(rng, (2, 4))
        delta = one - two
        mat = effective_difference(cov, apply_precoder(pre, one) - apply_precoder(pre, two)).matrix
        assert (np.max(np.abs(mat - delta.conj()[:, None] * kmat * delta))
                <= 1e-14 * np.trace(mat).real)
        expect = np.linalg.det(kmat) * np.prod(np.abs(delta) ** 2)
        if structural_count(cov, num_tx, 4, clip=True) < 4:  # both are rounding: Hadamard's scale
            expect, scale = 0.0, np.prod(np.diag(mat).real)
        else:
            scale = abs(expect)
        assert abs(np.linalg.det(mat) - expect) <= 1e-12 * scale


def test_hadamard_rank_bound_property():
    rng = spawn_rng(27)
    for trial in range(50):
        n, mt = 6, 2
        rho = int(rng.integers(1, 4))
        cov = _random_cov(spawn_rng(27, trial), n, rho)
        e = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
        eff = effective_difference(cov, e)
        assert eff.rank <= rho * mt


def test_trace_bound_property():
    rng = spawn_rng(28)
    for model, n in [(Flat(), 4), (Fast(), 4), (CyclicIsi(2, (1.0, 0.3)), 4)]:
        cov = build_covariance(model, n)
        mt = 2
        e = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
        e *= np.sqrt(4 * n * mt) / np.linalg.norm(e)  # maximal energy difference
        eff = effective_difference(cov, e)
        trace = np.real(np.trace(eff.matrix))
        assert trace == pytest.approx(np.sum(np.abs(e) ** 2), rel=1e-10)
        assert eff.eigvals[-1] <= 4 * mt * n * (1 + 1e-9)


# -- xi metric ---------------------------------------------------------------

def test_xi_flat_siso_is_squared_norm():
    cov = build_covariance(Flat(), 3)
    e = np.array([0.3 - 0.2j, 0.5j, -0.4])
    book = _scalar_codebook([np.zeros(3), e])
    xi = xi_metric(book, cov, 1)
    assert xi.value == pytest.approx(np.sum(np.abs(e) ** 2), rel=1e-10)


def test_xi_flat_matches_min_determinant():
    rng = spawn_rng(29)
    n, mt = 4, 2
    cov = build_covariance(Flat(), n)
    words = rng.standard_normal((5, mt, n)) + 1j * rng.standard_normal((5, mt, n))
    words *= 0.3
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    xi = xi_metric(book, cov, 2)
    dets = []
    for i in range(5):
        for j in range(i + 1, 5):
            e = words[i] - words[j]
            dets.append(np.real(np.linalg.det(e @ e.conj().T)))
    assert xi.value == pytest.approx(min(dets), rel=1e-9)


def test_xi_fast_siso_is_min_entry():
    cov = build_covariance(Fast(), 3)
    rng = spawn_rng(30)
    words = 0.5 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    book = _scalar_codebook(words)
    xi = xi_metric(book, cov, 1)
    assert xi.value == pytest.approx(pairwise_min_products(words, 1).value, rel=1e-9)


def test_xi_requires_enough_block_length():
    cov = build_covariance(Fast(), 3)  # rank 3
    words = np.zeros((2, 2, 3))
    words[1, 0, 0] = 1.0
    book = Codebook(words=words, snr=4.0, mux_rate=0.0)
    with pytest.raises(ValueError):
        xi_metric(book, cov, 2)  # needs n >= rank * num_tx = 6


# -- criteria ----------------------------------------------------------------

def test_verify_rank_r0_cases():
    n = 4
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), n)  # rank 2
    e_good = np.ones((1, n)) * (0.4 + 0.1j)
    book = _scalar_codebook([np.zeros(n), e_good[0]])
    report = verify_rank_r0(book, cov)
    assert report["passed"]
    assert report["expected_rank"] == 2

    cov_fast = build_covariance(Fast(), 3)
    e_holed = np.array([0.5, 0.0, 0.5])
    book = _scalar_codebook([np.zeros(3), e_holed])
    report = verify_rank_r0(book, cov_fast)
    assert not report["passed"]
    assert report["failure_count"] == 1
    assert report["failures"][0]["rank"] == 2  # one zero entry drops the rank


def test_verify_rank_r0_lists_first_failures(monkeypatch):
    # 17 equal words: 136 rank-0 pairs, of which the first 100 in sweep
    # order are listed, also when the sweep takes three pairs a batch
    cov = build_covariance(Fast(), 3)
    book = _scalar_codebook(np.full((17, 3), 0.5))
    pairs = [[i, j] for i in range(17) for j in range(i + 1, 17)]
    for budget in (8_000_000, 54):
        monkeypatch.setattr(_util, "BATCH_BUDGET", budget)
        report = verify_rank_r0(book, cov)
        assert not report["passed"]
        assert report["failure_count"] == 136
        assert report["failures"] == [{"pair": p, "rank": 0} for p in pairs[:100]]


def test_verify_dmt_criterion_r0_full_rank_passes():
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    words = np.stack([np.zeros(4), 0.5 * np.ones(4)])
    book = _scalar_codebook(words, r=0.0)
    report = verify_dmt_criterion(lambda snr: book, cov, [10.0, 100.0, 1000.0], 0.5, 1)
    assert report["passed"]


def test_verify_dmt_criterion_reuses_metric_for_the_same_book(monkeypatch):
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    book = _scalar_codebook(np.stack([np.zeros(4), 0.5 * np.ones(4)]))
    other = _scalar_codebook(np.stack([np.zeros(4), 0.4 * np.ones(4)]))
    calls = []
    monkeypatch.setattr(codes, "xi_metric",
                        lambda b, c, r: calls.append(b) or xi_metric(b, c, r))
    report = verify_dmt_criterion(lambda snr: book, cov, [10.0, 100.0, 1000.0], 0.5, 1)
    assert calls == [book]
    assert len({row["xi"] for row in report["per_snr"]}) == 1
    calls.clear()
    verify_dmt_criterion(lambda snr: book if snr < 50 else other, cov,
                         [10.0, 20.0, 100.0], 0.5, 1)
    assert calls == [book, other]


def test_verify_dmt_criterion_rank_deficit_fails():
    # same symbol on both antennas with no precoding: rank-1 Gram
    n = 4
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), n)
    rng = spawn_rng(31)
    row = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    words = np.stack([np.zeros((2, n)), np.stack([row, row])])
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    report = verify_dmt_criterion(lambda snr: book, cov, [10.0], 0.5, 2)
    assert not report["passed"]
    assert report["per_snr"][0]["xi"] == pytest.approx(0.0, abs=1e-12)


def test_delta_decomposition_properties():
    rng = spawn_rng(32)
    n, mt = 4, 2
    # zero difference
    cov = _random_cov(spawn_rng(32, 0), n, 2)
    delta = delta_decomposition(cov, np.zeros((mt, n)))
    assert numerical_rank(delta) == 0 and np.allclose(delta, 0)
    # flat rank-1 covariance: rank equals the difference rank
    cov_flat = build_covariance(Flat(), n)
    e = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
    assert numerical_rank(delta_decomposition(cov_flat, e)) == np.linalg.matrix_rank(e)
    # eigenvalue identity against the Hadamard route
    for trial in range(100):
        cov = _random_cov(spawn_rng(32, trial + 1), n, int(1 + trial % 3))
        e = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
        delta = delta_decomposition(cov, e)
        lhs = np.linalg.eigvalsh(delta.conj().T @ delta)
        rhs = np.linalg.eigvalsh(effective_difference(cov, e).matrix)
        assert np.allclose(lhs, rhs, atol=1e-10 * max(1.0, rhs[-1]))


def test_stacked_isi_difference_single_tap():
    rng = spawn_rng(33)
    e_t = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    stacked, rank = stacked_isi_difference(e_t, 1, "cyclic")
    assert np.allclose(stacked, e_t)
    assert rank == np.linalg.matrix_rank(e_t)


def test_stacked_isi_cyclic_matches_eigen_route():
    # rank of the cyclic stack equals the rank of the eigen-weighted stack
    # built from the multicarrier covariance of a frequency-domain difference
    rng = spawn_rng(34)
    n, taps, mt = 6, 2, 2
    cov = build_covariance(CyclicIsi(taps, (1.0,) * taps), n)
    fft = unitary_fft(n)
    for _ in range(25):
        e_time = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
        e_freq = e_time @ fft
        _, rank_direct = stacked_isi_difference(e_time, taps, "cyclic")
        assert rank_direct == numerical_rank(delta_decomposition(cov, e_freq))


def test_stacked_isi_linear_mode():
    e_t = np.zeros((1, 5), dtype=complex)
    e_t[0, 0] = 1.0 + 0.5j
    stacked, rank = stacked_isi_difference(e_t, 3, "linear")
    assert stacked.shape == (3, 5)
    assert rank == 3
    bad = np.ones((1, 5))
    with pytest.raises(ValueError):
        stacked_isi_difference(bad, 3, "linear")


def _forward_shift_stack(e_time, num_taps):
    # per-lag forward shift: lag columns of zeros, then the first n - lag columns
    blocks = []
    for lag in range(num_taps):
        block = np.zeros_like(e_time)
        block[:, lag:] = e_time[:, :e_time.shape[1] - lag]
        blocks.append(block)
    return np.concatenate(blocks)


def test_stacked_isi_matches_per_lag_shift_references():
    rng = spawn_rng(39)
    for trial in range(60):
        mt, taps = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        n = taps + int(rng.integers(2, 5))
        e = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
        cyclic, _ = stacked_isi_difference(e, taps, "cyclic")
        expected = np.concatenate([e @ cyclic_shift_matrix(n, lag).T for lag in range(taps)])
        assert np.array_equal(cyclic, expected)
        e[:, n - taps + 1:] = 0  # zero guard
        linear, rank = stacked_isi_difference(e, taps, "linear")
        assert np.array_equal(linear, _forward_shift_stack(e, taps))
        assert rank == np.linalg.matrix_rank(linear)
    # a guard entry at most 1e-12 counts as zero: the stack is the forward
    # shift of the difference with its guard cleared, and the input is kept
    e = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    e[:, 4:] = 0
    e[1, 5] = 5e-13
    kept = e.copy()
    linear, _ = stacked_isi_difference(e, 3, "linear")
    assert np.array_equal(e, kept)
    cleared = e.copy()
    cleared[1, 5] = 0
    assert np.array_equal(linear, _forward_shift_stack(cleared, 3))
    assert np.max(np.abs(linear - _forward_shift_stack(e, 3))) <= 1e-12
    with pytest.raises(ValueError, match="unknown mode"):
        stacked_isi_difference(e, 3, "circular")


_BAD_SLACK = [0.0, -1.0, float("nan"), float("inf")]
_BAD_SNR = [0.5, 1.0, float("nan"), float("inf")]


@pytest.mark.parametrize("epsilon", _BAD_SLACK, ids=["zero", "negative", "nan", "inf"])
def test_criteria_reject_bad_epsilon(epsilon):
    # these used to pass at a threshold of snr**-r, return a report, or
    # carry a NaN threshold into the rows
    book = _scalar_codebook([[1.0, 1.0], [-1.0, -1.0]], snr=4.0, r=0.5)
    cov = build_covariance(Fast(), 2)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        criterion_threshold(4.0, 0.5, epsilon)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        min_entry_criterion(lambda snr: book, [4.0], epsilon)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        verify_dmt_criterion(lambda snr: book, cov, [4.0], epsilon, 1)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        search_permutations([16.0], 1.0, 2, budget=5, epsilon=epsilon)


@pytest.mark.parametrize("snr", _BAD_SNR, ids=["half", "one", "nan", "inf"])
def test_criteria_reject_grid_snr_not_above_one(snr, monkeypatch):
    book = _scalar_codebook([[1.0, 1.0], [-1.0, -1.0]], snr=4.0, r=0.5)
    cov = build_covariance(Fast(), 2)

    def no_sweep(*args):
        raise AssertionError("the threshold is checked before any sweep")
    monkeypatch.setattr(codes, "pairwise_min_products", no_sweep)
    monkeypatch.setattr(codes, "xi_metric", no_sweep)
    with pytest.raises(ValueError, match="grid SNRs must exceed 1"):
        criterion_threshold(snr, 0.5, 0.1)
    with pytest.raises(ValueError, match="grid SNRs must exceed 1"):
        min_entry_criterion(lambda s: book, [snr], 0.1)
    with pytest.raises(ValueError, match="grid SNRs must exceed 1"):
        verify_dmt_criterion(lambda s: book, cov, [snr], 0.1, 1)
    with pytest.raises(ValueError):  # an SNR of 1 passed before
        search_permutations([snr], 1.0, 2, budget=5)


@pytest.mark.parametrize("rate", [400.0, -1.0, float("nan"), float("inf")],
                         ids=["underflow", "negative", "nan", "inf"])
def test_criteria_reject_a_rate_without_a_threshold(rate):
    # at r = 400 the threshold underflowed to 0 and every criterion passed;
    # at r = -1 it rose above 1
    book = _scalar_codebook([[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]],
                            snr=10.0, r=rate)
    cov = build_covariance(Fast(), 2)
    pre = classic_precoder("cdd", num_tx=1, n_slots=2, stride=1)
    with pytest.raises(ValueError, match="multiplexing rate|rounds to 0"):
        criterion_threshold(10.0, rate, 0.1)
    with pytest.raises(ValueError, match="multiplexing rate|rounds to 0"):
        verify_dmt_criterion(lambda snr: book, cov, [10.0, 100.0], 0.1, 1)
    with pytest.raises(ValueError, match="multiplexing rate|rounds to 0"):
        verify_composed_design(pre, lambda snr: book, cov, [10.0, 100.0], 0.1, 1)


def test_block_fading_multiset_identity_random():
    rng = spawn_rng(35)
    n, blocks, mt = 4, 2, 2
    words = 0.3 * (rng.standard_normal((4, mt, n)) + 1j * rng.standard_normal((4, mt, n)))
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    report = block_fading_check(book, blocks, 2)
    assert report["multiset_ok"]
    assert report["max_multiset_err"] < 1e-10


def test_block_fading_global_xi_equals_xi_metric():
    rng = spawn_rng(35)
    n, blocks, mt = 4, 2, 2
    words = 0.3 * (rng.standard_normal((4, mt, n)) + 1j * rng.standard_normal((4, mt, n)))
    books = [Codebook(words=words, snr=10.0, mux_rate=0.0)]
    rng = spawn_rng(36)
    words = 0.4 * (rng.standard_normal((5, 1, n)) + 1j * rng.standard_normal((5, 1, n)))
    books.append(Codebook(words=words, snr=10.0, mux_rate=0.0))
    small, large = 0.01, 1.0
    word = np.concatenate([np.diag([np.sqrt(small), np.sqrt(large)]),
                           np.diag([np.sqrt(large), np.sqrt(small)])], axis=1)
    words = np.stack([np.zeros((2, 4)), word]).astype(complex)
    books.append(Codebook(words=words, snr=10.0, mux_rate=0.0))
    for book in books:
        cov = build_covariance(BlockFading(blocks, n // blocks), n)
        assert block_fading_check(book, blocks, 2)["global_xi"] == xi_metric(book, cov, 2)


def test_block_fading_scalar_global_is_min_over_blocks():
    rng = spawn_rng(36)
    n, blocks = 4, 2
    words = 0.4 * (rng.standard_normal((5, 1, n)) + 1j * rng.standard_normal((5, 1, n)))
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    report = block_fading_check(book, blocks, 1)
    assert report["global_xi"].value == pytest.approx(
        min(report["per_block_min_products"]), rel=1e-9)


def test_block_fading_per_block_pass_global_fail():
    # two blocks, each difference has eigenvalues {small, large}: per-block
    # products pass a small*large threshold while the global two smallest
    # multiply to small**2
    small, large = 0.01, 1.0
    b0 = np.diag([np.sqrt(small), np.sqrt(large)]).astype(complex)
    b1 = np.diag([np.sqrt(large), np.sqrt(small)]).astype(complex)
    word = np.concatenate([b0, b1], axis=1)  # 2 x 4
    words = np.stack([np.zeros((2, 4), dtype=complex), word])
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    report = block_fading_check(book, 2, 2)
    threshold = small * large * 0.5
    assert all(p >= threshold for p in report["per_block_min_products"])
    assert report["global_xi"].value == pytest.approx(small ** 2, rel=1e-9)
    assert report["global_xi"].value < threshold


def test_min_entry_criterion_permutation_code_passes():
    def gen(snr):
        fam = qam_family(snr, 0.5)
        rng = spawn_rng(37, int(snr))
        perms = [rng.permutation(len(fam)) for _ in range(3)]
        return permutation_codebook(fam, perms)

    report = min_entry_criterion(gen, [10.0, 100.0], epsilon=0.1)
    assert report["passed"]
    for row in report["per_snr"]:
        fam = qam_family(row["snr"], 0.5)
        assert row["min_entry"] == pytest.approx(fam.scale ** 2, rel=1e-9)


def test_min_entry_criterion_zero_entry_fails():
    words = np.array([[0.1, 0.2], [0.1, 0.5]])  # equal in slot 0
    book = _scalar_codebook(words, snr=10.0, r=0.5)
    report = min_entry_criterion(lambda snr: book, [10.0], epsilon=0.1)
    assert not report["passed"]
    assert report["per_snr"][0]["min_entry"] == 0.0
    assert report["per_snr"][0]["worst_pair"] == [0, 1]
    assert report["per_snr"][0]["worst_slot"] == 0


def test_min_entry_criterion_threshold_arithmetic():
    snr, r = 100.0, 0.5
    value = snr ** (-r + 0.2)
    e = np.sqrt(value) * np.ones(2)
    book = _scalar_codebook(np.stack([np.zeros(2), e]), snr=snr, r=r)
    report = min_entry_criterion(lambda s: book, [snr], epsilon=0.1)
    assert report["passed"]


def test_ostrowski_sandwich_property():
    rng = spawn_rng(38)
    for trial in range(100):
        n = 5
        rho = int(rng.integers(1, n + 1))
        cov = _random_cov(spawn_rng(38, trial), n, rho)
        e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eff = effective_difference(cov, e[None, :])
        scaled = np.linalg.eigvalsh(eff.matrix)
        base = np.zeros(n)
        base[n - cov.rank:] = cov.eigvals
        lo, hi = np.min(np.abs(e) ** 2), np.max(np.abs(e) ** 2)
        assert np.all(scaled >= lo * base - 1e-9)
        assert np.all(scaled <= hi * base + 1e-9 * max(1.0, hi * base[-1]))


def test_codebook_json_round_trip():
    rng = spawn_rng(39)
    words = 0.4 * (rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4)))
    book = Codebook(words=words, snr=25.0, mux_rate=0.75)
    clone = Codebook.from_json(book.to_json())
    assert np.allclose(clone.words, book.words)
    assert clone.snr == book.snr
    assert clone.mux_rate == book.mux_rate


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 2), st.integers(1, 4)),
       data=st.data(),
       snr=st.floats(allow_nan=False, allow_infinity=False),
       mux_rate=st.floats(allow_nan=False, allow_infinity=False))
def test_codebook_json_round_trip_is_bitwise(tmp_path_factory, shape, data, snr, mux_rate):
    # entries of modulus below 1 keep every word inside the power constraint
    parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.7, 0.7))
    size = 2 * int(np.prod(shape))
    flat = np.array(data.draw(st.lists(parts, min_size=size, max_size=size)))
    book = Codebook(words=flat.view(complex).reshape(shape), snr=snr, mux_rate=mux_rate)
    path = tmp_path_factory.mktemp("book") / "book.json"
    path.write_text(json.dumps(book.to_json()))
    clone = Codebook.load(path)
    # every float, signed zeros included, comes back bit for bit
    assert clone.words.shape == book.words.shape
    assert np.array_equal(clone.words.view(float).view(np.int64),
                          book.words.view(float).view(np.int64))
    assert np.array_equal(np.array([clone.snr, clone.mux_rate]).view(np.int64),
                          np.array([snr, mux_rate]).view(np.int64))


def test_codebook_peak_power_enforced():
    words = np.full((1, 1, 2), 2.0, dtype=complex)  # energy 8 > n*mt = 2
    with pytest.raises(ValueError):
        Codebook(words=words, snr=10.0, mux_rate=0.0)


def test_structural_count_clips_or_raises_below_the_block_length():
    cov = build_covariance(Fast(), 4)  # rank 4, so two antennas need n >= 8
    assert codes.structural_count(cov, 1, 4) == 4
    assert codes.structural_count(cov, 2, 4, clip=True) == 4
    with pytest.raises(ValueError, match="below the structural eigenvalue count"):
        codes.structural_count(cov, 2, 4)

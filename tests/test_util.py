import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtlab import _util, codes, precoder, sim, tradeoff
from dmtlab.channel import ChannelDims, CyclicIsi, Flat, build_covariance
from dmtlab.codes import (Codebook, pair_strips, pairwise_min_products, permutation_codebook,
                          qam_family)
from dmtlab.precoder import classic_precoder, verify_composed_design
from dmtlab.sim import error_curve
from dmtlab.tradeoff import FixedRate, SnrPoint, outage_curve
from dmtlab._util import MC_CHUNK, batches, complex_normal, run_chunks, spawn_rng, wilson_interval


@pytest.mark.parametrize("shape", [(), (1,), (7,), (5, 3, 2)])
def test_complex_normal_is_bitwise_one_interleaved_draw(shape):
    # every random stream (channels, words, noise) is built on this identity:
    # z[k] = (g[2k] + i g[2k+1]) * sqrt(1/2) for one draw g of twice the size
    rng = spawn_rng(20, len(shape))
    z = complex_normal(rng, shape)
    ref_rng = spawn_rng(20, len(shape))
    g = ref_rng.standard_normal(2 * int(np.prod(shape))) * np.sqrt(0.5)
    assert z.dtype == np.complex128 and z.shape == shape and z.flags.c_contiguous
    assert z.tobytes() == g.tobytes()
    assert rng.standard_normal() == ref_rng.standard_normal()  # same draws consumed


def test_complex_normal_moments():
    # unit-variance circular Gaussians: E|z|^2 = 1 and E z^2 = 0 (Re and Im of
    # equal variance 1/2 and uncorrelated), each sample mean within 5 sigma
    count = 200_000
    z = complex_normal(spawn_rng(21), (count,))
    power, square = np.abs(z) ** 2, z * z
    cross = z.real * z.imag
    # sigma of one term: |z|^2 ~ Exp(1), Re z^2 and Im z^2 have variance 1,
    # Re z Im z has variance 1/4
    for terms, sigma in ((power - 1, 1.0), (square.real, 1.0), (square.imag, 1.0),
                         (cross, 0.5)):
        assert abs(terms.mean()) < 5 * sigma / np.sqrt(count)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_chunks_hands_each_chunk_its_sfc64_stream(workers):
    # chunk c draws from SFC64 seeded by SeedSequence((master_seed, c)); the
    # permutation search keeps spawn_rng's PCG64
    seen = []

    def chunk(rng, size, live):
        seen.append((rng.bit_generator.seed_seq.entropy, type(rng.bit_generator),
                     rng.standard_normal()))
        return [size]

    assert run_chunks(chunk, 3 * MC_CHUNK + 1, 9, workers) == ([3 * MC_CHUNK + 1],
                                                               [3 * MC_CHUNK + 1])
    expected = [((9, c), np.random.SFC64,
                 np.random.Generator(np.random.SFC64(np.random.SeedSequence((9, c))))
                 .standard_normal()) for c in range(4)]
    assert sorted(seen) == expected
    assert type(spawn_rng(9, 0).bit_generator) is np.random.PCG64


@settings(max_examples=200, deadline=None, derandomize=True)
@given(trials=st.integers(1, 10 ** 12), data=st.data())
def test_wilson_interval_brackets_the_estimate_and_mirrors(trials, data):
    # 0 <= low <= events/trials <= high <= 1, and the interval of the
    # complementary count is the mirror image 1 - (high, low)
    events = data.draw(st.one_of(st.sampled_from([0, 1, trials - 1, trials]),
                                 st.integers(0, trials)))
    low, high = wilson_interval(events, trials)
    assert 0.0 <= low <= events / trials <= high <= 1.0
    mirror_low, mirror_high = wilson_interval(trials - events, trials)
    assert mirror_low == pytest.approx(1.0 - high, abs=1e-14)
    assert mirror_high == pytest.approx(1.0 - low, abs=1e-14)


@pytest.mark.parametrize("count", [0, 1, 5, 17, 64])
@pytest.mark.parametrize("per_item", [1, 2, 3, 7, 100])
def test_batches_cover_count_in_clipped_steps(monkeypatch, count, per_item):
    monkeypatch.setattr(_util, "BATCH_BUDGET", 7)
    step = max(1, 7 // per_item)
    slices = batches(count, per_item)
    assert [i for s in slices for i in range(count)[s]] == list(range(count))
    assert all(s.stop - s.start == step for s in slices[:-1])
    if count == 0:
        assert slices == []
    else:  # the last slice is clipped to count
        assert slices[-1].stop == count and 0 < count - slices[-1].start <= step


def test_default_batch_sizes_are_pinned(monkeypatch):
    # the distance sweeps take row strips of 131 072 // (k * cols) rows of
    # k real entries a cell, at most an eighth of the columns high; the other
    # pair sweeps take 65 536 // k pairs of k complex entries a pair, the
    # Monte-Carlo sub-blocks 131 072 // per_trial trials: the sizes that the
    # pair-sweep and sub-block timings were measured at
    steps = {}

    def spy(module):
        def recording(count, per_item):
            steps.setdefault(module.__name__.split(".")[-1], []).append(
                max(1, _util.BATCH_BUDGET // per_item))
            return batches(count, per_item)
        monkeypatch.setattr(module, "batches", recording)

    def strip_heights(num, per_pair):
        return [i1 - i0 for i0, i1 in pair_strips(num, per_pair)]

    def recording_strips(num, per_pair):
        steps.setdefault("strips", []).append((num, per_pair, strip_heights(num, per_pair)))
        return pair_strips(num, per_pair)

    for module in (codes, precoder, sim, tradeoff):
        spy(module)
    monkeypatch.setattr(codes, "pair_strips", recording_strips)
    rng = spawn_rng(71)
    words = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    pairwise_min_products(words, 2)  # 4 slots
    codes._torus_bound_score(np.tile((1, 0, 0, 1, 0, 0), (3, 4, 1)), 5)  # 4 slots, 5x5 grid
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    book = Codebook(words=0.3 * words[:, None, :], snr=10.0, mux_rate=0.0)
    codes.xi_metric(book, cov, 1)  # 4x4 effective differences
    fam = qam_family(25.0, 1.0)
    outer = permutation_codebook(fam, [rng.permutation(len(fam)) for _ in range(4)])
    verify_composed_design(classic_precoder("cdd", num_tx=2, n_slots=4, stride=2),
                           lambda snr: outer, cov, [25.0], epsilon=0.5, num_rx=2)
    # the composed design's outer sweep walks the strips, and precoder
    # batches the eigensolve of the pairs it keeps
    assert steps.pop("strips") == [(5, 8, [1, 1, 1, 1]),
                                   (25, 8, [3, 3, 3, 2, 2, 2, 2] + [1] * 7)]
    assert steps.pop("codes") == [65536 // 100, 65536 // 16]
    assert steps.pop("precoder") == [65536 // 16]
    # on a 1024-word 4-slot code the budget sets the first strips
    heights = strip_heights(1024, 8)
    assert heights[:3] == [131072 // (8 * 1023), 131072 // (8 * 1007), 131072 // (8 * 991)]
    assert max(heights) == 45 and sum(heights) == 1023
    flat = build_covariance(Flat(), 2)
    outage_curve(flat, ChannelDims(2, 2, 2), [SnrPoint(10.0, FixedRate(1.0))],
                 trials=10, min_events=0)
    assert steps.pop("tradeoff") == [131072 // (16 * 2 * 2 * 2)]
    sim_book = Codebook(words=np.full((100, 1, 2), 0.5), snr=10.0, mux_rate=0.0)
    error_curve(flat, ChannelDims(1, 1, 2), sim_book, (10.0,), trials=MC_CHUNK + 1)
    assert steps.pop("sim") == [131072 // 100, 131072 // 100]  # one a chunk
    assert steps == {}


# library entry points that no command reads, each kept for a caller outside
# the package
_ENTRY_POINTS = {
    "sample_channel_batch",  # perfbench's channel-draw probe
    "search_permutations",  # perfbench's design chain (design_verify)
    "classic_precoder",  # perfbench's design chain (design_verify)
    "verify_composed_design",  # perfbench's design chain (design_verify)
    "fit_diversity_slope",  # diversity slopes of outage curves, for library users
    "apply_precoder",  # builds the precoded Codebook that error-sim reads
}


def test_every_export_has_a_reader_outside_the_tests():
    # the package is what a command reads: a name dmtlab exports must be read
    # (as a name or an attribute) by some module of the package other than
    # __init__, unless it is a listed entry point; test-only helpers live in
    # tests/_oracles.py
    package = Path(_util.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    exported = {alias.asname or alias.name for node in ast.walk(trees.pop("__init__"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert _ENTRY_POINTS <= exported
    assert sorted(exported - read - _ENTRY_POINTS) == []


def _defaulted_parameters(func, method):
    """(position, name) of each defaulted parameter of a def, position None
    for keyword-only ones; a method's positions do not count self or cls."""
    args = func.args
    positional = args.posonlyargs + args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in func.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    return ([(k, arg.arg) for k, arg in enumerate(positional) if k >= first]
            + [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def test_every_option_is_set_by_the_package():
    # an option is for a caller: every defaulted parameter of a function or
    # method of the package is passed (by keyword, by position or through
    # * or **) by some call in the package, where a class call counts for
    # its __init__, unless the function is a listed entry point
    package = Path(_util.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    options, calls = [], {}
    for tree in trees:
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.update({id(item): node.name for item in node.body})
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name not in _ENTRY_POINTS:
                owner = methods.get(id(node))
                name = owner if node.name == "__init__" else node.name
                options += [(name, position, param) for position, param
                            in _defaulted_parameters(node, owner is not None)]
            elif isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(callee, []).append(
                    (float("inf") if starred or None in keywords else len(node.args),
                     keywords))
    unset = [f"{name}({param})" for name, position, param in options
             if not any(param in keywords or (position is not None and position < passed)
                        for passed, keywords in calls.get(name, ()))]
    assert unset == []

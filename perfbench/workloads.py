"""Workload definitions shared by the benchmark driver and its child process.

A workload turns a seed into input files with the benchmark's own numpy
code, runs dmtlab on them through ``dmtlab.cli.dispatch`` or the public
library API, and names the output files that are hashed and checked.
Inputs never come from ``search_permutations``, so a search change cannot
alter another workload's input.
"""

import hashlib
import json
import time
from math import comb

NAMES = ("outage_mimo_flat", "outage_siso_isi", "error_sim_ml", "design_verify")

# Per-iteration sizes. "full" is what the benchmark measures; "smoke" runs
# every code path, traced and untraced, in seconds.
SIZES = {
    "full": {
        "outage_mimo_flat": {"trials": 262_144},
        "outage_siso_isi": {"trials": 524_288},
        "error_sim_ml": {"trials": 32_768},
        "design_verify": {"grid_db": (10.0, 20.0, 30.0), "cli_per_dim": 14},
    },
    "smoke": {
        "outage_mimo_flat": {"trials": 16_384},
        "outage_siso_isi": {"trials": 16_384},
        "error_sim_ml": {"trials": 4_096},
        "design_verify": {"grid_db": (10.0, 20.0), "cli_per_dim": 6},
    },
}

OUTAGE_CONFIGS = {
    # slice of acceptance criterion 6c: 2x2 flat fading, 2 bits
    "outage_mimo_flat": {
        "model": {"kind": "flat"},
        "dims": {"num_tx": 2, "num_rx": 2, "block_len": 1},
        "snr_db": [6.0, 8.0, 10.0, 12.0, 14.0, 16.0],
        "rate": {"mode": "fixed", "bits": 2.0},
    },
    # acceptance criterion 6b's config: 1x1 two-tap cyclic ISI, n=4, 1 bit
    "outage_siso_isi": {
        "model": {"kind": "isi", "num_taps": 2, "power_delay_profile": [1.0, 1.0]},
        "dims": {"num_tx": 1, "num_rx": 1, "block_len": 4},
        "snr_db": [10.0, 13.0, 16.0, 19.0, 22.0, 25.0],
        "rate": {"mode": "fixed", "bits": 1.0},
    },
}

ERROR_SIM_CONFIG = {
    "model": {"kind": "isi", "num_taps": 2, "power_delay_profile": [1.0, 1.0]},
    "dims": {"num_tx": 2, "num_rx": 2, "block_len": 4},
    "snr_db": [5.0, 10.0, 15.0],
    "rate": {"mode": "fixed", "bits": 1.0},
}
ERROR_SIM_PER_DIM = 10   # 100-word outer code
ERROR_SIM_WORKERS = 2

# The composed-design chain of acceptance criterion 8 at r = 1. The search
# seed is part of the design (criterion 8 uses it), not a generated input:
# it keeps the searched permutations comparable with the reference.
DESIGN_MUX_RATE = 1.0
DESIGN_EPSILON = 0.5
DESIGN_BUDGET = 800
DESIGN_SEARCH_SEED = 1008
DESIGN_NUM_RX = 2
# verify-code --criterion dmt on the CLI code: the worst-pair product of these
# codes is 4.2e-4 at 196 words (1.2e-2 at 36), whatever the seed, so this grid
# passes with a margin above 10x
DMT_SNR_DB = ("30", "35", "40")
PEP_SNR_DB = "20"


def input_rng(seed):
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence((int(seed), 0xD317)))


def precoded_qam_code(rng, per_dim):
    """Codebook JSON of a CDD-precoded permutation code on a square QAM grid.

    Slot 0 sends the QAM point itself and slots 1..3 send images under
    uniformly random permutations drawn from ``rng``. The grid is the one
    ``qam_family(per_dim**2, 1)`` builds (minimum squared distance
    2/per_dim**2, inside the unit disk). Every outer word is precoded with
    two-antenna cyclic delay diversity at stride 2 over n = 4 slots, whose
    rows are (1, 1, 1, 1) and (1, -1, 1, -1).
    """
    import numpy as np
    size = per_dim * per_dim
    axis = np.arange(per_dim) - (per_dim - 1) / 2.0
    grid_a, grid_b = np.meshgrid(axis, axis, indexing="ij")
    points = np.sqrt(2.0 / size) * (grid_a + 1j * grid_b).reshape(-1)
    perms = [np.arange(size)] + [rng.permutation(size) for _ in range(3)]
    outer = np.stack([points[p] for p in perms], axis=1)          # (size, 4)
    rows = np.array([[1, 1, 1, 1], [1, -1, 1, -1]], dtype=complex)
    words = rows[None, :, :] * outer[:, None, :]                  # (size, 2, 4)
    flat = words.reshape(size, -1)
    return {"mt": 2, "n": 4, "snr": float(size), "r": DESIGN_MUX_RATE,
            "words": [[[float(z.real), float(z.imag)] for z in row] for row in flat]}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def _design_grid_sizes(grid_db):
    """Outer code sizes of ``qam_family(snr, 1)`` at each grid SNR."""
    return [max(1, round((10.0 ** (db / 10.0)) ** (DESIGN_MUX_RATE / 2))) ** 2
            for db in grid_db]


def prepare(name, seed, scale, workdir, dmtlab):
    """Write the workload's inputs for ``seed`` into ``workdir``.

    Returns the spec the run and the checks need: the dispatch argument
    lists, the output files and the nominal amount of work.
    """
    size = SIZES[scale][name]
    rng = input_rng(seed)
    spec = {"name": name}
    if name in OUTAGE_CONFIGS:
        config = dict(OUTAGE_CONFIGS[name], trials=size["trials"],
                      seed=int(rng.integers(2 ** 31)))
        _write_json(workdir / "config.json", config)
        out = str(workdir / "outage.csv")
        spec["commands"] = {"outage": ["outage", "--config", str(workdir / "config.json"),
                                       "--min-events", "0", "--workers", "1",
                                       "--out", out]}
        spec["outputs"] = [out]
        spec["trials"] = size["trials"]
        spec["snr_db"] = config["snr_db"]
        spec["work"] = size["trials"] * len(config["snr_db"])
    elif name == "error_sim_ml":
        config = dict(ERROR_SIM_CONFIG, trials=size["trials"],
                      seed=int(rng.integers(2 ** 31)))
        _write_json(workdir / "config.json", config)
        _write_json(workdir / "book.json", precoded_qam_code(rng, ERROR_SIM_PER_DIM))
        out = str(workdir / "error.csv")
        spec["commands"] = {"error-sim": [
            "error-sim", "--config", str(workdir / "config.json"),
            "--codebook", str(workdir / "book.json"),
            "--workers", str(ERROR_SIM_WORKERS), "--out", out]}
        spec["outputs"] = [out]
        spec["trials"] = size["trials"]
        spec["snr_db"] = config["snr_db"]
        spec["work"] = size["trials"] * len(config["snr_db"])
    elif name == "design_verify":
        cov = dmtlab.build_covariance(dmtlab.CyclicIsi(2, (1.0, 1.0)), 4)
        cov.save(workdir / "cov.json")
        per_dim = size["cli_per_dim"]
        _write_json(workdir / "book.json", precoded_qam_code(rng, per_dim))
        common = ["--codebook", str(workdir / "book.json"),
                  "--cov", str(workdir / "cov.json"), "--mr", str(DESIGN_NUM_RX)]
        outs = {key: str(workdir / f"{key}.{ext}") for key, ext in
                (("chain", "json"), ("verify_rank", "json"), ("verify_dmt", "json"),
                 ("pep", "csv"))}
        spec["commands"] = {
            "verify_rank": ["verify-code", *common, "--criterion", "rank",
                            "--out", outs["verify_rank"]],
            "verify_dmt": ["verify-code", *common, "--criterion", "dmt",
                           "--snr-db", *DMT_SNR_DB,
                           "--epsilon", str(DESIGN_EPSILON), "--out", outs["verify_dmt"]],
            "pep": ["pep", *common, "--snr-db", PEP_SNR_DB, "--out", outs["pep"]],
        }
        spec["outputs"] = list(outs.values())
        spec["chain_out"] = outs["chain"]
        spec["grid_db"] = list(size["grid_db"])
        spec["cov"] = cov
        chain_pairs = 2 * sum(comb(s, 2) for s in _design_grid_sizes(size["grid_db"]))
        cli_pairs = comb(per_dim * per_dim, 2) * (1 + len(DMT_SNR_DB) + 1)
        spec["work"] = chain_pairs + cli_pairs
    else:
        raise ValueError(f"unknown workload: {name!r}")
    return spec


def _perms_digest(perms):
    text = json.dumps([[int(i) for i in perm] for perm in perms])
    return hashlib.sha256(text.encode()).hexdigest()


def _run_design_chain(spec, dmtlab):
    """search_permutations then verify_composed_design, as criterion 8 runs them."""
    grid = [10.0 ** (db / 10.0) for db in spec["grid_db"]]
    search = dmtlab.search_permutations(grid, DESIGN_MUX_RATE, 4, budget=DESIGN_BUDGET,
                                        master_seed=DESIGN_SEARCH_SEED,
                                        epsilon=DESIGN_EPSILON)
    precoder = dmtlab.classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
    report = dmtlab.verify_composed_design(precoder, search.codebook_at, spec["cov"],
                                           grid, epsilon=DESIGN_EPSILON,
                                           num_rx=DESIGN_NUM_RX)
    rows = []
    for db, entry, row in zip(spec["grid_db"], search.entries, report["per_snr"]):
        rows.append({
            "snr_db": db, "num_words": len(entry.perms[0]),
            "perms_sha256": _perms_digest(entry.perms),
            "outer_min_product": row.get("outer_min_product"),
            "xi": row.get("xi"), "xi_pairs_evaluated": row.get("xi_pairs_evaluated"),
            "outer_passed": row["outer_passed"], "xi_passed": row["xi_passed"],
            "chain_passed": row["chain_passed"],
        })
    doc = {"passed": bool(report["passed"]), "rank_passed": bool(report["rank"].passed),
           "per_snr": rows}
    with open(spec["chain_out"], "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc


def execute(spec, dmtlab):
    """Run the workload; returns the exit code of every dispatch."""
    exit_codes = {}
    if spec["name"] == "design_verify":
        _run_design_chain(spec, dmtlab)
    for key, argv in spec["commands"].items():
        exit_codes[key] = dmtlab.cli.dispatch(argv)
    return exit_codes


def draw_probe(spec, dmtlab):
    """Time ``sample_channel_batch`` on the workload's draw shapes.

    The estimators draw their channels inline, so the traced run repeats the
    same draws (trial count, chunk grid, shapes) through the public sampler
    to price the channel layer. Returns (trials, wall seconds, CPU seconds);
    zeros for workloads that draw no channels.
    """
    if spec["name"] == "design_verify":
        return 0, 0.0, 0.0
    import numpy as np
    doc = OUTAGE_CONFIGS.get(spec["name"], ERROR_SIM_CONFIG)
    dims = dmtlab.ChannelDims(**doc["dims"])
    model = doc["model"]
    if model["kind"] == "flat":
        model = dmtlab.Flat()
    else:
        model = dmtlab.CyclicIsi(model["num_taps"], tuple(model["power_delay_profile"]))
    # the channel module's own binding: the traced package-level one would
    # add this set-up call to the build_covariance span
    cov = dmtlab.channel.build_covariance(model, dims.block_len)
    chunk = getattr(dmtlab._util, "MC_CHUNK", 16_384)
    trials = spec["trials"]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for point in range(len(spec["snr_db"])):
        for idx, lo in enumerate(range(0, trials, chunk)):
            rng = np.random.default_rng(np.random.SeedSequence((point, idx)))
            dmtlab.sample_channel_batch(cov, dims, min(chunk, trials - lo), rng)
    return (trials * len(spec["snr_db"]), time.perf_counter() - wall0,
            time.process_time() - cpu0)

"""Monte-Carlo CSV bytes do not depend on the worker count or on the BLAS
thread count. Every chunk runs a BLAS GEMM (the channel mix, and for a
precoded code the projection onto its effective channels) inside the
``run_chunks`` workers, so each setting runs in its own interpreter, which
leaves the BLAS settings of the test process alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dmtlab._util import MC_CHUNK, complex_normal, spawn_rng
from dmtlab.precoder import apply_precoder, classic_precoder

SRC = Path(__file__).resolve().parents[1] / "src"

# ISI 2x2 at n = 4: rank 2, so every sub-block mixes with a 4 x 2 GEMM; two
# full chunks and a partial one
CONFIG = {
    "model": {"kind": "isi", "num_taps": 2, "power_delay_profile": [1.0, 1.0]},
    "dims": {"num_tx": 2, "num_rx": 2, "block_len": 4},
    "snr_db": [0.0, 6.0, 12.0],
    "rate": {"mode": "fixed", "bits": 2.0},
    "trials": 2 * MC_CHUNK + 700,
    "seed": 77,
}

# the runner works in the directory of config.json and the codebooks
COMMANDS = {
    "outage_full": ["outage", "--bound", "full", "--min-events", "0"],
    "outage_jensen": ["outage", "--bound", "jensen", "--min-events", "0"],
    "error_sim": ["error-sim", "--with-outage", "--codebook", "book.json"],
    # one-dimensional effective channels: the decode projects every sub-block
    "error_sim_cdd": ["error-sim", "--codebook", "cdd.json"],
}

# one interpreter runs the commands with its worker count
_RUNNER = """
import sys
from dmtlab.cli import dispatch
workers, out = sys.argv[1:]
runs = {runs!r}
for name, argv in runs.items():
    code = dispatch(argv + ["--config", "config.json", "--workers", workers,
                            "--out", f"{{out}}/{{name}}.csv"])
    assert code == 0, (name, code)
"""


def _run(tmp_path, workers, blas_threads):
    out = tmp_path / f"w{workers}_t{blas_threads}"
    out.mkdir()
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", _RUNNER.format(runs=COMMANDS), str(workers),
                    str(out)], env=env, cwd=tmp_path, check=True, timeout=300)
    return {name: (out / f"{name}.csv").read_bytes() for name in COMMANDS}


def _book_doc(words):
    flat = words.reshape(len(words), -1)
    return {"mt": 2, "n": 4, "snr": 10.0, "r": 1.0,
            "words": np.stack((flat.real, flat.imag), axis=-1).tolist()}


def test_csv_bytes_do_not_depend_on_workers_or_blas_threads(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    # unit-modulus entries meet the power constraint
    words = complex_normal(spawn_rng(78), (16, 2 * 4))
    (tmp_path / "book.json").write_text(json.dumps(_book_doc(words / np.abs(words))))
    outer = complex_normal(spawn_rng(79), (16, 4))
    cdd = apply_precoder(classic_precoder("cdd", num_tx=2, n_slots=4, stride=1),
                         outer / np.abs(outer))
    (tmp_path / "cdd.json").write_text(json.dumps(_book_doc(cdd)))
    ref = _run(tmp_path, 1, 1)
    for workers, blas_threads in ((2, 1), (1, 2), (2, 2), (4, 1), (4, 2)):
        assert _run(tmp_path, workers, blas_threads) == ref
    # every row ran the full trial count and saw events at the lowest SNR
    for name, text in ref.items():
        rows = text.decode().splitlines()
        assert len(rows) == 1 + len(CONFIG["snr_db"])
        assert all(int(row.split(",")[4]) == CONFIG["trials"] for row in rows[1:])
        assert float(rows[1].split(",")[1]) > 0

"""Monte-Carlo CSV bytes do not depend on the worker count or on the BLAS
thread count. Every chunk runs a BLAS GEMM (the channel mix) inside the
``run_chunks`` workers, so each setting runs in its own interpreter, which
leaves the BLAS settings of the test process alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dmtlab._util import MC_CHUNK, complex_normal, spawn_rng

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

COMMANDS = {
    "outage_full": ["outage", "--bound", "full", "--min-events", "0"],
    "outage_jensen": ["outage", "--bound", "jensen", "--min-events", "0"],
    "error_sim": ["error-sim", "--with-outage"],
}

# one interpreter runs the three commands with its worker count
_RUNNER = """
import sys
from dmtlab.cli import dispatch
config, book, workers, out = sys.argv[1:]
runs = {runs!r}
for name, argv in runs.items():
    extra = ["--codebook", book] if argv[0] == "error-sim" else []
    code = dispatch(argv + ["--config", config, *extra, "--workers", workers,
                            "--out", f"{{out}}/{{name}}.csv"])
    assert code == 0, (name, code)
"""


def _run(tmp_path, workers, blas_threads):
    out = tmp_path / f"w{workers}_t{blas_threads}"
    out.mkdir()
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", _RUNNER.format(runs=COMMANDS),
                    str(tmp_path / "config.json"), str(tmp_path / "book.json"),
                    str(workers), str(out)], env=env, check=True, timeout=300)
    return {name: (out / f"{name}.csv").read_bytes() for name in COMMANDS}


def test_csv_bytes_do_not_depend_on_workers_or_blas_threads(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    words = complex_normal(spawn_rng(78), (16, 2 * 4))
    words /= np.abs(words)  # unit-modulus entries meet the power constraint
    book = {"mt": 2, "n": 4, "snr": 10.0, "r": 1.0,
            "words": np.stack((words.real, words.imag), axis=-1).tolist()}
    (tmp_path / "book.json").write_text(json.dumps(book))
    ref = _run(tmp_path, 1, 1)
    for workers, blas_threads in ((2, 1), (1, 2), (2, 2), (4, 1)):
        assert _run(tmp_path, workers, blas_threads) == ref
    # every row ran the full trial count and saw events at the lowest SNR
    for name, text in ref.items():
        rows = text.decode().splitlines()
        assert len(rows) == 1 + len(CONFIG["snr_db"])
        assert all(int(row.split(",")[4]) == CONFIG["trials"] for row in rows[1:])
        assert float(rows[1].split(",")[1]) > 0

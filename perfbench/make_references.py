"""Regenerate perfbench/references.json.

    python3 perfbench/make_references.py

Runs every workload in this process on inputs made from reference seeds
(never used as run seeds) with many more trials than a benchmark
iteration, through the same ``workloads`` code the benchmark runs:

- outage rows: one config at ``REF_SEED``, ``OUTAGE_TRIALS`` trials per SNR;
- error-sim rows: the codebook is drawn from the run seed, so the reference
  is the mean and spread over ``ERROR_CODEBOOKS`` codebooks, each at
  ``ERROR_TRIALS`` trials per SNR;
- design_verify: the searched permutations with their exact metrics, and
  the exit code of every CLI command.

Takes about five minutes on two cores.
"""

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REF_SEED = 1_000_003
OUTAGE_TRIALS = 2 ** 24
ERROR_CODEBOOKS = 8
ERROR_TRIALS = 2 ** 17


def _rows(path, column):
    with open(path) as fh:
        lines = fh.read().split()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return [float(row["snr_db"]) for row in rows], [float(row[column]) for row in rows]


def main():
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, str(ROOT / "src"))
    import dmtlab
    import dmtlab.cli
    import workloads

    refs = {"command": "python3 perfbench/make_references.py", "ref_seed": REF_SEED}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        workdir = Path(tmp)
        for name in ("outage_mimo_flat", "outage_siso_isi"):
            spec = workloads.prepare(name, REF_SEED, "full", workdir, dmtlab)
            argv = spec["commands"]["outage"] + ["--trials", str(OUTAGE_TRIALS)]
            code = dmtlab.cli.dispatch(argv)
            grid, prob = _rows(spec["outputs"][0], "probability")
            refs[name] = {"snr_db": grid, "probability": prob, "trials": OUTAGE_TRIALS,
                          "exit_codes": {"outage": code}}
            print(name, prob, flush=True)

        seeds = [REF_SEED + k for k in range(ERROR_CODEBOOKS)]
        rates = []
        for seed in seeds:
            spec = workloads.prepare("error_sim_ml", seed, "full", workdir, dmtlab)
            argv = spec["commands"]["error-sim"] + ["--trials", str(ERROR_TRIALS)]
            code = dmtlab.cli.dispatch(argv)
            grid, rate = _rows(spec["outputs"][0], "error_rate")
            rates.append(rate)
            print("error_sim_ml", seed, rate, flush=True)
        per_snr = list(zip(*rates))
        refs["error_sim_ml"] = {
            "snr_db": grid, "mean": [statistics.fmean(r) for r in per_snr],
            "var_between": [statistics.variance(r) for r in per_snr],
            "trials": ERROR_TRIALS, "codebook_seeds": seeds,
            "exit_codes": {"error-sim": code}}

        spec = workloads.prepare("design_verify", REF_SEED, "full", workdir, dmtlab)
        codes = workloads.execute(spec, dmtlab)
        with open(spec["chain_out"]) as fh:
            chain = json.load(fh)
        refs["design_verify"] = {
            "per_snr": [{key: row[key] for key in
                         ("snr_db", "num_words", "perms_sha256", "xi", "outer_min_product")}
                        for row in chain["per_snr"]],
            "exit_codes": codes}
        print("design_verify", codes, chain["passed"], flush=True)

    with open(HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

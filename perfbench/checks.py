"""Correctness checks of one benchmark iteration against committed references.

Monte-Carlo rows must lie within a z-bound of high-trial references made
from seeds other than the run seeds, so a declared change of random stream
still passes; exact outputs (exit codes, the searched design's metrics) must
match. Every check counts towards ``attempted``; a failed one is recorded
with what it compared.
"""

import csv
import hashlib
import json
import math

Z = 5.0
# added to the z-bound, in events: the normal approximation is too narrow
# in the upper tail of rows that see only a few events
SLACK_EVENTS = 3.0
EXACT_RTOL = 1e-9


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def output_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _within_z(tally, what, value, trials, ref_value, ref_var):
    p = min(max(ref_value, 0.0), 1.0)
    tol = Z * math.sqrt(p * (1.0 - p) / trials + ref_var) + SLACK_EVENTS / trials
    tally.check(abs(value - ref_value) <= tol,
                f"{what}: {value:.6g} vs reference {ref_value:.6g} (tolerance {tol:.3g})")


def _rel_close(a, b):
    return a is not None and b is not None and abs(a - b) <= EXACT_RTOL * max(abs(a), abs(b))


def _check_mc_rows(tally, name, result, ref, column):
    rows = _read_csv(result["outputs"][0])
    grid = [float(row["snr_db"]) for row in rows]
    if not tally.check(grid == [float(v) for v in result["snr_db"]]
                       and grid == [float(v) for v in ref["snr_db"]],
                       f"{name}: snr rows {grid} differ from the configured grid"):
        return
    for i, row in enumerate(rows):
        trials = int(row["trials"])
        tally.check(trials == result["trials"],
                    f"{name} @ {grid[i]} dB: trials {trials} != requested {result['trials']}")
        if "probability" in ref:
            ref_p = ref["probability"][i]
            ref_var = ref_p * (1.0 - ref_p) / ref["trials"]
        else:
            # the codebook is drawn from the run seed, so the reference is the
            # mean over codebooks and the spread between codebooks counts too
            ref_p = ref["mean"][i]
            ref_var = ref["var_between"][i] * (1.0 + 1.0 / len(ref["codebook_seeds"]))
        _within_z(tally, f"{name} @ {grid[i]} dB {column}", float(row[column]),
                  result["trials"], ref_p, ref_var)


def _check_design(tally, result, ref):
    with open(result["chain_out"]) as fh:
        chain = json.load(fh)
    tally.check(chain["passed"] and chain["rank_passed"], "design chain did not pass")
    ref_rows = {row["snr_db"]: row for row in ref["per_snr"]}
    for row in chain["per_snr"]:
        at = f"design @ {row['snr_db']} dB"
        tally.check(row["outer_passed"] and row["xi_passed"] and row["chain_passed"],
                    f"{at}: outer/xi/chain verdicts {row['outer_passed']}, "
                    f"{row['xi_passed']}, {row['chain_passed']}")
        expected = ref_rows.get(row["snr_db"])
        if expected is not None and expected["perms_sha256"] == row["perms_sha256"]:
            for key in ("xi", "outer_min_product"):
                tally.check(_rel_close(row[key], expected[key]),
                            f"{at}: {key} {row[key]!r} != reference {expected[key]!r}")
    pep = _read_csv(result["outputs"][-1])
    tally.check(len(pep) == 1 and 0.0 < float(pep[0]["pep_bound"]) <= 1.0,
                f"pep rows out of range: {pep}")


def check_iteration(tally, name, result, ref):
    """Checks on one child's outputs; returns their digest."""
    for key, code in ref["exit_codes"].items():
        got = result["exit_codes"].get(key)
        tally.check(got == code, f"{name}: {key} exited {got}, reference {code}")
    if name == "design_verify":
        _check_design(tally, result, ref)
    else:
        column = "error_rate" if name == "error_sim_ml" else "probability"
        _check_mc_rows(tally, name, result, ref, column)
    return output_digest(result["outputs"])

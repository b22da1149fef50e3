"""dmtlab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Runs the workload repeatedly, each iteration in a fresh single-process
interpreter (``child.py``), for about ``--seconds`` seconds, checks every
iteration's outputs and prints one JSON object as the last line of stdout:
end-to-end metrics with ``--trace 0`` and per-layer metrics with
``--trace 1``. Every value is the median over the run's iterations. The
traced run alternates untraced and traced iterations so that the tracing
overhead is measured in the same run. ``--smoke`` runs all four workloads
at tiny sizes, traced and untraced, and exits 0 when every check passes.
"""

import argparse
import compileall
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 165.0      # no iteration starts after this; exits stay under 180 s
# set-up-only children run before untraced iterations until this many set-up
# times are in, so that setup_s, the shortest and noisiest span, is a median
# of more samples than a run has iterations
SETUP_SAMPLES = 12
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)


def environment():
    """Machine, interpreter and thread settings recorded with every result."""
    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "cpu": "unknown", "python": platform.python_version(), "threads": PINNED_THREADS}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        pass
    import numpy as np
    env["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    return env


def child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(name, seed, workdir, mode, scale, trace_id, timeout):
    """Run one child; returns (exit status, rusage, spawn time, result or None)."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed), str(workdir),
           mode, scale, str(trace_id)]
    with open(workdir / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0:
        try:
            with open(workdir / "result.json") as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError):
            pass
    return proc.returncode, usage, t_spawn, result


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(result):
    """Per-layer numbers of one traced iteration."""
    spans = result["spans"]
    names = {span["id"]: span["name"] for span in spans}
    total = {}
    for span in spans:
        agg = total.setdefault(span["name"], {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0})
        agg["wall_s"] += span["wall_s"]
        agg["cpu_s"] += span["cpu_s"]
        agg["calls"] += span["calls"]
        for key, value in span["counts"].items():
            agg[key] = agg.get(key, 0) + value

    def get(name, key="wall_s"):
        return total.get(name, {}).get(key, 0)

    def self_time(name):
        children = sum(span["wall_s"] for span in spans if names.get(span["parent"]) == name)
        return get(name) - children if name in total else 0.0

    probe = result["probe"]
    outage_s = get("tradeoff.estimate_outage")
    sim_s = get("sim.simulate_error_prob")
    pairs = get("codes.pairwise_min_products", "pairs")
    evaluated, unordered = 0, 0
    if result.get("chain_out"):
        with open(result["chain_out"]) as fh:
            for row in json.load(fh)["per_snr"]:
                if row["xi_pairs_evaluated"] is not None:
                    evaluated += row["xi_pairs_evaluated"]
                    unordered += row["num_words"] * (row["num_words"] - 1) // 2
    return {
        "channel.build_covariance_s": get("channel.build_covariance"),
        "channel.draw_s": probe["wall_s"],
        "channel.draw_rate": _ratio(probe["trials"], probe["wall_s"]),
        "tradeoff.estimate_outage_s": outage_s,
        "tradeoff.trial_rate": _ratio(get("tradeoff.estimate_outage", "trials"), outage_s),
        "tradeoff.info_s": outage_s - probe["wall_s"] if outage_s else 0.0,
        "tradeoff.trials": get("tradeoff.estimate_outage", "trials"),
        "tradeoff.outage_events": get("tradeoff.estimate_outage", "events"),
        "sim.simulate_error_prob_s": sim_s,
        "sim.cpu_per_wall": _ratio(get("sim.simulate_error_prob", "cpu_s"), sim_s),
        "sim.decode_cpu_s": (get("sim.simulate_error_prob", "cpu_s") - probe["cpu_s"]
                             if sim_s else 0.0),
        "sim.errors": get("sim.simulate_error_prob", "errors"),
        "sim.pep_chernoff_s": get("sim.pep_chernoff"),
        "sim.pep_chernoff_calls": get("sim.pep_chernoff", "calls"),
        "codes.search_permutations_s": get("codes.search_permutations"),
        "codes.pairwise_min_products_s": get("codes.pairwise_min_products"),
        "codes.pairwise_min_products_pairs": pairs,
        "codes.pair_rate": _ratio(pairs, get("codes.pairwise_min_products")),
        "codes.verify_rank_r0_s": get("codes.verify_rank_r0"),
        "codes.verify_dmt_criterion_s": get("codes.verify_dmt_criterion"),
        "precoder.verify_composed_design_s": get("precoder.verify_composed_design"),
        "precoder.self_s": self_time("precoder.verify_composed_design"),
        "precoder.xi_pairs_evaluated": evaluated,
        "precoder.prune_keep_ratio": _ratio(evaluated, unordered),
        "cli.dispatch_s": get("cli.dispatch"),
        "cli.self_s": self_time("cli.dispatch"),
    }


def measure(name, seed, seconds, trace, scale, rundir, reference, min_iterations):
    """Iterate the workload for about ``seconds``; returns (tally, samples)."""
    tally = checks.Tally()
    samples = {"untraced": [], "traced": [], "setup": []}
    first_digest = None
    durations = []
    begin = time.monotonic()
    plan = itertools.cycle(("run", "trace")) if trace else itertools.repeat("run")
    for i, mode in enumerate(plan):
        elapsed = time.monotonic() - begin
        if i >= min_iterations and elapsed + statistics.median(durations) > seconds:
            break
        if elapsed > RUN_DEADLINE_S:
            break
        timeout = min(CHILD_TIMEOUT_S, RUN_DEADLINE_S + 10.0 - elapsed)
        started = time.monotonic()
        if mode == "run" and len(samples["setup"]) < SETUP_SAMPLES:
            workdir = rundir / f"setup-{i}"
            code, _, t_spawn, result = run_child(name, seed, workdir, "setup", scale, i,
                                                 timeout)
            if tally.check(code == 0 and result is not None,
                           f"set-up run {i}: child exited {code}"):
                samples["setup"].append({"setup_s": result["t_ready"] - t_spawn})
                shutil.rmtree(workdir)
        workdir = rundir / f"iteration-{i}"
        code, usage, t_spawn, result = run_child(name, seed, workdir, mode, scale, i, timeout)
        durations.append(time.monotonic() - started)
        if not tally.check(code == 0 and result is not None,
                           f"iteration {i}: child exited {code}"):
            print((workdir / "child.log").read_text()[-2000:], file=sys.stderr)
            continue
        tally.check(Path(result["dmtlab_file"]).resolve().is_relative_to(ROOT / "src"),
                    f"iteration {i}: imported dmtlab from {result['dmtlab_file']}")
        try:
            digest = checks.check_iteration(tally, name, result, reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            tally.check(False, f"iteration {i}: unreadable output: {exc!r}")
            digest = None
        if first_digest is None:
            first_digest = digest
        else:
            tally.check(digest == first_digest,
                        f"iteration {i}: output hash {digest} != first {first_digest}")
        sample = {"wall_s": result["t_done"] - t_spawn,
                  "setup_s": result["t_ready"] - t_spawn,
                  "work_rate": result["work"] / (result["t_done"] - result["t_ready"]),
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if mode == "trace":
            sample.update(layer_metrics(result))
            # paired with the untraced iteration just before it, so that
            # drift of the machine's speed over the run cancels
            base = samples["untraced"][-1]["wall_s"] if samples["untraced"] else None
            sample["trace.overhead_frac"] = sample["wall_s"] / base - 1.0 if base else 0.0
            samples["traced"].append(sample)
        else:
            samples["untraced"].append(sample)
            samples["setup"].append({"setup_s": sample["setup_s"]})
        print(json.dumps({"iteration": i, "mode": mode, "digest": digest,
                          **{k: round(v, 6) for k, v in sample.items()}}))
        shutil.rmtree(workdir)
    return tally, samples


def _median(samples, key):
    return statistics.median(sample[key] for sample in samples)


def summarize(tally, samples, trace):
    """The result line: medians of the metrics BENCHMARK.json declares."""
    metrics = {}
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if name == "pass_frac":
            value = (tally.attempted - len(tally.failures)) / tally.attempted
        elif name == "setup_s":
            value = _median(samples["setup"], name)
        else:
            value = _median(samples["traced" if trace else "untraced"], name)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics}


def run(name, seed, seconds, trace, scale, reference, min_iterations):
    """Measure in a scratch directory of the checkout; returns a result or None."""
    rundir = ROOT / ".bench_run" / f"{name}-{os.getpid()}"
    try:
        tally, samples = measure(name, seed, seconds, trace, scale, rundir,
                                 reference, min_iterations)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass
    for failure in tally.failures:
        print(f"check failed: {failure}")
    if not samples["untraced"] or (trace and not samples["traced"]):
        return None
    return tally, samples


def smoke(seed, references):
    """Every workload at tiny size, one untraced and one traced iteration.

    Passes when every check passes and both result lines carry exactly the
    metrics BENCHMARK.json declares.
    """
    failed = 0
    for name in workloads.NAMES:
        measured = run(name, seed, 0.0, 1, "smoke", references[name], 2)
        ok = measured is not None
        if ok:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                report = summarize(*measured, trace)
                declared = [metric["name"] for metric in SPEC[section]]
                ok = ok and report["correct"] and list(report["metrics"]) == declared
                print(json.dumps(report))
        failed += not ok
        print(f"smoke {name}: {'ok' if ok else 'FAILED'}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny sizes, traced and untraced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "dmtlab" / "__init__.py").is_file():
        print(f"error: no dmtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with open(REFERENCES) as fh:
            references = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {REFERENCES}: {exc}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    print(json.dumps({"environment": environment()}))
    if args.smoke:
        return smoke(args.seed, references)
    measured = run(args.workload, args.seed, args.seconds, args.trace, "full",
                   references[args.workload], 4 if args.trace else 3)
    if measured is None:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    print(json.dumps(summarize(*measured, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

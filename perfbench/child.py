"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <workdir> <mode> <scale> <trace id>

Imports dmtlab from the checkout's ``src``, writes the workload's inputs
from the seed, runs it and writes ``result.json`` into ``workdir`` with
monotonic timestamps (comparable with the driver's on Linux), the exit
code of every dispatch and, when traced, the spans and the draw probe.
``mode`` is ``run``, ``trace`` (wrap the layers in spans) or ``setup``
(stop once the inputs are ready).
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    name, seed, workdir, mode, scale, trace_id = argv
    workdir = Path(workdir)
    import dmtlab
    import dmtlab.cli
    import workloads

    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer(int(trace_id))
        tracer.install()
    spec = workloads.prepare(name, int(seed), scale, workdir, dmtlab)
    t_ready = time.monotonic()
    if mode == "setup":
        with open(workdir / "result.json", "w") as fh:
            json.dump({"t_ready": t_ready}, fh)
        return 0
    exit_codes = workloads.execute(spec, dmtlab)
    t_done = time.monotonic()
    result = {"t_ready": t_ready, "t_done": t_done,
              "exit_codes": exit_codes, "outputs": spec["outputs"],
              "chain_out": spec.get("chain_out"), "work": spec["work"],
              "trials": spec.get("trials"), "snr_db": spec.get("snr_db"),
              "dmtlab_file": dmtlab.__file__}
    if tracer is not None:
        result["spans"] = tracer.spans()
        trials, wall, cpu = workloads.draw_probe(spec, dmtlab)
        result["probe"] = {"trials": trials, "wall_s": wall, "cpu_s": cpu}
    with open(workdir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

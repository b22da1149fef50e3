"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public dmtlab functions, as each calling module sees
them, with wrappers that record a span per call. Spans are aggregated by
(parent span, name): a function called 50 000 times under one parent is
one record with ``calls`` = 50 000, which keeps the per-call cost to two
clock reads. Records stay in memory until the child writes them out.

Wrapped functions are only called from the main thread (the estimators'
worker threads call unwrapped internals), so a plain list is the span stack.
"""

import functools
import importlib
import time
from math import comb


def _pairs_of_words(args, kwargs, result):
    words = kwargs.get("words", args[0] if args else None)
    return {"pairs": comb(len(words), 2)}


def _outage_counts(args, kwargs, result):
    return {"trials": result.trials, "events": result.outage_events}


def _error_counts(args, kwargs, result):
    return {"trials": result.trials, "errors": result.errors}


# span name -> (calling module, attribute name, work counter); each caller
# binds its own name at import, so each binding is wrapped where it is used
TARGETS = (
    ("channel.build_covariance", "dmtlab", "build_covariance", None),
    ("channel.build_covariance", "dmtlab.cli", "build_covariance", None),
    ("tradeoff.estimate_outage", "dmtlab.cli", "estimate_outage", _outage_counts),
    ("sim.simulate_error_prob", "dmtlab.cli", "simulate_error_prob", _error_counts),
    ("sim.pep_chernoff", "dmtlab.cli", "pep_chernoff", None),
    ("codes.search_permutations", "dmtlab", "search_permutations", None),
    ("codes.pairwise_min_products", "dmtlab.codes", "pairwise_min_products", _pairs_of_words),
    ("codes.pairwise_min_products", "dmtlab.precoder", "pairwise_min_products", _pairs_of_words),
    ("codes.verify_rank_r0", "dmtlab.cli", "verify_rank_r0", None),
    ("codes.verify_dmt_criterion", "dmtlab.cli", "verify_dmt_criterion", None),
    ("precoder.verify_composed_design", "dmtlab", "verify_composed_design", None),
    ("cli.dispatch", "dmtlab.cli", "dispatch", None),
)


class Tracer:
    def __init__(self, trace_id):
        self.trace_id = trace_id
        self._records = {}
        self._stack = [0]

    def install(self):
        """Wrap every target that exists; a missing one reports as 0."""
        for name, module_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, name, counter))

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1]
            rec = self._records.get((parent, name))
            if rec is None:
                rec = {"id": len(self._records) + 1, "parent": parent, "name": name,
                       "trace": self.trace_id, "calls": 0, "wall_s": 0.0, "cpu_s": 0.0,
                       "start": time.monotonic(), "end": 0.0, "counts": {}}
                self._records[(parent, name)] = rec
            self._stack.append(rec["id"])
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["wall_s"] += time.perf_counter() - wall0
                rec["cpu_s"] += time.process_time() - cpu0
                rec["calls"] += 1
                rec["end"] = time.monotonic()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    rec["counts"][key] = rec["counts"].get(key, 0) + int(value)
            return result
        return traced

    def spans(self):
        return list(self._records.values())

"""Run one round of a workload through ``polartls.cli.main`` in this process.

    python3 bench/inprocess.py SPEC.json RESULT.json [--trace]

SPEC.json holds ``{"ops": [argv, ...]}`` (arguments after ``polartls``);
the current directory receives the outputs.  With ``--trace`` the
cross-module names each polartls module imports are replaced by
wrappers that record one span per call (layer, start, end, parent), and
self time and calls per layer are derived from the spans after the
round.  Spans are recorded here, from outside the program; the program
itself is not changed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import threading
import time
from array import array

LAYERS = ("cli", "rates", "overlaps", "numerics", "ladder", "cascade")

# module -> {imported name: layer of the function behind it}.  Every
# function one polartls module imports from another is wrapped; classes
# are not, so a constructor (ModelParams validation, say) counts toward
# its caller's self time.
WRAPPED = {
    "polartls.cli": {
        "total_rate": "rates", "partial_rate": "rates", "suppression_rate_e0": "rates",
        "absorption_rate_g1": "rates", "semiclassical_totals": "rates", "gamma0_si": "rates",
        "overlap_exact": "overlaps", "overlap_bessel": "overlaps",
        "sample_ensemble": "cascade", "emission_spectrum": "cascade",
        "write_trajectory_log": "cascade", "allowed_final_indices": "ladder",
    },
    "polartls.rates": {
        "overlap_log_abs": "overlaps", "photon_frequency": "ladder",
        "allowed_final_indices": "ladder", "bessel_j": "numerics",
        "_bessel_j_orders": "numerics", "bessel_truncation_order": "numerics",
    },
    "polartls.overlaps": {
        "assoc_laguerre": "numerics", "assoc_laguerre_sequence": "numerics",
        "bessel_j": "numerics", "_signed_log_sum_arrays": "numerics",
    },
    "polartls.cascade": {"total_rate": "rates"},
}


class Tracer:
    """Spans in flat arrays: layer index, start, end and parent span id.

    A span opened on a worker thread with nothing open on that thread is
    parented to the innermost span open on the main thread, which is the
    call that started the workers.
    """

    def __init__(self):
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.lock = threading.Lock()
        self.local = threading.local()
        self.main_stack = self.local.stack = []
        self.kernel_builds = 0
        self.channels = 0
        self.live_channels = 0

    def call(self, fn, layer, *args, **kwargs):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        outer = stack or self.main_stack
        with self.lock:
            span = len(self.layer)
            self.layer.append(layer)
            self.parent.append(outer[-1] if outer else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        stack.append(span)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[span] = time.perf_counter()
            self.start[span] = t0
            stack.pop()

    def count_channels(self, channels, live):
        with self.lock:
            self.channels += channels
            self.live_channels += live

    def install(self):
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for name, layer in names.items():
                setattr(module, name, self._wrapper(module_name, name, getattr(module, name),
                                                    LAYERS.index(layer)))

    def _wrapper(self, module_name, name, fn, layer):
        if name == "total_rate":
            cascade = module_name == "polartls.cascade"

            def wrapper(*args, **kwargs):
                table = self.call(fn, layer, *args, **kwargs)
                live = sum(t.rate_over_gamma0 > 0.0 for t in table.transitions)
                self.count_channels(len(table.transitions), live)
                if cascade:
                    with self.lock:
                        self.kernel_builds += 1
                return table
        elif name == "partial_rate":
            def wrapper(*args, **kwargs):
                value = self.call(fn, layer, *args, **kwargs)
                self.count_channels(1, int(value > 0.0))
                return value
        else:
            def wrapper(*args, **kwargs):
                return self.call(fn, layer, *args, **kwargs)
        return wrapper

    def layer_metrics(self):
        """Self time (span minus the union of its children's intervals) and calls."""
        children = {}
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(span)
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for span, layer in enumerate(self.layer):
            lo, hi = self.start[span], self.end[span]
            covered, reach = 0.0, lo
            for start, end in sorted((self.start[c], self.end[c]) for c in children.get(span, ())):
                start, end = max(start, reach), min(end, hi)
                if end > start:
                    covered += end - start
                    reach = end
            self_s[layer] += hi - lo - covered
            calls[layer] += 1
        metrics = {}
        for i, name in enumerate(LAYERS):
            metrics[f"{name}.self_s"] = self_s[i]
            metrics[f"{name}.calls"] = calls[i]
        metrics["cascade.kernel_builds"] = self.kernel_builds
        metrics["rates.channels_evaluated"] = self.channels
        metrics["rates.live_channel_share"] = self.live_channels / max(1, self.channels)
        return metrics


def main():
    spec_path, result_path = sys.argv[1], sys.argv[2]
    traced = "--trace" in sys.argv[3:]
    with open(spec_path, encoding="utf-8") as handle:
        ops = json.load(handle)["ops"]
    import polartls.cli

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    walls, codes, stdouts, stderrs = [], [], [], []
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if tracer:
                code = tracer.call(polartls.cli.main, LAYERS.index("cli"), argv)
            else:
                code = polartls.cli.main(argv)
            walls.append(time.perf_counter() - t0)
        codes.append(code)
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
    result = {"walls": walls, "codes": codes, "stdouts": stdouts, "stderrs": stderrs}
    if tracer:
        result["layers"] = tracer.layer_metrics()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()

"""Benchmark of polartls: workloads of real ``python -m polartls`` runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the package in ``src/`` and
writes only under ``.bench_work/``.

``--trace 0`` repeats whole rounds of the workload's CLI invocations
until S seconds of invocation wall time are measured, checks the first
round's outputs against independent computations (``reference.py``)
and every later round's outputs against the first, and reports the
end-to-end metrics.  ``--trace 1`` runs one round in-process twice,
untraced and traced, and reports per-layer self time and calls, the
tracing overhead, and the per-layer micro-timings of ``layers.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This process imports only the standard library: a child's peak RSS, as
the kernel reports it, starts at the RSS of the process that spawned
it.  The workload's invocations are made, and their outputs checked
(with numpy, scipy and mpmath), in children of their own that run
``workloads.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A trivial invocation: interpreter start, imports and argument parsing.
# It runs SETUP_REPEATS times before the rounds and once before each
# round, so its median samples the whole run.
SETUP_ARGV = ["gamma0", "--omega0", "2.4e15", "--dipole-debye", "1"]
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

# The cores this benchmark runs on are shared, and a fixed amount of work
# takes tens of percent longer or shorter from one minute to the next
# (README).  A fixed pure-Python loop is timed in this process before
# every invocation, and the end-to-end times are scaled by the loop's
# nominal time over the run's median loop time: most of the machine's
# drift cancels, while any change to polartls shows in full.  The nominal time
# is the loop's median on the reference machine of README.md.
CALIBRATION_ITERATIONS = 1_000_000
CALIBRATION_NOMINAL_S = 0.085


def calibration_loop():
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - t0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args):
    """Run the interpreter on ``args`` in WORK.

    Returns ``(wall seconds, peak RSS in MB, exit code, stdout, stderr)``.
    """
    out_path, err_path = WORK / "child.stdout", WORK / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=WORK, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def workloads_helper(*args):
    """JSON answer of ``workloads.py`` run in a child."""
    _, _, code, stdout, stderr = run_child([str(BENCH / "workloads.py"), *map(str, args)])
    if code:
        raise RuntimeError(f"workloads.py {args[0]} failed: {stderr[-2000:]}")
    return json.loads(stdout)


def keep_round(ops, stdouts, folder):
    """Move a round's outputs to ``folder`` and return their digest."""
    folder.mkdir()
    h = hashlib.sha256()
    for op, stdout in zip(ops, stdouts):
        (folder / f"{op['name']}.stdout").write_text(stdout, encoding="utf-8")
        h.update(stdout.encode())
        if op["output"]:
            os.replace(WORK / op["output"], folder / op["output"])
            h.update((folder / op["output"]).read_bytes())
    return h.hexdigest()


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what, stderr=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {stderr.strip()[-500:]}", file=sys.stderr)


def measure(args, ops, counter):
    """Whole rounds until ``args.seconds`` of invocation time; end-to-end metrics."""

    loops = []

    def invoke(argv):
        loops.append(calibration_loop())
        wall, rss, code, stdout, stderr = run_child(["-m", "polartls", *argv])
        counter.record(code == 0, " ".join(argv), stderr)
        return wall, rss, code, stdout

    invoke(SETUP_ARGV)  # fills the bytecode and file caches before timing
    setup = [invoke(SETUP_ARGV)[0] for _ in range(SETUP_REPEATS)]
    rounds, first, failures = [], None, []
    while not rounds or sum(w for rnd in rounds for w, *_ in rnd) < args.seconds:
        setup.append(invoke(SETUP_ARGV)[0])
        runs = [invoke(op["argv"]) for op in ops]
        rounds.append(runs)
        if any(code for _, _, code, _ in runs):
            continue
        kept = keep_round(ops, [stdout for *_, stdout in runs], WORK / f"round{len(rounds)}")
        if first is None:
            first = (len(rounds), kept)
        elif kept != first[1]:
            failures.append(f"deterministic: round {len(rounds)} differs from the first")
        if first[0] != len(rounds):
            shutil.rmtree(WORK / f"round{len(rounds)}")
    items = {}
    if first is None:
        failures.append("no round completed without a failed invocation")
    else:
        answer = workloads_helper("check", args.workload, args.seed, args.nproc,
                                  WORK / f"round{first[0]}")
        items, failures = answer["items"], answer["failures"] + failures

    round_walls = [sum(w for w, *_ in rnd) for rnd in rounds]
    speed = CALIBRATION_NOMINAL_S / statistics.median(loops)
    print(f"rounds = {len(rounds)}, round walls (s) = {[round(w, 3) for w in round_walls]}, "
          f"setup wall median = {statistics.median(setup):.4f} s, host speed = {speed:.4f}")
    for i, op in enumerate(ops):
        print(f"  {op['name']}: median {statistics.median(rnd[i][0] for rnd in rounds):.3f} s, "
              f"{items.get(op['name'], 0)} {op['kind']}")
    for kind in sorted({op["kind"] for op in ops}):
        idx = [i for i, op in enumerate(ops) if op["kind"] == kind]
        done = sum(items.get(ops[i]["name"], 0) for i in idx) * len(rounds)
        spent = sum(rnd[i][0] for rnd in rounds for i in idx)
        print(f"{kind}_per_s = {done / spent:.6g}  ({done} {kind} in {spent:.3f} s)")
    metrics = {
        "setup_s": (statistics.median(setup) * speed, "s"),
        "round_s": (statistics.median(round_walls) * speed, "s"),
        "peak_rss_mb": (max(rss for rnd in rounds for _, rss, *_ in rnd), "MB"),
    }
    return metrics, failures


def trace(args, ops, counter):
    """One round untraced and one traced, in-process; then the micro-timings."""
    spec = WORK / "ops.json"
    spec.write_text(json.dumps({"ops": [op["argv"] for op in ops]}), encoding="utf-8")
    results, digests, failures = {}, {}, []
    for mode in ("untraced", "traced"):
        out = WORK / f"{mode}.json"
        flags = ["--trace"] if mode == "traced" else []
        *_, code, _, stderr = run_child([str(BENCH / "inprocess.py"), str(spec), str(out), *flags])
        if code:
            raise RuntimeError(f"{mode} round crashed: {stderr[-2000:]}")
        res = results[mode] = json.loads(out.read_text(encoding="utf-8"))
        for op, code, err in zip(ops, res["codes"], res["stderrs"]):
            counter.record(code == 0, f"{mode} {op['name']}", err)
        if not any(res["codes"]):
            digests[mode] = keep_round(ops, res["stdouts"], WORK / mode)
    if len(digests) < 2:
        failures.append("no round completed without a failed invocation")
    else:
        failures += workloads_helper("check", args.workload, args.seed, args.nproc,
                                     WORK / "traced")["failures"]
        if digests["traced"] != digests["untraced"]:
            failures.append("deterministic: traced round differs from the untraced one")

    untraced, traced = sum(results["untraced"]["walls"]), sum(results["traced"]["walls"])
    metrics = {name: (value, unit_of(name)) for name, value in results["traced"]["layers"].items()}
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")

    out = WORK / "layers.json"
    *_, code, _, stderr = run_child([str(BENCH / "layers.py"), str(out), str(args.nproc)])
    if code:
        raise RuntimeError(f"micro-timings crashed: {stderr[-2000:]}")
    for name, value in json.loads(out.read_text(encoding="utf-8")).items():
        metrics[name] = (value, unit_of(name))
    return metrics, failures


def unit_of(name):
    """Per-layer metric names end in their unit."""
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_points_per_s", "points/s"), ("_share", "share"),
                         ("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "polartls" / "__init__.py").is_file():
        print(f"error: no polartls package under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    args.nproc = len(os.sched_getaffinity(0))
    counter = Counter()
    try:
        ops = workloads_helper("ops", args.workload, args.seed, args.nproc)
        metrics, failures = (trace if args.trace else measure)(args, ops, counter)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {counter.attempted}, failed = {counter.failed}, correct = {not failures}")
    print(json.dumps({
        "correct": not failures,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

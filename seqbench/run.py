"""Benchmark of seqrecon's Monte Carlo loop, decoder and oracle sweep.

Run from the root of a seqrecon checkout:

    python3 seqbench/run.py --workload sim_heavy_q4 --seed 1 --seconds 15 --trace 0

It imports seqrecon from `src/` of the current directory, runs whole rounds
of the workload's fixed operations in this one process (no pool, no
threads) until `--seconds` have passed and at least 100 operations ran,
checks every output, and prints as its last line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from a traced run.  Timings are scaled to a reference host speed (see
HOST_REF_MS).  Lines before it give the host loop time, the rounds run, the
unscaled metrics, the self-test and a digest of the fixed-seed results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# The keys of workloads.WORKLOADS, known before seqrecon is imported.
NAMES = ("sim_heavy_q4", "sim_light_q4", "decode_q8_n400", "extremal_sweep")
# An operation's latency is its median over the run's rounds: on a shared
# virtual machine speed can change by 10-20% within seconds, and the median
# of many short rounds keeps a slow spell out of it.  The fastest round
# would drift with the number of rounds, which follows the host's speed.
# Whole rounds run until `--seconds` passed and at least MIN_OPS operations
# ran.
MIN_OPS = 100
SETUP_REPEATS = 7
# Every timing is reported scaled to a host on which HostLoop takes
# HOST_REF_MS: raw time x HOST_REF_MS / (HostLoop's time around it).  The
# host's speed drifts by 20-30% within minutes, far past the bounds; HostLoop
# runs no seqrecon code, so a change in the program moves the scaled figures
# as much as the raw ones.  The raw figures are printed as well.
HOST_REF_MS = 5.0


def fail(message: str) -> None:
    print(f"seqbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(src: str):
    if not os.path.isfile(os.path.join(src, "seqrecon", "__init__.py")):
        fail(f"no seqrecon package under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import seqrecon

    if not os.path.realpath(seqrecon.__file__).startswith(os.path.realpath(src) + os.sep):
        fail(f"imported seqrecon from {seqrecon.__file__}, not from {src}")


class HostLoop:
    """A fixed pure-Python loop that runs no seqrecon code: string slicing
    and dict counting, the kind of work the program does.  It is timed
    between operations every HOST_EVERY_S seconds of the run, outside the
    operations' timing.  An end-to-end timing is scaled by the samples
    around it, a per-layer one by the run's median (see HOST_REF_MS)."""

    HOST_EVERY_S = 0.25

    def __init__(self):
        rng = random.Random(0)
        self.words = ["".join(rng.choice("0123") for _ in range(60)) for _ in range(1000)]
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def tick(self) -> int:
        """Samples if one is due; the mark of what is timed next."""
        if time.perf_counter() - self.last >= self.HOST_EVERY_S:
            self.sample()
        return len(self.samples)

    def sample(self) -> None:
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for word in self.words:
            for i in range(0, 54, 6):
                key = word[i : i + 6]
                counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    def local(self, seconds: float, mark: int) -> float:
        """`seconds` timed at `mark`, scaled by the two samples before and
        the two after it."""
        around = self.samples[max(0, mark - 2) : mark + 2]
        return seconds * HOST_REF_MS / (statistics.median(around) * 1e3)

    def scaled(self, metrics: dict) -> dict:
        """Timings in `metrics` scaled by the run's median sample."""
        speed = HOST_REF_MS / self.median_ms()
        factor = {"s": speed, "ms": speed, "us": speed, "ns": speed, "1/s": 1 / speed}
        return {k: metric(m["value"] * factor.get(m["unit"], 1), m["unit"]) for k, m in metrics.items()}


def setup_seconds(src: str, module: str, host: HostLoop) -> list[tuple[float, int]]:
    """Times to import the seqrecon module a workload calls in a fresh
    interpreter, measured inside it so interpreter start-up is left out,
    each with its host mark."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {src!r})\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        times.append((float(out.stdout), len(host.samples)))
        host.sample()
    return times


class Runner:
    """Runs operations, keeps the first result of each and checks it; a
    later round must reproduce the first result exactly."""

    def __init__(self, workload, checker):
        self.workload = workload
        self.checker = checker
        self.results: dict[int, dict] = {}
        self.units: dict[int, int] = {}
        self.bad: set[int] = set()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.host: HostLoop | None = None
        self.marks: list[list[int]] = []  # host marks of each run() call's operations

    def run(self, ops, call) -> list[float]:
        """Seconds per operation, in order; `call` runs one operation."""
        times = []
        marks = []
        self.marks.append(marks)
        for op in ops:
            if self.host:
                marks.append(self.host.tick())
            self.attempted += 1
            start = time.perf_counter()
            try:
                raw = call(op)
            except Exception:
                times.append(time.perf_counter() - start)
                self._fail(op, traceback.format_exc())
                continue
            times.append(time.perf_counter() - start)
            self._record(op, self.workload.normalize(raw))
        return times

    def _record(self, op, result: dict) -> None:
        if op.index not in self.results:
            self.results[op.index] = result
            problems = self.checker(op, result)
            if problems:
                self.bad.add(op.index)
                self.problems.extend(f"op {op.params}: {p}" for p in problems)
            else:
                self.units[op.index] = self.workload.units(op, result)
        elif result != self.results[op.index]:
            self._fail(op, "result differs from the first run of the same operation")
            return
        if op.index in self.bad:
            self.failed += 1

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        self.problems.append(f"op {op.params}: {why}")


def timed_rounds(runner: Runner, ops, call, seconds: float, min_ops: int) -> list[list[float]]:
    """Whole rounds until `seconds` passed and `min_ops` operations ran; the
    seconds of each round's operations, in the order of `ops`."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds or len(rounds) * len(ops) < min_ops:
        rounds.append(runner.run(ops, call))
    return rounds


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_metrics(setup: list[float], rounds: list[list[float]], work: int) -> dict:
    typical = [statistics.median(op_times) for op_times in zip(*rounds)]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": metric(work / sum(typical), "1/s"),
        "op_ms_p50": metric(statistics.median(typical) * 1e3, "ms"),
        "op_ms_p90": metric(statistics.quantiles(typical, n=10)[8] * 1e3, "ms"),
    }


def end_to_end(args, workload, ops, runner, src) -> dict:
    host = runner.host = HostLoop()
    setup = setup_seconds(src, workload.module, host)
    rounds = timed_rounds(runner, ops, workload.call, args.seconds, MIN_OPS)
    host.sample()
    print(f"host_loop_ms {host.median_ms()} samples {len(host.samples)}")
    print(f"rounds {len(rounds)} ops_per_round {len(ops)} timed_s {sum(map(sum, rounds))}")
    work = sum(runner.units.get(op.index, 0) for op in ops)
    raw = run_metrics([t for t, _ in setup], rounds, work)
    print(f"unscaled {json.dumps(raw)}")
    return run_metrics(
        [host.local(t, mark) for t, mark in setup],
        [list(map(host.local, *pair)) for pair in zip(rounds, runner.marks)],
        work,
    )


def per_layer(args, workload, ops, runner) -> dict:
    """Untraced round first, as the base of the overhead; then traced rounds
    of the workload; then, for layers it does not reach, a traced probe of
    the workload that does."""
    import checks
    import tracing
    import workloads

    host = runner.host = HostLoop()
    base = runner.run(ops, workload.call)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_call = tracer.wrap(workload.call, workload.span)
        rounds = timed_rounds(runner, ops, traced_call, args.seconds, 0)
        print(f"rounds {len(rounds)} traced, 1 untraced; ops_per_round {len(ops)}")
        found = tracing.layer_metrics(tracer.take())
        for name, other in workloads.WORKLOADS.items():
            missing = [m for m in tracing.METRICS if m not in found and m.startswith(other.layers)]
            if other is workload or not missing:
                continue
            probe_runner = Runner(other, checks.checker_for(other))
            with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as workdir:
                probe = other.probe(other.build(args.seed, workdir))
                probe_runner.run(probe, tracer.wrap(other.call, other.span))
            runner.attempted += probe_runner.attempted
            runner.failed += probe_runner.failed
            runner.problems += probe_runner.problems
            filled = {m: v for m, v in tracing.layer_metrics(tracer.take()).items() if m in missing}
            found.update(filled)
            if filled:
                print(f"measured on a probe of {len(probe)} {name} ops: {' '.join(sorted(filled))}")
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        print(f"not found, not traced: {name}")
    out = {}
    for name, (unit, _) in tracing.METRICS.items():
        if name in found:
            out[name] = metric(found[name], unit)
        else:
            print(f"not measured: {name}")
    host.sample()
    print(f"host_loop_ms {host.median_ms()} samples {len(host.samples)}")
    out["trace.overhead_pct"] = metric(overhead_pct(base, rounds), "%")
    print(f"unscaled {json.dumps(out)}")
    base, *rounds = [list(map(host.local, *pair)) for pair in zip([base] + rounds, runner.marks)]
    out = host.scaled(out)
    out["trace.overhead_pct"] = metric(overhead_pct(base, rounds), "%")
    return out


def overhead_pct(untraced: list[float], traced_rounds: list[list[float]]) -> float:
    """Traced over untraced time of the round, each operation's traced time
    being its median over the traced rounds."""
    traced = sum(statistics.median(op_times) for op_times in zip(*traced_rounds))
    return (traced / sum(untraced) - 1) * 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    import_program(src)
    import checks
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, checks.checker_for(workload))
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as workdir:
        ops = workload.build(args.seed, workdir)
        if args.trace:
            metrics = per_layer(args, workload, ops, runner)
        else:
            metrics = end_to_end(args, workload, ops, runner, src)
        accepted = checks.self_test(workload, ops, runner.results)
    if accepted:
        print(f"self-test: checks accepted corrupted results: {accepted}", file=sys.stderr)
    else:
        print("self-test: every check rejected its corrupted result")
    for problem in runner.problems[:20]:
        print(f"failed: {problem}", file=sys.stderr)
    digest = json.dumps(workloads.digest_lines(workload, ops, runner.results), sort_keys=True)
    print(f"digest {args.workload} seed {args.seed} sha256 {hashlib.sha256(digest.encode()).hexdigest()}")
    result = {
        "correct": runner.failed == 0 and not accepted,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

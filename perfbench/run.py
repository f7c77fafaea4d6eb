"""The repository benchmark: one workload per run, every answer checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload served_oltp --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
first half of the time untraced and the second half with span
wrappers installed, and prints the per-layer metrics (see
``perfbench/README.md`` for the layer map).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the workload's properties.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
from collections import Counter
from functools import partial
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
STALL_S = 0.25  # the default admission queue-wait deadline
# The host's speed drifts 1.3-1.5x over seconds to minutes, and the
# program slows down with a fixed loop (see README "Noise").  Every timing
# is therefore scaled to a reference speed: the run is cut into slices,
# a fixed pure-Python loop is timed between slices while no statement is
# in flight, and a time measured while the loop took ``c`` seconds is
# reported as ``time * CAL_REF_S / c``.
SLICE_S = 0.5
CAL_REF_S = 0.002  # the loop's time at the reference speed
CAL_WINDOW = 2  # slices on each side whose loop times a slice's scale uses


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def calibrate() -> float:
    """Seconds the calibration loop takes now (median of three)."""
    times = []
    for __ in range(3):
        started = perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        times.append(perf_counter() - started)
    return sorted(times)[1]


class Sample:
    """Per-statement outcomes of one measured phase.  ``latency`` and
    ``elapsed`` are at the reference speed, ``raw`` and
    ``raw_elapsed`` as measured."""

    def __init__(self):
        self.latency = {"read": [], "write": []}
        self.raw = {"read": [], "write": []}
        self.timed: list[tuple] = []  # (slice, kind, seconds)
        self.wrong = 0
        self.raised = Counter()
        self.retries = 0
        self.stalls = 0
        self.texts: list[str] = []
        self.elapsed = 0.0
        self.raw_elapsed = 0.0
        self.calibration: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.latency["read"]) + len(self.latency["write"])

    @property
    def failed(self) -> int:
        return self.wrong + sum(self.raised.values())

    def absorb(self, other: "Sample") -> None:
        for kind in ("read", "write"):
            self.latency[kind].extend(other.latency[kind])
            self.raw[kind].extend(other.raw[kind])
        self.timed.extend(other.timed)
        self.wrong += other.wrong
        self.raised.update(other.raised)
        self.retries += other.retries
        self.stalls += other.stalls
        self.texts.extend(other.texts)
        self.elapsed += other.elapsed
        self.raw_elapsed += other.raw_elapsed
        self.calibration.extend(other.calibration)

    def scale(self, walls: list, calibration: list) -> None:
        """Scale the phase's statement times and elapsed time to the
        reference speed, slice by slice."""
        factors = []
        for k in range(len(walls)):
            near = calibration[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1]
            factors.append(CAL_REF_S / statistics.median(near))
        for k, kind, took in self.timed:
            self.raw[kind].append(took)
            self.latency[kind].append(took * factors[k])
        self.timed = []
        self.raw_elapsed = sum(walls)
        self.elapsed = sum(w * f for w, f in zip(walls, factors))
        self.calibration = list(calibration)


def run_phase(workload, streams, seconds: float, tracer=None) -> Sample:
    """Closed loop: each client issues its next statement as soon as
    the previous one returned, until ``seconds`` have passed.  Between
    slices of ``SLICE_S`` every client is idle while the calibration
    loop runs."""
    sample = Sample()
    lock = threading.Lock()
    requests = iter(range(1, 1 << 62))
    now = {"slice": 0, "end": 0.0}

    def client_slice(c: int) -> None:
        local = Sample()
        stream, k, end = streams[c], now["slice"], now["end"]
        while perf_counter() < end:
            op = next(stream)
            root = (tracer.begin("client", request=next(requests))
                    if tracer is not None else None)
            started = perf_counter()
            try:
                result = workload.call(c, op)
                error = None
            except Exception as exc:  # a failed statement, counted below
                error = exc
            took = perf_counter() - started
            if root is not None:
                tracer.end(root)
            local.retries += workload.retries(c)
            local.timed.append((k, op.kind, took))
            local.texts.append(op.sql)
            if took > STALL_S:
                local.stalls += 1
            if error is not None:
                local.raised[type(error).__name__] += 1
            elif not op.check(result):
                local.wrong += 1
            elif op.commit is not None:
                op.commit()
        with lock:
            sample.absorb(local)

    threads, errors = [], []
    if workload.clients == 1:
        run_slice = partial(client_slice, 0)
    else:
        gate = threading.Barrier(workload.clients + 1)

        def client(c: int) -> None:
            try:
                while True:
                    gate.wait()  # the slice starts
                    if now["end"] is None:
                        return
                    client_slice(c)
                    gate.wait()  # every client is idle
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
                gate.abort()

        def run_slice() -> None:
            gate.wait()
            gate.wait()

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(workload.clients)]
        for t in threads:
            t.start()
    walls, calibration = [], []
    deadline = perf_counter() + seconds
    completed = False
    try:
        while (started := perf_counter()) < deadline:
            now["end"] = min(started + SLICE_S, deadline)
            run_slice()
            walls.append(perf_counter() - started)
            calibration.append(calibrate())
            now["slice"] += 1
        completed = True
    except threading.BrokenBarrierError:
        pass  # a client failed: its error is raised below
    finally:
        if threads:
            now["end"] = None
            if completed:
                gate.wait()  # the clients see the end and return
            else:
                gate.abort()
            for t in threads:
                t.join()
    if errors:
        raise errors[0]
    sample.scale(walls, calibration)
    return sample


def end_to_end(sample: Sample, setup_s: float, raw: bool = False) -> dict:
    """The end-to-end metrics, at the reference speed (or as measured,
    with ``raw``)."""
    latency = sample.raw if raw else sample.latency
    reads, writes = latency["read"], latency["write"]
    completed = sample.attempted - sample.failed
    elapsed = sample.raw_elapsed if raw else sample.elapsed
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (setup_s, "s"),
        "read_p50_ms": (percentile(reads, 50) * 1e3, "ms"),
        "read_p90_ms": (percentile(reads, 90) * 1e3, "ms"),
        "write_p50_ms": (percentile(writes, 50) * 1e3, "ms"),
        "write_p90_ms": (percentile(writes, 90) * 1e3, "ms"),
        "throughput_ops_s": (completed / elapsed, "ops/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def properties(workload, sample: Sample, counters: dict) -> dict:
    from repro.esql.fingerprint import fingerprint_source
    templates = {fingerprint_source(t).fingerprint for t in sample.texts}
    n = max(1, sample.attempted)
    reads = sample.raw["read"]
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "clients": workload.clients,
        "tables": workload.tables(),
        "statements": sample.attempted,
        "read_share": len(reads) / n,
        "write_share": len(sample.latency["write"]) / n,
        "distinct_texts": len(set(sample.texts)),
        "templates": len(templates),
        "template_reuse_frac": 1.0 - len(templates) / n,
        "error_rate": sample.failed / n,
        "wrong_answers": sample.wrong,
        "raised": dict(sample.raised),
        "client_retries": sample.retries,
        "server_sheds": counters["sheds"],
        "pool_fallbacks": counters["fallbacks"],
        "read_p99_ms": percentile(reads, 99) * 1e3,
        "read_max_ms": max(reads) * 1e3,
        "calibration_ms": statistics.median(sample.calibration) * 1e3,
        f"stalls_over_{int(STALL_S * 1e3)}ms": sample.stalls,
    }


def time_builds(workload, reps: int, setups: list) -> None:
    """Build ``reps`` times, appending each build's time as measured
    and at the reference speed as a pair; the last build stays open."""
    for rep in range(reps):
        if rep:
            workload.close()
        # collect the last build's garbage now, not inside this one
        gc.collect()
        started = perf_counter()
        workload.build()
        took = perf_counter() - started
        setups.append((took, took * CAL_REF_S / calibrate()))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.workloads import WORKLOADS
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[workload_name](seed, OUT_DIR)
    setups = []
    try:
        time_builds(workload, workload.setup_reps, setups)
        workload.prepare()
        streams = [workload.stream(c) for c in range(workload.clients)]
        if trace:
            sample, metrics, extra = run_traced(workload, streams, seconds)
            counters = workload.counters()
        else:
            sample = run_phase(workload, streams, seconds)
            counters = workload.counters()
            # machine speed drifts over seconds: builds from both ends
            # of the run keep setup_s off any one stretch of it
            workload.close()
            time_builds(workload, workload.setup_reps, setups)
            metrics = end_to_end(
                sample, statistics.median(s for __, s in setups))
            measured = end_to_end(
                sample, statistics.median(s for s, __ in setups), raw=True)
            extra = {"measured": {name: value for name, (value, __)
                                  in measured.items()}}
    finally:
        workload.close()
    props = properties(workload, sample, counters)
    props.update(extra)
    if trace:
        for name in ("template_reuse_frac", "error_rate"):
            metrics[name] = (props[name], "frac")
    print(json.dumps(props, sort_keys=True))
    return {
        "correct": sample.wrong == 0,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_traced(workload, streams, seconds: float):
    from perfbench import tracing
    plain = run_phase(workload, streams, seconds / 2)
    os.environ["PERFBENCH_WORKER_TRACE"] = "1"
    os.environ["PERFBENCH_ROOT"] = ROOT
    hook = os.path.join(BENCH_DIR, "worker_hook")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = hook + (os.pathsep + path if path else "")
    workload.trace_workers()
    tracer = tracing.Tracer()
    before = workload.counters()
    tracing.install(tracer)
    try:
        traced = run_phase(workload, streams, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    after = workload.counters()
    tracer.dump(os.path.join(
        OUT_DIR, f"spans-{workload.name}-{workload.seed}.jsonl"))
    layers = tracing.summarize(tracer)
    layers["server.sheds"] = (after["sheds"] - before["sheds"], "count")
    layers["server.retries"] = (traced.retries, "count")
    layers["pool.fallbacks"] = (after["fallbacks"] - before["fallbacks"],
                                "count")
    layers["pool.retries"] = (after["pool_retries"]
                              - before["pool_retries"], "count")
    overhead = (percentile(traced.latency["read"], 50)
                / percentile(plain.latency["read"], 50)) - 1.0
    layers["trace_overhead_frac"] = (overhead, "frac")
    both = Sample()
    both.absorb(plain)
    both.absorb(traced)
    # the self times must add up to the client-measured time
    attributed = sum(layers[name][0]
                     for name in tracing.SELF_TIME_METRICS.values())
    return both, layers, {
        "trace_identity_gap_ms": layers["client_ms"][0] - attributed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # every thread and pool worker of the run shares one CPU, the one the
    # calibration loop times (see README "Noise")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import repro  # the program under test, from this checkout only
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for quadtex: verify, analyze and subshift, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-suites --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each workload alternates a heavy and a light pass over fixed lists of CLI
calls (see ``workloads.py``).  A pass is a sequence of in-process
``quadtex.cli.main([...])`` calls: one client, one call at a time, no
threads.  Every call's JSON output is parsed and checked (``checks.py``);
timing covers the calls only.  After one untimed warm-up round, rounds run
until ``--seconds`` have passed, and each timed pass is one sample.

The host's speed drifts by tens of percent over seconds, so every call is
timed together with a fixed piece of the benchmark's own work, the
reference (``Reference``), run just before and just after it.  A call's
time is scaled by REFERENCE_MS over the reference's time around it: the
time the call would take on a host where the reference takes REFERENCE_MS.
The process is pinned to one CPU, so that the call and its reference run on
the same one.

With ``--trace 0`` the last line reports the medians of the heavy and light
pass times and of the set-up time, all at reference speed, and the peak
resident memory.  With ``--trace 1`` it reports the per-layer spans and
counts of ``traced.py`` for all three workloads, so every per-layer metric
is present whichever workload is named; each workload then runs a fixed
number of untraced and traced rounds, so that the share of failed
operations is fixed.

The last line is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 when that line is printed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout, suppress

import checks
import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = tuple(workloads.BUILDERS)
SETUP_PROBES = 9
# reported times are scaled to a host on which Reference.seconds() takes this
REFERENCE_MS = 8.0
# analyze on [[6]] x [[7]] is stopped here; a Smith normal form without
# coefficient growth needs milliseconds for it
ATTEMPT_LIMIT_S = 0.5
# a traced run makes one untraced and one traced round per workload for
# every TRACE_SECONDS_PER_ROUND of --seconds (at least one)
TRACE_SECONDS_PER_ROUND = 15
CHECK_ERRORS = (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError)


class TimeLimit(Exception):
    """Raised inside a call that ran past its time limit."""


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeLimit()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Tally:
    """Operations attempted and failed; a wrong output also clears ``correct``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timeouts = 0
        self.correct = True
        self.problems: list[str] = []

    def fail(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")


def attempt(tally: Tally, limit: float, call, produce) -> None:
    """One call under the time limit; running past it counts as failed.

    ``produce()`` makes the call and returns its payload, which is checked.
    """
    tally.attempted += 1
    try:
        with time_limit(limit):
            payload = produce()
        checks.check(call, payload)
    except TimeLimit:
        tally.failed += 1
        tally.timeouts += 1
    except CHECK_ERRORS as exc:
        tally.fail(call.label(), exc)


class Reference:
    """A fixed piece of the benchmark's own work that tracks the host's speed.

    It counts patches and eliminates over ``Fraction`` with the oracle's
    code, which does not import quadtex, so a change to the program cannot
    move it.  It takes about 8 ms.
    """

    def __init__(self):
        self.fibonacci = oracle.Model(workloads.FIB, workloads.FIB, "lex")
        self.exchange = oracle.Model([[2]], [[3]], "exchange")
        self.matrix = oracle.presentation(*oracle.Model([[3]], [[4]], "exchange").quad_matrices())
        for _ in range(3):
            self.seconds()

    def seconds(self) -> float:
        start = time.perf_counter()
        self.fibonacci.count_rectangles(7, 7)
        self.exchange.count_rectangles(4, 4)
        oracle.rank_and_det(self.matrix)
        return time.perf_counter() - start


class Timer:
    """Times a sequence of operations, each bracketed by the reference.

    ``raw`` sums the measured seconds; ``scaled`` sums each operation's
    seconds times REFERENCE_MS over the geometric mean of the reference's
    time just before and just after it.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.before = reference.seconds()
        self.raw = 0.0
        self.scaled = 0.0

    def add(self, seconds: float) -> None:
        after = self.reference.seconds()
        self.raw += seconds
        self.scaled += seconds * REFERENCE_MS / 1000.0 / math.sqrt(self.before * after)
        self.before = after


class Session:
    """Runs the calls of one workload through the CLI and checks them."""

    def __init__(self, cli, tally: Tally, attempt_limit: float, reference: Reference):
        self.cli = cli
        self.tally = tally
        self.attempt_limit = attempt_limit
        self.reference = reference

    def _invoke(self, call):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(call.argv())
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    @staticmethod
    def _payload(code, out, err) -> dict:
        checks.expect(code == 0, f"exit code {code}: {err.strip()[:300]}")
        return json.loads(out)

    def run_pass(self, calls) -> Timer:
        """Seconds spent inside the calls of one pass, raw and scaled."""
        timer = Timer(self.reference)
        for call in calls:
            self.tally.attempted += 1
            elapsed, *result = self._invoke(call)
            timer.add(elapsed)
            try:
                checks.check(call, self._payload(*result))
            except CHECK_ERRORS as exc:
                self.tally.fail(call.label(), exc)
        return timer

    def run_attempt(self, call) -> None:
        attempt(self.tally, self.attempt_limit, call,
                lambda: self._payload(*self._invoke(call)[1:]))

    def run_round(self, workload) -> tuple[Timer, Timer]:
        heavy = self.run_pass(workload.heavy)
        gc.collect()
        light = self.run_pass(workload.light)
        gc.collect()
        if workload.attempt:
            self.run_attempt(workload.attempt)
            gc.collect()
        return heavy, light


def _import_cli():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from quadtex import cli

    return cli


def setup_probe(name: str, seed: int, run_dir: str) -> float:
    """Import quadtex, write the workload's documents and load each (seconds).

    The seeded draw runs first and is not timed: it is the benchmark's own
    search, it does not touch quadtex, and the number of draws it needs
    depends on the seed, so it would only add noise to the program's
    set-up time.
    """
    workload = workloads.draw(name, seed, ROOT)
    start = time.perf_counter()
    _import_cli()
    from quadtex.textile import build_system

    workloads.write(workload, run_dir)
    for doc in workload.docs():
        with open(doc.path, encoding="utf-8") as handle:
            raw = json.load(handle)
        build_system(raw["A"], raw["B"], raw.get("kappa", "lex"))
    return time.perf_counter() - start


def setup_once(name: str, seed: int, probe_dir: str) -> float:
    """Set-up time of one fresh interpreter (see ``setup_probe``), in raw seconds."""
    argv = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", name, "--seed", str(seed), "--run-dir", probe_dir,
    ]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def pin_to_one_cpu() -> None:
    """Run this process, and the set-up probes it starts, on a single CPU."""
    with suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(cli, name, seed, seconds, run_dir, tally, attempt_limit, probes, warm_up=True):
    """Timed rounds for ``seconds``; returns the heavy and light pass timers
    and the set-up timers.  The ``probes`` set-up probes are spread evenly
    over the run, between rounds, so that they see the same host as the
    passes."""
    workload = workloads.build(name, seed, ROOT, run_dir)
    reference = Reference()
    session = Session(cli, tally, attempt_limit, reference)
    if warm_up:
        session.run_round(workload)
    heavy, light, setup = [], [], []
    start = time.perf_counter()
    while True:
        h, l = session.run_round(workload)
        heavy.append(h)
        light.append(l)
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds
        while len(setup) < probes and (done or len(setup) * seconds <= elapsed * probes):
            timer = Timer(reference)
            timer.add(setup_once(name, seed, os.path.join(run_dir, f"probe-{len(setup)}")))
            setup.append(timer)
        if done:
            return heavy, light, setup


def median_of(timers, field: str) -> float:
    return statistics.median(getattr(timer, field) for timer in timers)


def run_traced(cli, seed, rounds, run_dir, tally, attempt_limit) -> dict:
    """Per-layer metrics of all workloads: medians of spans over traced rounds."""
    import traced

    metrics = {}
    reference = Reference()
    for name in WORKLOADS:
        workload = workloads.build(name, seed, ROOT, os.path.join(run_dir, name))
        session = Session(cli, tally, attempt_limit, reference)
        session.run_round(workload)
        plain = {"heavy": [], "light": []}
        recs = {"heavy": [], "light": []}
        busy = {"heavy": [], "light": []}
        for _ in range(rounds):
            h, l = session.run_round(workload)
            plain["heavy"].append(h.raw)
            plain["light"].append(l.raw)
            for kind in ("heavy", "light"):
                rec, seconds = _traced_pass(traced, getattr(workload, kind), tally)
                recs[kind].append(rec)
                busy[kind].append(seconds)
                gc.collect()
            if workload.attempt:
                attempt(tally, attempt_limit, workload.attempt,
                        lambda: traced.traced_call(traced.Recorder(), workload.attempt)[0])
        for kind in ("heavy", "light"):
            prefix = f"{name}.{kind}."
            names = sorted({k for rec in recs[kind] for k in rec.ms})
            for key in names:
                value = statistics.median(rec.ms.get(key, 0.0) for rec in recs[kind])
                metrics[f"{prefix}{key}_ms"] = metric(value, "ms")
            for key in sorted({k for rec in recs[kind] for k in rec.counts}):
                values = {rec.counts.get(key) for rec in recs[kind]}
                if len(values) != 1:
                    tally.fail(f"{prefix}{key}", RuntimeError(f"count differs: {values}"))
                metrics[f"{prefix}{key}"] = metric(values.pop(), "count")
            ratio = statistics.median(busy[kind]) / statistics.median(plain[kind])
            metrics[f"{prefix}trace_overhead_pct"] = metric(100.0 * (ratio - 1.0), "%")
    return metrics


def _traced_pass(traced, calls, tally):
    rec = traced.Recorder()
    done = []
    busy = 0.0
    for call in calls:
        tally.attempted += 1
        start = time.perf_counter()
        try:
            payload, after = traced.traced_call(rec, call)
        except Exception as exc:  # a program error is a failed operation
            tally.fail(call.label(), exc)
            continue
        finally:
            busy += time.perf_counter() - start
        done.append((call, payload, after))
    for call, payload, after in done:
        try:
            checks.check(call, payload)
            if after:
                after()
        except CHECK_ERRORS as exc:
            tally.fail(f"traced {call.label()}", exc)
    return rec, busy


def summary(tally: Tally, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
    )


def report_problems(tally: Tally) -> None:
    for line in tally.problems:
        print(f"FAILED {line}")


def remove_run_dir(run_dir: str) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
    with suppress(OSError):  # still in use by another run
        os.rmdir(os.path.dirname(run_dir))


def bench(args) -> int:
    run_dir = os.path.join(HERE, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    tally = Tally()
    try:
        if args.trace:
            cli = _import_cli()
            rounds = max(1, round(args.seconds / TRACE_SECONDS_PER_ROUND))
            metrics = run_traced(cli, args.seed, rounds, run_dir, tally, ATTEMPT_LIMIT_S)
            print(f"traced: {rounds} traced rounds per workload, {len(metrics)} metrics")
        else:
            cli = _import_cli()
            heavy, light, setup = run_untraced(
                cli, args.workload, args.seed, args.seconds, run_dir, tally, ATTEMPT_LIMIT_S,
                SETUP_PROBES,
            )
            metrics = {
                "heavy_p50_ms": metric(median_of(heavy, "scaled") * 1000.0, "ms"),
                "light_p50_ms": metric(median_of(light, "scaled") * 1000.0, "ms"),
                "setup_s": metric(median_of(setup, "scaled"), "s"),
                "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
            }
            print(
                f"{args.workload}: {len(heavy)} timed rounds; "
                f"calls attempted {tally.attempted}, failed {tally.failed} "
                f"({tally.timeouts} stopped at the {ATTEMPT_LIMIT_S} s limit); "
                f"unscaled medians: heavy {median_of(heavy, 'raw') * 1000.0:.1f} ms, "
                f"light {median_of(light, 'raw') * 1000.0:.1f} ms, "
                f"set-up {median_of(setup, 'raw'):.4f} s"
            )
    finally:
        remove_run_dir(run_dir)
    report_problems(tally)
    print(summary(tally, metrics))
    return 0


def smoke(args) -> int:
    """One short round of each workload and one traced round; seconds, not minutes."""
    run_dir = os.path.join(HERE, "runs", f"smoke-{os.getpid()}")
    tally = Tally()
    limit = 0.2
    try:
        cli = _import_cli()
        for name in WORKLOADS:
            heavy, light, setup = run_untraced(
                cli, name, args.seed, 0, os.path.join(run_dir, name), tally, limit, 1, warm_up=False
            )
            print(f"{name}: setup {setup[0].raw:.3f} s, heavy {heavy[0].raw * 1000:.1f} ms, "
                  f"light {light[0].raw * 1000:.1f} ms")
        metrics = run_traced(cli, args.seed, 1, os.path.join(run_dir, "traced"), tally, limit)
    finally:
        remove_run_dir(run_dir)
    declared = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(declared):
        with open(declared, encoding="utf-8") as handle:
            names = {m["name"] for m in json.load(handle)["per_layer"]}
        if names != set(metrics):
            tally.fail("per-layer names", RuntimeError(
                f"missing {sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}"
            ))
    report_problems(tally)
    print(summary(tally, metrics))
    return 0 if tally.correct and tally.failed == tally.timeouts else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a short self-check run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--run-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quadtex", "cli.py")):
        print(f"error: no quadtex sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.run_dir))
        return 0
    pin_to_one_cpu()
    if args.smoke:
        return smoke(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""sipcert benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process, no threads: each op starts when the previous one
has ended. The untraced run (--trace 0) times whole rounds of ops until they
add up to S host-normalized seconds (see below) and prints the end-to-end
metrics; the traced run (--trace 1) does S/2 seconds untraced, then S/2
seconds with every public sipcert function wrapped (spans.py), and prints the
per-layer metrics. Every op's report is checked (check.py) outside the
timed region. The last line of stdout is the JSON result; a fuller record,
with the environment and the raw op times, goes to perfbench/out/.

Op times in `ops_per_s` and `op_s_p50`, and set-up times in `setup_s`, are
host-normalized: the wall time of each op or set-up probe is scaled by
SAMPLE_REF_S over the median time of a fixed pure-Python loop that a SIGALRM
handler runs every 50 ms while it runs. The shared host this was built on
switches between speeds about 1.5x apart for stretches of 10-60 s, which
moved raw per-run figures by up to 40%; the samples track those switches, so
a change to sipcert moves the normalized figures and a change of host speed
mostly does not. Wall-clock figures of the ops are printed next to them.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported (setup probes inherit this).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 21
SAMPLE_EVERY_S = 0.05
SAMPLE_LOOP = 2000
SAMPLE_REF_S = 1.5e-4  # normalized seconds are wall seconds where the sample loop takes 0.15 ms
END_TO_END_UNITS = {"ops_per_s": "op/s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class HostClock:
    """Samples the host's speed while a phase runs: every SAMPLE_EVERY_S of
    wall time a SIGALRM handler times a fixed pure-Python loop (about
    0.15-0.2 ms, so about 0.4% of the time). It runs in the benchmark's one
    thread, between bytecodes of whatever is running."""

    def __init__(self):
        self.stamp = array("d")
        self.took = array("d")

    def sample(self, *_):
        t0 = time.perf_counter()
        acc = 0
        for i in range(SAMPLE_LOOP):
            acc += i * i % 7
        t1 = time.perf_counter()
        self.stamp.append(t1)
        self.took.append(t1 - t0)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def during(self, t0: float, t1: float, least: int = 5) -> float:
        """Median sample time over [t0, t1], or over the `least` samples
        nearest to its midpoint when the interval holds fewer (for a short
        op just ended, the latest samples)."""
        i0 = bisect.bisect_left(self.stamp, t0)
        i1 = bisect.bisect_right(self.stamp, t1)
        if i1 - i0 < least:
            mid = bisect.bisect_left(self.stamp, (t0 + t1) / 2)
            i0 = max(0, min(mid - least // 2, len(self.took) - least))
            i1 = min(len(self.took), i0 + least)
        return statistics.median(self.took[i0:i1])


def timed_setup(workload, seed: int):
    """Import sipcert and prepare the workload's inputs: the set-up a user
    pays before the first op (`prepare` makes the first sipcert import).
    Returns (host-normalized seconds, state)."""
    with HostClock() as clock:
        t0 = time.perf_counter()
        state = workload.prepare(seed)
        t1 = time.perf_counter()
        clock.sample()
    return (t1 - t0) * SAMPLE_REF_S / clock.during(t0, t1), state


def setup_seconds(workload_name: str, seed: int) -> list[float]:
    """Host-normalized set-up time measured in fresh interpreters, one per
    probe."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


@dataclass
class Phase:
    """Ops of one measured phase: wall times, the host sample time during
    each op (HostClock.during) and the failed ops."""

    wall: list[float] = field(default_factory=list)
    host: list[float] = field(default_factory=list)
    failures: list = field(default_factory=list)

    def normalized(self) -> list[float]:
        return [w * SAMPLE_REF_S / h for w, h in zip(self.wall, self.host)]

    def ops_per_s(self) -> float:
        return len(self.wall) / sum(self.normalized())


def measure(run, workload, state, seconds: float, first_op: int, check_op):
    """Whole rounds of ops until the ops' host-normalized time adds up to
    `seconds` (so the number of rounds does not depend on the host's speed);
    each op is checked after its timer stops. Returns (phase, next op number)."""
    phase = Phase()
    k = first_op
    with HostClock() as clock:
        while sum(phase.normalized()) < seconds:
            for _ in range(workload.ops_per_round):
                op = workload.op(state, k)
                t0 = time.perf_counter()
                try:
                    report, error = run(op), None
                except Exception as err:  # any exception is a failed op, recorded below
                    report, error = None, f"{type(err).__name__}: {err}"
                t1 = time.perf_counter()
                clock.sample()
                phase.wall.append(t1 - t0)
                phase.host.append(clock.during(t0, t1))
                problems = [error] if error else check_op(report, op.case)
                if problems:
                    phase.failures.append((op.case.label, problems))
                k += 1
    return phase, k


def tail(times: list[float]):
    """(percentile, value): the highest percentile with at least ten samples
    above it, or None when there are too few samples for a tail."""
    if len(times) < 11:
        return None
    s = sorted(times)
    j = len(s) - 11
    return 100.0 * (j + 1) / len(s), s[j]


def environment() -> dict:
    import numpy

    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "machine": platform.machine()}


def end_to_end(phase: Phase, setup: list[float]):
    """(metrics, printed-only rows, extra record) of an untraced run."""
    norm = phase.normalized()
    metrics = {
        "ops_per_s": phase.ops_per_s(),
        "op_s_p50": statistics.median(norm),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    t = tail(norm)
    rows = [
        ("op_s_tail", f"{t[1]:.6g} s at p{t[0]:.1f}" if t
         else f"n/a: a tail needs 11 samples, the run has {len(norm)}"),
        ("op samples", str(len(norm))),
        ("wall ops_per_s / op_s_p50", f"{len(norm) / sum(phase.wall):.6g} op/s / "
                                      f"{statistics.median(phase.wall):.6g} s"),
        ("host sample median", f"{statistics.median(phase.host) * 1e3:.4g} ms "
                               f"(reference {SAMPLE_REF_S * 1e3:g} ms)"),
        ("setup_s samples", f"{len(setup)} fresh interpreters"),
    ]
    return metrics, rows, {"op_s_tail": t}


def traced(run, workload, state, untraced: Phase, first_op: int, seconds: float, check_op,
           spans_path: Path):
    """Run a traced phase; returns (phase, per-layer metrics, rows, extra record)."""
    import spans

    rec = spans.Recorder()

    def traced_run(op):
        rec.op_id += 1
        rec.active = True
        try:
            return run(op)
        finally:
            rec.active = False

    undo = spans.install(rec)
    try:
        phase, _ = measure(traced_run, workload, state, seconds, first_op, check_op)
    finally:
        spans.uninstall(undo)
    # per-layer times on the same host-normalized scale as the op times
    scale = sum(phase.normalized()) / sum(phase.wall)
    metrics = spans.layer_metrics(rec, len(phase.wall), scale)
    metrics["trace.overhead_frac"] = 1.0 - phase.ops_per_s() / untraced.ops_per_s()
    spans_path.parent.mkdir(exist_ok=True)
    rec.save(spans_path)
    rows = [("traced ops", f"{len(phase.wall)} (untraced: {len(untraced.wall)})"),
            ("spans", f"{len(rec.end)} written to {spans_path.name}")]
    return phase, metrics, rows, {"span_count": len(rec.end)}


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=_positive, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "sipcert" / "__init__.py").is_file():
        print(f"error: no sipcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        print(repr(timed_setup(workload, args.seed)[0]))
        return 0

    import check

    # the traced run reports no setup_s, so it skips the probes
    setup = [] if args.trace else setup_seconds(workload.name, args.seed)
    _, state = timed_setup(workload, args.seed)
    off_minimizer = []

    def check_op(report, case):
        doc = json.loads(report)
        problems = check.check_report(doc, case)
        if not problems and check.off_minimizer(doc, case.expect):
            off_minimizer.append(case.label)
        return problems

    warm = workload.warmup(state)
    warm_problems = check.check_report(json.loads(workload.run(warm)), warm.case)
    if warm_problems:
        print(f"warning: warm-up op failed its check: {warm_problems}", file=sys.stderr)

    seconds = args.seconds / 2 if args.trace else args.seconds
    phase, next_op = measure(workload.run, workload, state, seconds, 0, check_op)
    phases = [phase]
    if args.trace:
        import spans

        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
        traced_phase, metrics, rows, extra = traced(
            workload.run, workload, state, phase, next_op, seconds, check_op, spans_path)
        phases.append(traced_phase)
        units = spans.metric_units()
    else:
        metrics, rows, extra = end_to_end(phase, setup)
        units = END_TO_END_UNITS

    attempted = sum(len(ph.wall) for ph in phases)
    failures = [f for ph in phases for f in ph.failures]
    failed = len(failures)
    rows.append(("failed_frac", f"{failed / attempted:.6g} (1): {failed} of {attempted} ops"))
    env = environment()
    print(f"# {workload.name} seed={args.seed} trace={args.trace} | nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} commit={env['commit']}")
    for name, value in metrics.items():
        print(f"{name:<50} {value:.6g} {units[name]}")
    for name, text in rows:
        print(f"{name:<50} {text}")
    if off_minimizer:
        print(f"note: {len(off_minimizer)} converged solve(s) stopped more than "
              f"{check.MINIMIZER_TOL:g} but within their instance's allowance off the "
              f"documented minimizer; each report refutes KKT there: {off_minimizer[:4]}")
    for label, problems in failures[:5]:
        print(f"FAILED {label}: {problems[:3]}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, setup_samples_s=setup,
                  sample_ref_s=SAMPLE_REF_S, off_minimizer=off_minimizer, failures=failures[:20],
                  phases=[{"wall_s": ph.wall, "host_sample_s": ph.host} for ph in phases], **extra)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  One caller drives the workload's operations in a closed loop:
each operation starts when the previous one has returned.

``--trace 0`` times whole passes over the operation list for about S seconds
and reports the end-to-end metrics: the median pass (``wall_s``), the median
of three set-ups (this process and two fresh children), peak RSS and work
per second.  Times are in reference seconds: each measured time is divided
by the host's slowness at that time, which a small fixed probe samples
during every timed pass (see ``SpeedProbe``), because the shared host's
speed drifts by up to 1.7x within minutes and by 20-30% from one second to
the next.  ``--trace 1`` alternates untraced and traced passes in this
process and reports the per-module metrics (see tracer.py) and the tracing
overhead; its spans go to ``perfbench/out/``.

Outputs are checked after every pass, outside the timed region.  The last
line of standard output is the JSON result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("marginals", "paths", "dependence", "quadrature")
CONFIRMATIONS = 2
SETUP_CHILDREN = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "work_per_s": "1/s"}

# The speed probe: a fixed pure-Python loop, run every PROBE_INTERVAL_S
# during each timed pass.  PROBE_REF_S is its time on the reference machine
# state; a sample's slowness is its time over PROBE_REF_S, and a pass's
# slowness is the median over its samples.
PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 2000
PROBE_REF_S = 1.5e-4


def _cap_threads() -> None:
    """BLAS/OpenMP pools no wider than the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "levyfield", "__init__.py")):
        raise SystemExit(f"perfbench: no levyfield package under {SRC}; "
                         "run from the root of a checkout")
    sys.path.insert(0, SRC)
    import levyfield

    if not os.path.abspath(levyfield.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: levyfield imported from {levyfield.__file__}, "
                         f"not from {SRC}")


def _setup(workload_name: str, seed: int, scratch: str):
    import workloads

    wl = workloads.build(workload_name, seed, scratch)
    wl.warm_up()
    return wl


def _run_pass(wl, tracer=None, label=""):
    """Run every operation once; (seconds, [(output, error)])."""
    results = []
    t0 = time.perf_counter()
    for k, op in enumerate(wl.ops):
        try:
            if tracer is None:
                out = op.run(op.seed)
            else:
                out = tracer.run_op(op.name, f"{label}:{k}", op.run, op.seed)
            results.append((out, None))
        except Exception as exc:  # an operation that raises is a failed operation
            results.append((None, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - t0, results


class Checker:
    """Checks pass outputs; counts attempted and failed operations."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []
        self.unconfirmed: list[str] = []   # misses that a fresh seed did not repeat
        self._confirmed: dict[int, str | None] = {}

    def check(self, results) -> None:
        for k, (op, (out, error)) in enumerate(zip(self.wl.ops, results)):
            self.attempted += 1
            reason = error if error is not None else self._reason(op, out)
            if reason is not None and error is None and op.statistical:
                reason = self._confirm(k, op, reason)
            if reason is not None:
                self.failures.append(f"{op.name}: {reason}")

    @staticmethod
    def _reason(op, out):
        try:
            return op.check(out)
        except Exception as exc:  # a check that cannot read the output fails it
            return f"check raised {type(exc).__name__}: {exc}"

    def _confirm(self, k, op, reason):
        """A statistical miss counts only if it repeats on every fresh seed."""
        import workloads

        if k not in self._confirmed:
            for j in range(CONFIRMATIONS):
                try:
                    again = self._reason(op, op.run(workloads.confirmation_seed(op.seed, j)))
                except Exception as exc:
                    again = f"{type(exc).__name__}: {exc}"
                if again is None:
                    self.unconfirmed.append(f"{op.name}: {reason}; passed on "
                                            f"confirmation {j + 1}")
                    reason = None
                    break
                reason += f"; confirmation {j + 1}: {again}"
            self._confirmed[k] = reason
        return self._confirmed[k]


class SpeedProbe:
    """Samples the host's current slowness (1.0 = the reference state).

    ``timed`` runs a pass while a SIGALRM handler takes a sample every
    PROBE_INTERVAL_S in this same thread, so the slowness it returns is the
    host's state during exactly that pass.  The probe's own time is taken
    out of the pass time, and ``on_sample`` lets the tracer take it out of
    the open span's self time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.on_sample = None
        self._spent = 0.0

    def sample(self) -> float:
        """Take one slowness sample; returns the seconds it took.

        The loop runs twice and only the second run is timed, so the sample
        measures the host rather than the caches the interrupted pass left
        cold.
        """
        t0 = time.perf_counter()
        for _ in range(2):
            t1 = time.perf_counter()
            acc = 0
            for i in range(PROBE_LOOPS):
                acc += i * i
        t2 = time.perf_counter()
        self.samples.append((t2 - t1) / PROBE_REF_S)
        return t2 - t0

    def _on_alarm(self, signum, frame):
        spent = self.sample()
        self._spent += spent
        if self.on_sample is not None:
            self.on_sample(spent)

    def timed(self, fn):
        """Run ``fn()`` under probing; (net seconds, slowness, its result)."""
        self.samples = []
        self._spent = 0.0
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)   # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        self.sample()
        return elapsed - self._spent, statistics.median(self.samples), result


def _measure(seconds: float, probe: SpeedProbe, check, *variants):
    """Alternate the given passes until ``seconds`` would be exceeded.

    Each variant runs one pass and returns its results, which ``check`` gets
    after the pass.  Returns, for each variant, its passes as (net seconds,
    slowness).
    """
    passes = [[] for _ in variants]
    t0 = time.perf_counter()
    while True:
        for fn, bucket in zip(variants, passes):
            net, slowness, results = probe.timed(fn)
            check(results)
            bucket.append((net, slowness))
        spent = time.perf_counter() - t0
        if spent + sum(statistics.median(dt for dt, _ in b) for b in passes) > seconds:
            return passes


def _reference_s(passes) -> list[float]:
    """Pass times in reference seconds."""
    return [dt / slowness for dt, slowness in passes]


def _setup_children(args) -> list[float]:
    """Set-up times of fresh child processes, in reference seconds."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(child["setup_s"] / child["slowness"])
    return out


def _reference_figures() -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "machine.py")],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"machine reference run failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for "
                             "the repeated set-up samples)")
    args = parser.parse_args(argv)

    _cap_threads()
    probe = SpeedProbe()
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        def set_up():
            _import_program()
            warnings.simplefilter("ignore")
            return _setup(args.workload, args.seed, scratch)

        before = time.perf_counter() - T_START   # interpreter start-up to here
        setup_s, setup_slowness, wl = probe.timed(set_up)
        setup_s += before
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "slowness": setup_slowness}))
            return 0
        return _benchmark(args, wl, probe, setup_s, setup_slowness)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _benchmark(args, wl, probe, setup_s, setup_slowness) -> int:
    import machine
    import tracer as tracing

    checker = Checker(wl)

    def untraced():
        return _run_pass(wl)[1]

    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "inputs": wl.inputs}
    if args.trace == 0:
        (passes,) = _measure(args.seconds, probe, checker.check, untraced)
    else:
        tracer = tracing.Tracer()
        labels = itertools.count()

        def traced():
            tracer.install()
            probe.on_sample = tracer.exclude
            try:
                return _run_pass(wl, tracer, label=str(next(labels)))[1]
            finally:
                probe.on_sample = None
                tracer.uninstall()

        plain, with_trace = _measure(args.seconds, probe, checker.check,
                                     untraced, traced)
    # Child processes run only after the timed passes, so their imports and
    # the reference copy's 1 GB of page faults never precede a timed pass.
    refs = _reference_figures()
    report["machine"] = dict(machine.machine_block(), **refs)

    if args.trace == 0:
        setups = [setup_s / setup_slowness] + _setup_children(args)
        wall = statistics.median(_reference_s(passes))
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": wl.work / wall,
        }
        units = END_TO_END_UNITS
        report.update(passes_s=[dt for dt, _ in passes],
                      slowness=[slow for _, slow in passes],
                      passes_ref_s=_reference_s(passes),
                      setup_samples_ref_s=setups, setup_measured_s=setup_s,
                      setup_slowness=setup_slowness)
    else:
        metrics = tracing.per_layer_metrics(tracer, len(with_trace))
        slowness = statistics.mean(slow for _, slow in with_trace)
        for name, unit in tracing.PER_LAYER_UNITS.items():
            if unit in ("s", "ms", "ns") and name in metrics:
                metrics[name] /= slowness   # reference seconds, like wall_s
        metrics["trace.overhead_frac"] = (statistics.median(_reference_s(with_trace))
                                          / statistics.median(_reference_s(plain)) - 1.0)
        metrics["machine.rng_fill_ns"] = refs["machine.rng_fill_ns"]
        metrics["machine.copy_gbps"] = refs["machine.copy_gbps"]
        units = tracing.PER_LAYER_UNITS
        metrics = {name: metrics[name] for name in units}
        spans_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path)
        report.update(untraced_passes_s=[dt for dt, _ in plain],
                      traced_passes_s=[dt for dt, _ in with_trace],
                      slowness_untraced=[slow for _, slow in plain],
                      slowness_traced=[slow for _, slow in with_trace],
                      module_self_s=tracing.module_self_times(tracer),
                      spans=os.path.relpath(spans_path, ROOT))

    failed = len(checker.failures)
    _print_report(wl, args, metrics, units, checker)
    report["failures"] = checker.failures
    report["unconfirmed_misses"] = checker.unconfirmed
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _print_report(wl, args, metrics, units, checker) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"workload {wl.name}  seed {args.seed}  ({mode})")
    rows = list(metrics.items())
    if not args.trace:
        # the workload's own name for work_per_s, e.g. replicates_per_s
        rows.append((f"{wl.unit}_per_s", metrics["work_per_s"]))
        rows.append(("failed_frac", len(checker.failures) / checker.attempted))
    for name, value in rows:
        unit = units.get(name, "1/s" if name.endswith("_per_s") else "ratio")
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for line in checker.failures:
        print(f"  FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())

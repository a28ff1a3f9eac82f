"""Benchmark entry point: one workload, one seed, end to end or traced.

    python3 rankbench/run.py --workload repair_ref --seed 1 --seconds 35 --trace 0

Load is one closed-loop client in one thread: the next op starts only
after the previous one returns.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same ops twice, first untraced, then
replayed under the span wrappers of ``tracing.py``, and reports the
per-layer metrics, the tracing overhead and whether both replays gave the
same outcomes.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary goes to
stderr, and every run writes ``rankbench/results/<run>.json`` (and, when
traced, ``<run>.spans.json.gz``).  See rankbench/README.md.
"""

from time import perf_counter

T_START = perf_counter()  # setup_s counts from here: imports, spec, code

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_PROBES = 6   # extra set-ups in fresh processes; setup_s is the median of 1 + 6
MIN_OPS = 2        # per part, however short the run
TAIL_WINDOW = 100  # ops per window of the op_tail_ms median
SHOWN_TRACEBACKS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (no rankloc source in the checkout)."""


def use_checkout_source():
    """Import rankloc from this checkout's src/, never from an installed copy."""
    package = SRC / "rankloc"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no rankloc source at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rankloc

    if Path(rankloc.__file__).resolve().parent != package.resolve():
        raise BenchError(f"rankloc imported from {rankloc.__file__}, not {package}")
    return rankloc


def environment(args) -> dict:
    import numpy

    rankloc = sys.modules["rankloc"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        import importlib.util

        numba = importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):
        numba = False
    return {
        "backend": getattr(rankloc, "BACKEND", "unknown"),
        "numba_importable": numba,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit_id(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def commit_id() -> str:
    """HEAD of the checkout's git directory; a plain export has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class PartLog:
    outcomes: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    inputs: list = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.seconds)


class Runner:
    """Closed loop over a workload's parts, optionally under a tracer."""

    def __init__(self):
        self.op_id = 0
        self.tracebacks = 0

    def run_part(self, part, budget=None, inputs=None, keep_inputs=False, tracer=None) -> PartLog:
        """Run ops until ``budget`` seconds of op time are spent, or replay ``inputs``."""
        log = PartLog()
        wall_start = perf_counter()
        i = 0
        while True:
            if inputs is not None:
                if i == len(inputs):
                    break
                inp = inputs[i]
            else:
                overdue = perf_counter() - wall_start > 2 * budget + 30
                if i >= MIN_OPS and (log.busy >= budget or overdue):
                    break
                inp = part.make_input(i)
            if keep_inputs:
                log.inputs.append(inp)
            start = perf_counter()
            try:
                if tracer is None:
                    out = part.run(inp)
                else:
                    out = tracer.span("bench.op", self.op_id, part.run, inp)
            except Exception:  # an op that raises is a failed op, and the loop goes on
                if self.tracebacks < SHOWN_TRACEBACKS:
                    traceback.print_exc(file=sys.stderr)
                self.tracebacks += 1
                out = Outcome(units=part.units, failed=part.units, key="raised", tag=("raised",))
            log.seconds.append(perf_counter() - start)
            log.outcomes.append(out)
            self.op_id += 1
            i += 1
        return log


def tail_latency(samples):
    """(value, label): the highest percentile with at least 10 samples beyond it.

    Below 20 samples that percentile would be under the median, so the
    median is reported and labelled as such.  A run of at least two TAIL_WINDOW-op windows reports the median of
    that percentile over its consecutive windows, so one stall on a
    shared machine does not set the figure.
    """
    windows = len(samples) // TAIL_WINDOW
    if windows >= 2:
        tails = [
            _tail(samples[w * TAIL_WINDOW:(w + 1) * TAIL_WINDOW])[0] for w in range(windows)
        ]
        label = _tail(samples[:TAIL_WINDOW])[1]
        return statistics.median(tails), f"median over {windows} windows of {TAIL_WINDOW} ops of {label}"
    return _tail(samples)


def _tail(samples):
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        # the rule would land below the median, or nowhere below 11 samples
        return statistics.median(ordered), "p50 (fewer than 20 samples)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.2f}"


def totals(logs) -> tuple[int, int, int]:
    outs = [o for log in logs.values() for o in log.outcomes]
    return (sum(o.units for o in outs), sum(o.failed for o in outs), sum(o.wrong for o in outs))


def rate(log) -> float:
    return sum(o.units for o in log.outcomes) / log.busy


def end_to_end(workload, parts, logs, setup_s):
    primary = logs[workload.primary]
    units = sum(o.units for o in primary.outcomes)
    latency = [s * 1e3 / o.units for s, o in zip(primary.seconds, primary.outcomes)]
    tail, tail_label = tail_latency(latency)
    ops_per_s = rate(primary)
    if workload.batch:
        batch = logs[workload.batch]
        words = next(p.words for p in parts if p.name == workload.batch)
        batch_words = words * len(batch.outcomes) / batch.busy
    else:
        batch_words = ops_per_s  # no batch phase: one answer per op
    attempted, failed, wrong = totals(logs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(latency), "ms"),
        "op_tail_ms": (tail, "ms"),
        "batch_words_per_s": (batch_words, "1/s"),
        "success_rate": (sum(o.successes for o in primary.outcomes) / units, "ratio"),
        "ok_share": (1 - (failed + wrong) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"op_tail_percentile": tail_label, "op_latency_samples": len(latency),
               "op_latency_ms": latency}
    return metrics, details


def per_layer(tracer, plain, traced, workload):
    layer = tracer.layer_totals()
    metrics = {}
    for prefix, *_ in tracing.TARGETS:
        calls, self_s = layer.get(prefix, (0, 0.0))
        metrics[f"{prefix}.calls"] = (calls, "count")
        metrics[f"{prefix}.self_s"] = (self_s, "s")
    counts = tracer.counts

    def per(num, den):
        return num / den if den else 0.0

    rb_calls, rb_self = layer.get("kernels.rank_batch", (0, 0.0))
    metrics["kernels.rank_batch.matrices"] = (counts["kernels.rank_batch.matrices"], "count")
    metrics["kernels.rank_batch.bytes"] = (counts["kernels.rank_batch.bytes"], "bytes")
    metrics["kernels.rank_batch.self_s_per_call"] = (per(rb_self, rb_calls), "s")
    decodes = layer.get("netsim.decode_subspace_min", (0, 0.0))[0]
    metrics["netsim.candidates_per_trial"] = (
        per(counts["netsim.decode_subspace_min.candidates"], decodes), "count")
    metrics["netsim.tie_share"] = (per(counts["netsim.decode_subspace_min.ties"], decodes), "ratio")
    channel = layer.get("netsim.channel_apply", (0, 0.0))[0]
    metrics["netsim.channel_apply.rank_attempts_per_call"] = (
        per(tracer.child_calls("kernels.rank", "netsim.channel_apply"), channel), "count")
    reads = [o.tag for o in traced.get("read", PartLog()).outcomes]
    returned = [t for t in reads if t[1] != "refused"]
    metrics["crisscross.local_only_share"] = (
        per(sum(t[2] == "local" for t in returned), len(returned)), "ratio")
    metrics["crisscross.refused"] = (sum(t[1] == "refused" for t in reads), "count")
    metrics["crisscross.wrong"] = (sum(t[1] == "wrong" for t in reads), "count")
    untraced_rate = rate(plain[workload.primary])
    traced_rate = rate(traced[workload.primary])
    metrics["bench.untraced.ops_per_s"] = (untraced_rate, "1/s")
    metrics["bench.traced.ops_per_s"] = (traced_rate, "1/s")
    metrics["bench.trace.overhead_share"] = (1 - traced_rate / untraced_rate, "ratio")
    return metrics


def measure_setup(name) -> tuple[float, list]:
    """Median of this process's set-up and SETUP_PROBES fresh-process set-ups."""
    samples = [perf_counter() - T_START]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def tally(logs) -> dict:
    counts = Counter("/".join(o.tag) for log in logs.values() for o in log.outcomes)
    return dict(sorted(counts.items()))


def run(args) -> dict:
    """Run one workload; return its result record (empty for a set-up probe)."""
    use_checkout_source()
    workload = WORKLOADS[args.workload]()
    state = workload.setup()
    if args.setup_probe:
        print(perf_counter() - T_START)
        return {}
    parts = workload.parts(args.seed, state)
    runner = Runner()
    record = {"workload": args.workload, "env": environment(args)}
    if not args.trace:
        setup_s, samples = measure_setup(args.workload)
        logs = {p.name: runner.run_part(p, budget=args.seconds * p.share) for p in parts}
        metrics, details = end_to_end(workload, parts, logs, setup_s)
        details["setup_samples_s"] = samples
        mismatches = 0
    else:
        half = args.seconds / 2
        plain = {p.name: runner.run_part(p, budget=half * p.share, keep_inputs=True) for p in parts}
        tracer = tracing.Tracer()
        undo, absent = tracing.install(tracer)
        try:
            tracer.span("bench.setup", -1, workload.setup)
            traced = {
                p.name: runner.run_part(p, inputs=plain[p.name].inputs, tracer=tracer) for p in parts
            }
        finally:
            tracing.uninstall(undo)
        mismatches = sum(
            a.key != b.key
            for p in parts
            for a, b in zip(plain[p.name].outcomes, traced[p.name].outcomes)
        )
        metrics = per_layer(tracer, plain, traced, workload)
        logs = {f"{k}:untraced": v for k, v in plain.items()}
        logs.update({f"{k}:traced": v for k, v in traced.items()})
        details = {"absent": absent, "trace_mismatches": mismatches,
                   "spans_recorded": len(tracer.start), "note_errors": tracer.counts.get("note_errors", 0)}
    attempted, failed, wrong = totals(logs)
    correct = failed == 0 and mismatches == 0
    details.update({
        "ops": {name: len(log.outcomes) for name, log in logs.items()},
        "op_seconds": {name: log.busy for name, log in logs.items()},
        "fail_share": (failed + wrong) / attempted,
        "failed": failed,
        "wrong": wrong,
        "outcomes": tally(logs),
    })
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result=result, details=details)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.json.gz")
        record["spans_file"] = f"{stem}.spans.json.gz"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    summarize(record)
    return record


def summarize(record) -> None:
    d = record["details"]
    print(f"{record['workload']}: correct={record['result']['correct']} "
          f"attempted={record['result']['attempted']} failed={d['failed']} wrong={d['wrong']} "
          f"fail_share={d['fail_share']:.4f}", file=sys.stderr)
    if "op_tail_percentile" in d:
        print(f"op_tail_ms is {d['op_tail_percentile']} of {d['op_latency_samples']} samples",
              file=sys.stderr)
    if d.get("absent"):
        print("absent (reported with zero calls): " + ", ".join(d["absent"]), file=sys.stderr)
    for name, count in d["outcomes"].items():
        print(f"  {name}: {count}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0, help="op time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only and print the seconds it took (used for setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if record:
        print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

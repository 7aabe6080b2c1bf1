"""Benchmark of the ``sr-depth`` CLI on three seeded workloads.

    python3 perfbench/run.py --workload {verify,powers,betti_table}
                             --seed N --seconds S --trace {0,1}

Each operation is one CLI verb on one generated graph file, called in this
process through ``srdepth.cli.main`` (closed loop, one client, no --jobs).
Outputs are checked after the timed loop; a non-zero exit or a wrong answer
counts as a failed operation.

``--trace 0`` measures the end-to-end metrics with tracing off: each
operation runs in two passes, its latency is the better of the two, and
every time is scaled to a reference host speed (hostspeed.py).  ``--trace 1``
runs each operation untraced and then traced (see tracing.py) and reports
per-layer metrics, each a mean per operation, together with the tracing
overhead.  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Host diagnostics are
printed before it and appended to .perfbench/runs.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import ROOT, WORK, WORKLOADS

SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
REPEATS = 2  # passes over the same operations in an end-to-end run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Median time, scaled to the reference host speed, of SETUP_REPEATS
    fresh interpreters that import srdepth.cli and write the input files
    (the last one's files are used).

    No timeout on the wait: with one, subprocess polls with sleeps of up to
    50 ms, which would round every sample up to that step.
    """
    import hostspeed

    speed, spans = hostspeed.HostSpeed(), []
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)], check=True)
        spans.append((t0, time.perf_counter()))
    speed.sample(force=True)
    return statistics.median(speed.scale(t0, t1) for t0, t1 in spans)


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that crashes counts as failed; keep going
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def timed_call(cli, argv: list[str]) -> tuple[float, tuple[int, str, str]]:
    t0 = time.perf_counter()
    result = call_cli(cli, argv)
    return time.perf_counter() - t0, result


def closed_loop(cli, argvs, seconds, cycle, speed):
    """Pass 1 runs operations 0, 1, ... (wrapping round the pool) in whole
    cycles of ``cycle`` operations and stops at the cycle boundary nearest to
    ``seconds / REPEATS``; passes 2 .. REPEATS run the same operations
    again in the same order.  Whole cycles keep the mix of input sizes the
    same in every run.  ``speed`` samples the host between operations.
    Returns (latencies in s scaled to the reference speed, raw latencies
    in s, outputs), one list of each per pass."""
    raw, outputs = [], []

    def run_op(argv):
        speed.sample()
        t0 = time.perf_counter()
        result = call_cli(cli, argv)
        t1 = time.perf_counter()
        raw[-1].append((t0, t1))
        outputs[-1].append(result)

    t_start = time.perf_counter()
    target = seconds / REPEATS
    for k in range(REPEATS):
        raw.append([])
        outputs.append([])
        if k == 0:
            while True:
                run_op(argvs[len(outputs[0]) % len(argvs)])
                ops, elapsed = len(outputs[0]), time.perf_counter() - t_start
                # stop here unless the next boundary is nearer: half a cycle ahead
                if ops % cycle == 0 and elapsed * (1 + cycle / (2 * ops)) >= target:
                    break
        else:
            for i in range(ops):
                run_op(argvs[i % len(argvs)])
    speed.sample(force=True)
    scaled = [[speed.scale(t0, t1) for t0, t1 in ts] for ts in raw]
    raw = [[t1 - t0 for t0, t1 in ts] for ts in raw]
    return scaled, raw, outputs


def count_failures(workload, inputs, outputs, recorded) -> int:
    import checks

    failed = 0
    for k, (rc, out, err) in enumerate(outputs):
        i = k % len(inputs)
        reason = checks.check(workload, inputs[i], rc, out,
                              recorded[i] if recorded is not None else None)
        if reason is not None:
            failed += 1
            if failed <= 5:
                print(f"FAILED op {k} ({inputs[i].filename()}, {inputs[i].label}): {reason}",
                      file=sys.stderr)
                if err:
                    print(err.rstrip(), file=sys.stderr)
    return failed


def host_state() -> dict:
    """Load average and cumulative steal time, read from /proc only."""
    state = {}
    try:
        state["loadavg"] = Path("/proc/loadavg").read_text().split()[:3]
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        state["steal_s"] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return state


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
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
    return None


def end_to_end(cli, workload, argvs, inputs, recorded, seconds, cycle=None):
    """Latencies are scaled to the reference host speed (hostspeed.py), and
    each operation's latency is the best of its REPEATS passes, which lie
    seconds apart: together they keep most of the host's swings out."""
    import hostspeed

    if cycle is None:
        cycle = workloads.slot_count(WORKLOADS[workload])
    speed = hostspeed.HostSpeed()
    scaled, raw, outputs = closed_loop(cli, argvs, seconds, cycle, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(count_failures(workload, inputs, out, recorded) for out in outputs)
    attempted = sum(len(out) for out in outputs)
    ms = [min(xs) * 1e3 for xs in zip(*scaled)]
    raw_ms = [min(xs) * 1e3 for xs in zip(*raw)]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    beyond = sum(1 for x in ms if x > p90)
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p90; raise --seconds", file=sys.stderr)
    metrics = {
        "ops_per_s": (len(ms) * 1e3 / sum(ms), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (p90, "ms"),
        "ok_frac": (1 - failed / attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"{len(ms)} operations x {len(scaled)} passes, {beyond} beyond p90",
             f"failed_frac {failed / attempted:.4g} fraction",
             f"unscaled best-of-pass p50 {statistics.median(raw_ms):.4g} ms, "
             f"ops_per_s {len(raw_ms) * 1e3 / sum(raw_ms):.4g} 1/s",
             f"calibration loop median {speed.median_ms():.4g} ms over {len(speed.costs)} samples, "
             f"reference {hostspeed.REFERENCE_MS:g} ms"]
    return attempted, failed, metrics, notes


def traced(cli, workload, argvs, inputs, recorded, seconds, seed):
    """Each operation runs untraced and then traced, in turn, so that drift
    in host speed hits both alike; the difference is the tracing overhead."""
    import tracing

    tracer = tracing.Tracer()
    base_lat, base_out, trace_lat, trace_out = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        argv = argvs[len(base_out) % len(argvs)]
        latency, result = timed_call(cli, argv)
        base_lat.append(latency)
        base_out.append(result)
        tracer.current_op = len(trace_out)
        tracer.install()
        try:
            latency, result = timed_call(cli, argv)
        finally:
            tracer.uninstall()
        trace_lat.append(latency)
        trace_out.append(result)
        if time.perf_counter() >= deadline or len(tracer) >= tracing.MAX_SPANS:
            break
    ops = len(trace_out)
    failed = (count_failures(workload, inputs, base_out, recorded)
              + count_failures(workload, inputs, trace_out, recorded))
    tracer.write(WORK / f"spans-{workload}-seed{seed}.bin")
    traced_ms = sum(trace_lat) * 1e3 / ops
    untraced_ms = sum(base_lat) * 1e3 / ops
    metrics = {name: (value, tracing.unit_of(name))
               for name, value in tracing.layer_metrics(tracer, ops).items()}
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.op_ms"] = (traced_ms, "ms/op")
    metrics["trace.untraced_op_ms"] = (untraced_ms, "ms/op")
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms/op")
    notes = [f"{ops} operations traced, {len(tracer)} spans"]
    return 2 * ops, failed, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "srdepth" / "cli.py").is_file():
        print(f"error: no srdepth sources under {SRC.name}/ next to {HERE.name}/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    host = {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "before": host_state()}

    setup_s = measure_setup(args.workload, args.seed)
    from srdepth import cli
    import checks

    inputs = workloads.make_inputs(args.workload, args.seed)
    argvs = [workloads.argv_for(args.workload, inp, WORK / args.workload) for inp in inputs]
    stale = None
    try:
        recorded = checks.load_recorded(args.workload, args.seed, workloads.digest(inputs))
    except ValueError as exc:
        stale, recorded = str(exc), None
        print(f"error: {stale}", file=sys.stderr)

    if args.trace:
        attempted, failed, metrics, notes = traced(cli, args.workload, argvs, inputs, recorded,
                                                   args.seconds, args.seed)
    else:
        attempted, failed, metrics, notes = end_to_end(cli, args.workload, argvs, inputs, recorded,
                                                       args.seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    host["after"] = host_state()

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          + "; ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print("host " + json.dumps(host))
    result = {
        "correct": failed == 0 and stale is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    with open(WORK / "runs.jsonl", "a") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                              "trace": args.trace, "host": host, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one linchar benchmark workload, check every output, print its metrics.

    python3 perfbench/run.py --workload cli-exceptional --seed 1 --seconds 20 --trace 0

Run it from the root of a linchar checkout; it imports the program from
./src.  Human-readable lines come first; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, measured
with no tracing; with --trace 1 they are the per-layer ones, from a traced
pass over the same operations as an untraced pass made just before it.
Spans are written to .perfbench/ when a traced run ends.  See
perfbench/README.md for what each workload and metric means.

One load generator, one operation at a time (a closed loop with one
client).  verify-all and cli-exceptional fork each operation from a parent
that has imported linchar.cli and computed nothing, so no cache carries
over; classical-sweep forks one warm library process for all operations.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import golden
import reference
import workloads
from tracing import Tracer, aggregate

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
SELF_CHECK_ARGV = ["check-line", "E8", "-m", "59", "--exact", "--json"]
SELF_CHECK_TRIES = 5

# Layer functions whose self time is reported under their own name.
SELF_TIMED = (
    "linial.char_quasi", "linial.half_char_quasi", "linial.averaged_half",
    "ehrhart.apply_shift_qp", "ehrhart.ehrhart_qp", "eulerian.generalized_eulerian",
    "rootdata.lookup", "verify.check_on_line_exact", "ratpoly.all_roots_real_nonpositive",
    "ratpoly.sturm_real_root_count", "ratpoly.apply_shift", "verify.find_roots",
    "verify.limit_poly", "verify.halfplane_exact", "ratpoly.routh_hurwitz_all_roots_left",
    "verify.bruteforce_modq", "verify.asymptotic_track", "cli.main",
)
ROOT_SPAN = "op"


class Measured:
    """What one pass over a workload's operations produced."""

    def __init__(self):
        self.latencies: list[float] = []  # per operation, timed inside the measured process
        self.walls: list[float] = []  # the same plus fork, exit and transfer, seen by the parent
        self.refs: list[float] = []  # per operation, the reference loop's seconds next to it
        self.failed = 0
        self.problems: list[str] = []
        self.rss_kb = 0
        self.bits: list[int] = []  # result coefficient bits per operation
        self.output_bytes: list[int] = []
        self.keys: list[str] = []  # classical-sweep: every operation's (system, m) key
        self.failures: list[str] = []  # keys of operations that raised LincharError
        self.traces: list[dict] = []  # one per measured process

    @property
    def attempted(self) -> int:
        return len(self.latencies)


# -- processes ------------------------------------------------------------------------


def in_child(work, tracer):
    """Run work() in a forked child of this (cold) process.

    Returns the wall time the parent saw and the child's JSON reply, which
    carries the child's peak RSS and, when tracing, its spans.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        try:
            os.close(read_fd)
            try:
                reply = work()
                reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if tracer is not None:
                    reply["trace"] = {
                        "spans": tracer.spans,
                        "counts": dict(tracer.counts),
                        "read": tracer.constituents_read,
                    }
            except BaseException:
                reply = {"crash": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(reply))
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as pipe:
            data = pipe.read()
    finally:
        os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    return wall, json.loads(data)


def timed(tracer, work):
    """work() under the benchmark's root span; returns (seconds, result)."""
    start = time.perf_counter()
    if tracer is None:
        result = work()
    else:
        with tracer.span(ROOT_SPAN):
            result = work()
    return time.perf_counter() - start, result


def crashed(reply: dict) -> bool:
    if "crash" in reply:
        print(reply["crash"], file=sys.stderr)
        return True
    return False


# -- workloads ----------------------------------------------------------------------------


def run_verify_all(seed, seconds, tracer, gold, sample=False) -> Measured:
    """Each operation is one acceptance.run_all() in a fresh child.  The seed
    is unused: the acceptance matrix has no inputs."""
    measured = Measured()
    for _ in range(workloads.verify_all_runs(seconds)):
        if tracer is not None:
            tracer.op = measured.attempted

        def work():
            if not sample:
                op_s, results = timed(tracer, workloads.verify_all)
                return {"op_s": op_s, "records": golden.verify_all_record(results)}
            with reference.Sampler() as sampler:
                op_s, results = timed(tracer, workloads.verify_all)
            return {"op_s": op_s - sampler.during, "ref_s": sampler.ref,
                    "records": golden.verify_all_record(results)}

        wall, reply = in_child(work, tracer)
        if crashed(reply):
            measured.problems.append("verify-all crashed")
            break
        measured.latencies.append(reply["op_s"])
        measured.walls.append(wall)
        if sample:
            measured.refs.append(reply["ref_s"])
        measured.rss_kb = max(measured.rss_kb, reply["rss_kb"])
        measured.problems += golden.verify_all_problems(gold, reply["records"])
        measured.bits.append(0)
        measured.traces.append(reply.get("trace"))
    return measured


def run_cli(seed, seconds, tracer, gold, sample=False) -> Measured:
    """Each operation is one `linchar ... --json` call in a fresh child.
    With `sample`, the parent times the reference loop before the first
    child and after each one."""
    measured = Measured()
    samples = [reference.ref_seconds()] if sample else []
    for argv in workloads.cli_run(seed, seconds):
        if tracer is not None:
            tracer.op = measured.attempted

        def work(argv=argv):
            op_s, reply = timed(tracer, lambda: workloads.cli_query(argv))
            reply["op_s"] = op_s
            return reply

        wall, reply = in_child(work, tracer)
        if crashed(reply):
            measured.problems.append(f"{golden.cli_key(argv)} crashed")
            break
        if sample:
            samples.append(reference.ref_seconds())
        measured.latencies.append(reply["op_s"])
        measured.walls.append(wall)
        measured.rss_kb = max(measured.rss_kb, reply["rss_kb"])
        measured.output_bytes.append(len(reply["stdout"].encode()))
        measured.traces.append(reply.get("trace"))
        envelope = json.loads(reply["stdout"])
        if reply["rc"] != 0 or "error" in envelope:
            measured.failed += 1
            measured.failures.append(golden.cli_key(argv))
            measured.bits.append(0)
            continue
        measured.problems += golden.cli_problems(gold, argv, envelope)
        rec = golden.cli_record(argv, envelope)
        measured.bits.append(sum(golden.coeff_bits(p) for p in rec["polys"]))
    if sample:
        measured.refs = reference.windowed(samples, measured.attempted)
    return measured


def run_sweep(seed, seconds, tracer, gold, sample=False) -> Measured:
    """One warm child works through the (system, m) stream; each operation
    is char_poly, check_on_line_exact, find_roots.  With `sample`, the child
    times the reference loop before the first operation and after each."""
    ops = workloads.sweep_run(seed, seconds)

    def work():
        records = []
        samples = [reference.ref_seconds()] if sample else []
        for name, m in ops:
            if tracer is not None:
                tracer.op = len(records)
            op_s, out = timed(tracer, lambda: workloads.sweep_op(name, m))
            if sample:
                samples.append(reference.ref_seconds())
            rec = golden.sweep_record(name, m, *out)
            rec["op_s"] = op_s
            records.append(rec)
        return {"records": records, "ref_samples": samples}

    measured = Measured()
    _wall, reply = in_child(work, tracer)
    if crashed(reply):
        measured.problems.append("classical-sweep crashed")
        return measured
    measured.rss_kb = reply["rss_kb"]
    measured.traces.append(reply.get("trace"))
    for rec in reply["records"]:
        measured.keys.append(rec["key"])
        measured.latencies.append(rec["op_s"])
        measured.walls.append(rec["op_s"])
        measured.bits.append(rec["bits"])
        measured.problems += golden.sweep_problems(gold, rec)
        if rec["outcome"] != "ok":
            measured.failed += 1
            measured.failures.append(rec["key"])
    if sample:
        measured.refs = reference.windowed(reply["ref_samples"], measured.attempted)
    return measured


RUNNERS = {
    "verify-all": run_verify_all,
    "cli-exceptional": run_cli,
    "classical-sweep": run_sweep,
}


def pin_to_fastest_cpu() -> int:
    """Pin this process, and so every child, to the allowed CPU that runs a
    short calibration loop fastest.  CPUs of one machine can differ in
    speed (a busy sibling hyperthread, say), and a run that migrates
    between them reads differently from one that does not."""
    def loop_s() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return time.perf_counter() - start

    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(loop_s() for _ in range(5))
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return best


# -- set-up and imports -----------------------------------------------------------------


def fresh_import(env, *flags) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import linchar.cli"],
        env=env, capture_output=True, text=True, check=True,
    )
    return time.perf_counter() - start, proc.stderr


def setup_seconds(env) -> float:
    """Median wall time of a fresh interpreter running `import linchar.cli`,
    after one untimed import that writes the bytecode caches."""
    fresh_import(env)
    return statistics.median(fresh_import(env)[0] for _ in range(SETUP_REPEATS))


def import_seconds(env) -> dict:
    """Median self import time of numpy, scipy and linchar modules, from
    `python -X importtime`."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        totals = dict.fromkeys(("numpy", "scipy", "linchar"), 0)
        for line in fresh_import(env, "-X", "importtime")[1].splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].split(":")[-1].strip().isdigit():
                continue
            package = parts[2].strip().split(".")[0]
            if package in totals:
                totals[package] += int(parts[0].split(":")[-1])
        runs.append(totals)
    return {
        f"cli.import_{pkg}_s": statistics.median(r[pkg] for r in runs) / 1e6
        for pkg in ("numpy", "scipy", "linchar")
    }


def self_check(tolerance) -> tuple[bool, list]:
    """The same cold E8 check-line, timed twice, must read the same within
    `tolerance` and give the same certified verdict; a cache surviving
    between operations would make the second far faster.  Up to
    SELF_CHECK_TRIES pairs."""
    pairs, outputs = [], set()
    for _ in range(SELF_CHECK_TRIES):
        pair = []
        for _ in range(2):
            wall, reply = in_child(lambda: workloads.cli_query(SELF_CHECK_ARGV), None)
            if crashed(reply) or reply["rc"] != 0:
                return False, pairs
            outputs.add(reply["stdout"])
            if len(outputs) > 1 or json.loads(reply["stdout"])["result"]["on_line"] is not True:
                return False, pairs
            pair.append(round(wall, 4))
        pairs.append(pair)
        if abs(pair[1] - pair[0]) <= tolerance * pair[0]:
            return True, pairs
    return False, pairs


# -- metrics ---------------------------------------------------------------------------------


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(measured: Measured, setup_s: float) -> dict:
    """Latencies in refs (see reference.py): each operation's seconds over
    the reference loop's seconds next to it."""
    lat = [s / ref for s, ref in zip(measured.latencies, measured.refs, strict=True)]
    return {
        "setup_s": (setup_s, "s"),
        "query_p50_ref": (statistics.median(lat), "ref"),
        "query_p90_ref": (p90(lat), "ref"),
        "queries_per_kref": (1000 * len(lat) / sum(lat), "1/kref"),
        "peak_rss_mb": (measured.rss_kb / 1024, "MB"),
    }


def raw_seconds(measured: Measured) -> str:
    lat = measured.latencies
    return (f"in wall seconds: query_p50 {statistics.median(lat):.6g} s, query_p90 {p90(lat):.6g} s, "
            f"queries_per_s {len(lat) / sum(lat):.6g}; one ref (median) {statistics.median(measured.refs) * 1e3:.4g} ms")


def per_layer(plain: Measured, traced: Measured, imports: dict) -> tuple[dict, list[str]]:
    n = traced.attempted
    self_s: dict = {}
    incl_s: dict = {}
    counts: dict = {}
    read = spans = 0
    for trace in traced.traces:
        s, i = aggregate(trace["spans"])
        for name, v in s.items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in i.items():
            incl_s[name] = incl_s.get(name, 0.0) + v
        for name, v in trace["counts"].items():
            counts[name] = counts.get(name, 0) + v
        read += trace["read"]
        spans += len(trace["spans"])

    metrics: dict = {}
    for name in SELF_TIMED:
        metrics[f"{name}_s"] = (self_s.get(name, 0.0) / n, "s")
    parse = self_s.get("cli.build_parser", 0.0) + self_s.get("cli.parse_args", 0.0)
    metrics["cli.parse_s"] = (parse / n, "s")
    metrics["cli.emit_s"] = (self_s.get("cli.to_json_str", 0.0) / n, "s")
    reported = sum(v for v, _ in metrics.values())
    check_names = [f.__name__ for f in sys.modules["linchar.acceptance"].ALL_CHECKS]
    for number, name in enumerate(check_names, start=1):
        metrics[f"acceptance.c{number:02d}_s"] = (incl_s.get(f"acceptance.{name}", 0.0) / n, "s")

    built = counts.get("linial.constituents_built", 0)
    calls = counts.get("verify.find_roots_calls", 0)
    metrics["linial.constituents_built"] = (built / n, "count")
    metrics["linial.constituents_used_ratio"] = (read / built if built else 0.0, "ratio")
    metrics["verify.find_roots_calls"] = (calls / n, "count")
    metrics["verify.find_roots_failed"] = (
        counts.get("verify.find_roots_failed", 0) / calls if calls else 0.0, "ratio")
    metrics["verify.halfplane_inconclusive"] = (counts.get("verify.halfplane_inconclusive", 0) / n, "count")
    metrics["ratpoly.result_coeff_bits"] = (statistics.mean(traced.bits), "bits")
    metrics["cli.output_bytes"] = (
        statistics.mean(traced.output_bytes) if traced.output_bytes else 0.0, "bytes")
    for name, value in imports.items():
        metrics[name] = (value, "s")

    op_wall = statistics.mean(traced.walls)
    unattributed = self_s.get(ROOT_SPAN, 0.0) / n
    other = sum(self_s.values()) / n - reported - unattributed
    process = op_wall - statistics.mean(traced.latencies)
    metrics["trace.other_self_s"] = (other, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.process_s"] = (process, "s")
    metrics["trace.op_wall_s"] = (op_wall, "s")
    metrics["trace.untraced_op_wall_s"] = (statistics.mean(plain.walls), "s")
    metrics["trace.overhead_s"] = (op_wall - statistics.mean(plain.walls), "s")
    metrics["trace.spans_per_op"] = (spans / n, "count")

    accounted = reported + other + unattributed + process
    notes = [
        f"self times account for {accounted:.6f} s of the {op_wall:.6f} s traced wall time per "
        f"operation ({reported:.6f} s in named layers, {other:.6f} s in other wrapped functions, "
        f"{unattributed:.6f} s outside any layer, {process:.6f} s in fork, exit and transfer)",
        f"tracing overhead: {metrics['trace.overhead_s'][0]:+.6f} s per operation "
        f"(traced {op_wall:.6f} s - untraced {metrics['trace.untraced_op_wall_s'][0]:.6f} s, "
        f"{n} operations each)",
        f"constituents read / built: {read} / {built}",
        f"find_roots failed / calls: {counts.get('verify.find_roots_failed', 0)} / {calls}",
    ]
    return metrics, notes


def write_trace(root, workload, seed, traced: Measured) -> str:
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "span_fields": ["name", "start", "end", "parent", "op"],
                   "processes": [t["spans"] for t in traced.traces]}, handle)
    return path


# -- main ----------------------------------------------------------------------------------------


def bounds(root) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "linchar", "cli.py")):
        print(f"error: no linchar source under {src}; run from a linchar checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)  # fresh interpreters see the caller's environment
    # One single-threaded load generator: no BLAS thread pools in the forking parent.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)

    cpu = pin_to_fastest_cpu()
    setup_s = None if args.trace else setup_seconds(env)
    import linchar.cli  # noqa: F401  - the cold state every operation forks from

    if not os.path.abspath(sys.modules["linchar"].__file__).startswith(src + os.sep):
        print("error: imported linchar from outside ./src", file=sys.stderr)
        return 2
    gold = golden.load()
    runner = RUNNERS[args.workload]
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, on CPU {cpu}"]

    plain = runner(args.seed, args.seconds, None, gold, sample=not args.trace)
    measured = plain
    if not plain.attempted:
        metrics = {}
    elif args.trace:
        tracer = Tracer()
        tracer.install()
        measured = runner(args.seed, args.seconds, tracer, gold)
        tracer.uninstall()
        metrics, notes = per_layer(plain, measured, import_seconds(env))
        lines += notes
        lines.append(f"spans written to {write_trace(root, args.workload, args.seed, measured)}")
    else:
        metrics = end_to_end(plain, setup_s)
        lines.append(raw_seconds(plain))
        if args.workload == "verify-all":
            lines.append(f"verify_all_s {statistics.median(plain.latencies):.4f} s (median of {plain.attempted})")
        if args.workload == "cli-exceptional":
            ok, pairs = self_check(bounds(root)["query_p90_ref"])
            lines.append(f"cold-state self-check {'passed' if ok else 'FAILED'}: E8 check-line timed {pairs}")
            if not ok:
                plain.problems.append("cold-state self-check failed")

    problems = plain.problems + (measured.problems if measured is not plain else [])
    attempted, failed = measured.attempted, measured.failed
    lines.append(f"samples {attempted}; failed_frac {failed / max(attempted, 1):.6f} ({failed} / {attempted})")
    if args.workload == "classical-sweep":
        expected = {k for k in measured.keys if gold["classical-sweep"][k]["outcome"] != "ok"}
        unexpected = sorted(set(measured.failures) - expected)
        fixed = sorted(expected - set(measured.failures))
        lines.append(f"find_roots failed on {len(measured.failures)} operations; the recorded known-defect "
                     f"list predicts {len(expected)}; {len(unexpected)} failed outside it {unexpected[:10]}, "
                     f"{len(fixed)} on it converged {fixed[:10]}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    for problem in problems[:20]:
        lines.append(f"WRONG: {problem}")
    correct = not problems and attempted > 0
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

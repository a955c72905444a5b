"""envchan benchmark: time to a verdict on four closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
One caller sends each op only after the previous one returned. The
workload's corpus is fixed by its own generator seed (see workloads.py);
``--seed`` shuffles the order the ops are sent in.

--trace 0 runs whole passes over the corpus, at least one and more while
the next is expected to end within --seconds, times a speed probe after
every op (see machine.py), then spawns fresh processes to time set-up. It
prints the end-to-end metrics. --trace 1 runs one pass with spans around
every layer, then re-runs ops untraced for about a third of --seconds to
measure the tracing overhead. It prints the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the names BENCHMARK.json lists
for the mode). ``failed`` counts ops that raised or crashed; ops whose
verdict or exit code misses the ground truth are counted in
``failed_share``, printed above it and kept in the result file. The result
file, under perfbench/out/, also holds every op's parity record and the
machine facts; ``perfbench/compare.py`` compares two sets of them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from statistics import median
from time import perf_counter

import machine
import spans
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("realizable_2x2", "nonrealizable_2x2", "larger_dims", "cli_session")
SETUP_PROBES = 5
CLI_PROBES = 3
PROBE_TIMEOUT_S = 120

# One BLAS thread for this process and every child. With OpenBLAS's default
# of one thread per core, one objective call on this 2-core test machine
# took 300-770 us, single-threaded 260-360 us; the extra thread only adds
# noise at these matrix sizes. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_envchan():
    """Import envchan from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "envchan", "__init__.py")):
        fail(f"no envchan package under {SRC}")
    sys.path.insert(0, SRC)
    import envchan

    if os.path.dirname(os.path.dirname(os.path.abspath(envchan.__file__))) != SRC:
        fail(f"envchan was imported from {envchan.__file__}, not from {SRC}")
    return envchan


def benchmark_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(workload: str) -> None:
    """Child mode: time importing envchan and generating the inputs."""
    start = perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        workloads.make(workload, workdir, child_env())
        elapsed = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def time_setup(workload: str) -> list:
    """Set-up time in SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, env=child_env(),
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def time_cli_startup() -> dict:
    """Bare interpreter start and a fresh ``import envchan.cli``, each the
    median of CLI_PROBES fresh processes."""
    bare, imports = [], []
    for _ in range(CLI_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=PROBE_TIMEOUT_S)
        bare.append(perf_counter() - start)
        proc = subprocess.run(
            [sys.executable, "-c",
             "from time import perf_counter as c; t = c(); import envchan.cli; print(c() - t)"],
            capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S, env=child_env(),
        )
        imports.append(float(proc.stdout.strip()))
    return {"cli.interpreter_s": median(bare), "cli.import_s": median(imports)}


def run_op(op, restart_log):
    """Run one op; returns (results, seconds). A raised exception is
    recorded as a crash, never propagated."""
    mark = len(restart_log.entries)
    start = perf_counter()
    try:
        results = op.run()
    except Exception as exc:  # a crash is a measured outcome
        results = {"outcome": stats.CRASH, "error": f"{type(exc).__name__}: {exc}"}
    elapsed = perf_counter() - start
    statuses = [entry[0] for entry in restart_log.entries[mark:]]
    if statuses:
        results.setdefault("restarts", len(statuses))
        results["restart_statuses"] = statuses
    return results, elapsed


def run_passes(ops, order, seconds, restart_log, problems, tracer=None, probe=None):
    """Whole passes over ``ops`` in ``order``: one, then more while the next
    is expected to end within ``seconds``. With ``probe``, the machine's
    speed probe runs once before the first op and once after every op.

    Returns (results per op, times per op, passes, seconds measured, op
    times in run order, probe times). Seconds measured leave out the
    probes' own time."""
    results = [None] * len(ops)
    times = [[] for _ in ops]
    run_order, probes = [], []
    passes = 0
    measured = wall = 0.0
    if probe is not None:
        probes.append(probe())
    while True:
        pass_start = perf_counter()
        probed = 0.0
        for i in order:
            if tracer is not None:
                tracer.op = ops[i].label
            out, elapsed = run_op(ops[i], restart_log)
            times[i].append(elapsed)
            run_order.append(elapsed)
            if probe is not None:
                probes.append(probe())
                probed += probes[-1]
            if results[i] is None:
                results[i] = out
            elif out != results[i]:
                problems.append(f"{ops[i].label}: results differ between passes")
        last = perf_counter() - pass_start
        wall += last
        measured += last - probed
        passes += 1
        if tracer is not None or wall + last > seconds:
            return results, times, passes, measured, run_order, probes


def records_of(name, ops, results) -> list:
    """Parity records: deterministic fields only, in corpus order."""
    import workloads

    return [
        {
            "workload": name,
            "corpus_seed": workloads.SEEDS[name],
            "index": i,
            "label": op.label,
            "expected": op.expected,
            "results": results[i],
            "failed": stats.is_failed({"expected": op.expected, "results": results[i]}),
        }
        for i, op in enumerate(ops)
    ]


def soundness_problems(records) -> list:
    return [f"{r['label']}: {r['results']['unsound']}" for r in records
            if "unsound" in r["results"]]


def measure_untraced(args, workdir, restart_log):
    import workloads

    problems = []
    ops = workloads.make(args.workload, workdir, child_env())
    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)
    probe = machine.StartProbe() if args.workload == "cli_session" else machine.SpeedProbe()
    results, times, passes, measured, run_order, probes = run_passes(
        ops, order, args.seconds, restart_log, problems, probe=probe)
    per_op = [median(t) for t in times]
    if args.workload == "cli_session":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        reference = workloads.make(args.workload, workdir, child_env(), inprocess=True)
        for i, op in enumerate(reference):
            out, _ = run_op(op, restart_log)
            out.pop("restart_statuses", None)
            out.pop("restarts", None)
            if out != results[i]:
                problems.append(f"{op.label}: subprocess output differs from in-process call")
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup = time_setup(args.workload)

    records = records_of(args.workload, ops, results)
    problems += soundness_problems(records)
    tail_value, tail_pct, tail_beyond = stats.tail(per_op)
    metrics = {
        "setup_s": (median(setup), "s"),
        "op_s_p50": (median(per_op), "s"),
        "op_s_tail": (tail_value, "s"),
        "ops_per_s": (sum(len(t) for t in times) / measured, "1/s"),
        "ops_per_s_scaled": (len(run_order) / stats.speed_scaled(
            run_order, probes, probe.nominal_s), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "failed_share": (stats.failed_share(records), "share"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes: "
                   + ", ".join(f"{t:.4f}" for t in setup),
        "op_s_tail": f"p{tail_pct:.1f}, {tail_beyond} ops beyond, n={len(per_op)}"
                     + ("" if tail_beyond else " (too few ops for the rule: maximum)"),
        "ops_per_s": f"{sum(len(t) for t in times)} ops in {measured:.3f} s, "
                     f"{passes} pass(es) over {len(ops)} inputs",
        "ops_per_s_scaled": f"speed probe {1e3 * sum(probes) / len(probes):.3f} ms on average "
                            f"over {len(probes)} samples, nominal "
                            f"{1e3 * probe.nominal_s:g} ms ({type(probe).__name__})",
        "failed_share": f"{sum(r['failed'] for r in records)} of {len(records)} ops "
                        "miss the ground truth",
        "peak_rss_mb": "largest child process" if args.workload == "cli_session"
                       else "benchmark process",
    }
    timing = {
        "passes": passes,
        "measured_s": measured,
        "order": [ops[i].label for i in order],
        "op_seconds": {op.label: times[i] for i, op in enumerate(ops)},
        "run_order_seconds": run_order,
        "probe_seconds": probes,
        "setup_s": setup,
        "tail_percentile": tail_pct,
        "tail_beyond": tail_beyond,
    }
    return records, metrics, notes, timing, problems


def measure_traced(args, workdir, restart_log):
    import workloads

    problems = []
    tracer = spans.Tracer()
    patches = spans.Patches()
    tracer.install(patches)
    try:
        ops = workloads.make(args.workload, workdir, child_env(), inprocess=True)
        order = list(range(len(ops)))
        random.Random(args.seed).shuffle(order)
        mark = len(restart_log.entries)
        results, times, _, measured, _, _ = run_passes(
            ops, order, args.seconds, restart_log, problems, tracer)
        pass_restarts = restart_log.entries[mark:]
    finally:
        patches.restore()
    layers = spans.layer_metrics(tracer, pass_restarts)

    # Tracing overhead: the same ops again, untraced, for about a third of
    # --seconds; compared op by op with their traced times.
    traced_s = untraced_s = 0.0
    rerun = 0
    budget = args.seconds / 3.0
    for i in order:
        if untraced_s >= budget:
            break
        _, elapsed = run_op(ops[i], restart_log)
        traced_s += times[i][0]
        untraced_s += elapsed
        rerun += 1
    layers["tracing.overhead_share"] = traced_s / untraced_s - 1.0
    layers.update(time_cli_startup())

    records = records_of(args.workload, ops, results)
    problems += soundness_problems(records)
    layers["verdicts.failed_share"] = stats.failed_share(records)
    units = dict(spans.LAYER_UNITS)
    units.update({"tracing.overhead_share": "share", "cli.interpreter_s": "s",
                  "cli.import_s": "s", "verdicts.failed_share": "share"})
    metrics = {name: (layers[name], unit) for name, unit in units.items()}
    notes = {
        "tracing.overhead_share": f"{rerun} ops re-run untraced: {rerun / traced_s:.4f} "
                                  f"ops/s traced vs {rerun / untraced_s:.4f} untraced",
    }
    timing = {"measured_s": measured, "spans": len(tracer.spans),
              "op_seconds": {op.label: times[i] for i, op in enumerate(ops)}}
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"{args.workload}.seed{args.seed}.spans.jsonl"))
    return records, metrics, notes, timing, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="order of the ops (default 0)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    spec = benchmark_spec()
    load_envchan()
    os.makedirs(OUT, exist_ok=True)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    import workloads

    restart_log = spans.RestartLog()
    base = spans.Patches()
    restart_log.install(base)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            measured = measure_traced(args, workdir, restart_log)
        else:
            measured = measure_untraced(args, workdir, restart_log)
    finally:
        base.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    records, metrics, notes, timing, problems = measured

    facts = machine.facts()
    facts["run_seed"] = args.seed
    facts["corpus_seed"] = workloads.SEEDS[args.workload]
    if args.trace:
        facts["tracing_overhead_share"] = metrics["tracing.overhead_share"][0]
    result_path = os.path.join(OUT, f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "machine": facts, "records": records,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": notes, "problems": problems, "timing": timing,
        }, handle, indent=1)

    print(f"envchan benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} corpus={len(records)} ops (corpus seed "
          f"{workloads.SEEDS[args.workload]})")
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:44s} {shown:>20s}  {notes.get(name, '')}")
    print(f"  machine: {json.dumps(facts)}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(f"  result file: {os.path.relpath(result_path, ROOT)}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r["results"]["outcome"] == stats.CRASH for r in records),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], (None,))[0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

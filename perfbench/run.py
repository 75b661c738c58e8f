"""adaptbt benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|trees|tick_store|all \
        --seed N --seconds S --trace 0|1 [--smoke]

The program under test is built from `src/` of the same checkout. With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
table with every metric, its unit and its sample count. Times are scaled to
a reference host speed measured between ops (see calibrate.py); the same
metrics in raw host time are the `host.*` rows. Results, the environment
and (traced) the spans go to `perfbench/out/`. `--smoke` runs one small
pass of each part, for the benchmark's own tests.

Workloads, the reason for each and the table of which layer metric should
move which end-to-end metric are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sweep", "trees", "tick_store")
SETUP_SAMPLES = 11

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms"), ("ticks_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("core.self_s", "s"), ("core.node_visits", "count"),
    ("core.visits_per_tick", "count"), ("core.ns_per_visit", "ns"),
    ("core.retry_charged", "count"), ("core.retry_exempt", "count"),
    ("sim.steps", "count"), ("sim.leaf_ticks", "count"),
    ("sim.twist_steps", "count"), ("sim.leaf_self_s", "s"),
    ("sim.sim_time_s", "s"),
    ("strategies.records", "count"), ("strategies.record_s", "s"),
    ("strategies.select_calls", "count"), ("strategies.select_s", "s"),
    ("strategies.load_s", "s"), ("strategies.load_us_per_record", "us"),
    ("strategies.persist_s", "s"), ("strategies.persist_us_per_record", "us"),
    ("treedef.docs", "count"), ("treedef.parse_us_per_doc", "us"),
    ("treedef.validate_s", "s"), ("treedef.serialize_s", "s"),
    ("treedef.instantiate_s", "s"), ("treedef.diagnostics", "count"),
    ("bench.self_s", "s"), ("bench.attempts", "count"),
    ("bench.attempt_success_frac", "ratio"), ("bench.report_s", "s"),
    ("bench.episode_success_frac", "ratio"),
    ("cli.self_s", "s"), ("cli.trace_lines", "count"),
    ("trace.op_s", "s"), ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"))


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import adaptbt from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "adaptbt", "__init__.py")
    if not os.path.isfile(init):
        fail(f"no adaptbt sources at {os.path.relpath(init, ROOT)}")
    sys.path.insert(0, SRC)
    import adaptbt
    if os.path.realpath(adaptbt.__file__) != os.path.realpath(init):
        fail(f"adaptbt imported from {adaptbt.__file__}, not from src/")


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(name: str, workdir: str, samples: int) -> list[tuple]:
    """(host seconds, calibration scale) of importing adaptbt and setting
    up, each in a fresh interpreter that calibrates right after."""
    from calibrate import REFERENCE_NS
    probe = os.path.join(HERE, "setup_probe.py")
    out = []
    for i in range(samples):
        target = os.path.join(workdir, f"setup{i}")
        os.makedirs(target)
        done = subprocess.run([sys.executable, probe, name, target],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if done.returncode != 0:
            fail(f"setup probe failed:\n{done.stderr}")
        setup_ns, chunk_ns = done.stdout.split()
        out.append((int(setup_ns) / 1e9, REFERENCE_NS / float(chunk_ns)))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, pass_index: int, counts, rec) -> dict:
    """Per-layer metrics of one traced pass, times at reference speed."""
    scale = rec.calibration.scale()
    self_ns = {}       # layer -> self time
    key_ns = {}        # (layer, name) -> [total time, self time]
    attributed = 0
    for row in tracer.spans:
        if row["pass"] != pass_index:
            continue
        self_ns[row["layer"]] = self_ns.get(row["layer"], 0) + row["self_ns"]
        agg = key_ns.setdefault((row["layer"], row["name"]), [0, 0])
        agg[0] += row["total_ns"]
        agg[1] += row["self_ns"]
        if row["op"] >= 0:
            attributed += row["self_ns"]
    s = lambda layer: self_ns.get(layer, 0) * scale / 1e9
    t = lambda layer, name: key_ns.get((layer, name), [0, 0])[0] * scale / 1e9
    per = lambda num, den, factor: num * factor / den if den else 0.0
    op_ns = sum(rec.op_ns)
    visits = counts["core.node_visits"]
    attempts = counts["retry.attempts"] if rec.episodes else 0
    return {
        "core.self_s": s("core"),
        "core.node_visits": visits,
        "core.visits_per_tick": per(visits, counts["core.ticks"], 1),
        "core.ns_per_visit": per(s("core"), visits, 1e9),
        "core.retry_charged": counts["core.retry_charged"],
        "core.retry_exempt": counts["core.retry_exempt"],
        "sim.steps": counts["sim.steps"],
        "sim.leaf_ticks": counts["sim.leaf_ticks"],
        "sim.twist_steps": counts["sim.twist_steps"],
        "sim.leaf_self_s": key_ns.get(("sim", "leaf"), [0, 0])[1] * scale / 1e9,
        "sim.sim_time_s": rec.sim_time,
        "strategies.records": counts["strategies.records"],
        "strategies.record_s": t("strategies", "record"),
        "strategies.select_calls": counts["strategies.select_calls"],
        "strategies.select_s": t("strategies", "select"),
        "strategies.load_s": t("strategies", "load"),
        "strategies.load_us_per_record": per(
            t("strategies", "load"), counts["strategies.loaded_records"], 1e6),
        "strategies.persist_s": t("strategies", "persist"),
        "strategies.persist_us_per_record": per(
            t("strategies", "persist"),
            counts["strategies.persisted_records"], 1e6),
        "treedef.docs": counts["treedef.docs"],
        "treedef.parse_us_per_doc": per(t("treedef", "parse"),
                                        counts["treedef.docs"], 1e6),
        "treedef.validate_s": t("treedef", "validate"),
        "treedef.serialize_s": t("treedef", "serialize"),
        "treedef.instantiate_s": t("treedef", "instantiate"),
        "treedef.diagnostics": counts["treedef.diagnostics"],
        "bench.self_s": s("bench"),
        "bench.attempts": attempts,
        "bench.attempt_success_frac": per(rec.successes, attempts, 1),
        "bench.report_s": t("bench", "report"),
        "bench.episode_success_frac": per(rec.successes, rec.episodes, 1),
        "cli.self_s": s("cli"),
        "cli.trace_lines": rec.lines,
        "trace.op_s": op_ns * scale / 1e9,
        "trace.attributed_frac": per(attributed, op_ns, 1),
    }


def pass_s(rec, seconds: float) -> float:
    """Host seconds of a pass without its calibration samples."""
    return seconds - rec.calibration.spent_ns / 1e9


def signature(rec) -> tuple:
    """What one pass must repeat exactly: op count, ticks, episodes, outcomes."""
    return (len(rec.ok), rec.ticks, rec.lines, rec.episodes, rec.successes,
            rec.sim_time)


def run_workload(args) -> int:
    import_program()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run_workload(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, workloads, workdir) -> int:
    setup = measure_setup(args.workload, workdir,
                          1 if args.smoke else SETUP_SAMPLES)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                  args.smoke)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    recs = []          # untraced passes
    traced = []        # (pass index, counts, recorder) of traced passes
    untraced_s = []
    traced_s = []
    started = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(untraced_s)
        rec = workloads.Recorder(tracer if use_tracer else None)
        gc.collect()
        if use_tracer:
            tracer.begin_pass(len(recs) + len(traced))
            tracer.install()
        t0 = time.perf_counter_ns()
        try:
            workload.run_pass(rec)
        finally:
            elapsed = (time.perf_counter_ns() - t0) / 1e9
            if use_tracer:
                tracer.uninstall()
        if use_tracer:
            traced.append((tracer.pass_index, tracer.counts, rec))
            traced_s.append(elapsed)
        else:
            recs.append(rec)
            untraced_s.append(elapsed)
        done = time.perf_counter() - started >= args.seconds or args.smoke
        if done and (tracer is None or traced):
            break

    everything = recs + [rec for _, _, rec in traced]
    attempted = sum(len(r.ok) for r in everything)
    failed = sum(r.failed for r in everything)
    # a pass's ops are fixed by the seed, so everything it counts must repeat
    repeats = (len({signature(r) for r in everything}) == 1
               and len({tuple(sorted(c.items())) for _, c, _ in traced}) <= 1)
    if not repeats:
        print("perfbench: passes disagree on counts or simulated time",
              file=sys.stderr)
    first = recs[0]
    env = {"python": platform.python_version(), "git": git_revision(),
           "nproc": os.cpu_count(), "machine": platform.machine(),
           "workload": args.workload, "seeds": workload.seeds,
           "run_seconds": args.seconds, "smoke": args.smoke,
           "passes": len(recs), "traced_passes": len(traced),
           "ops_per_pass": len(first.ok), "ops": attempted}
    ticks = sum(r.ticks for r in recs)
    samples = {"setup": len(setup), "pass": len(recs),
               "op": sum(len(r.op_ns) for r in recs), "tick": ticks}
    rows = []
    # reference-speed metrics first, then the same in raw host time
    for label, scaled in (("", True), ("host.", False)):
        factor = (lambda r: r.calibration.scale()) if scaled else (lambda r: 1)
        op_ms = [ns * factor(r) / 1e6 for r in recs for ns in r.op_ns]
        deciles = statistics.quantiles(op_ms, n=10)
        op_s = sum(sum(r.op_ns) * factor(r) for r in recs) / 1e9
        rows += [
            (label + "setup_s", statistics.median(
                host * (scale if scaled else 1) for host, scale in setup),
             "s", samples["setup"]),
            (label + "wall_s", statistics.median(
                pass_s(r, seconds) * factor(r)
                for r, seconds in zip(recs, untraced_s)), "s", samples["pass"]),
            (label + "op_ms_p50", statistics.median(op_ms), "ms", samples["op"]),
            (label + "op_ms_p90", deciles[8], "ms", samples["op"]),
            (label + "ticks_per_s", ticks / op_s, "1/s", samples["tick"]),
        ]
    rows += [
        ("peak_rss_mb", peak_rss_mb(), "MB", 1),
        ("ops_failed_frac", failed / attempted, "ratio", attempted),
        ("host.calibration_us", statistics.median(
            ns / 1e3 for r in recs for ns in r.calibration.samples), "us",
         sum(len(r.calibration.samples) for r in recs)),
    ]
    if first.episodes:
        rows += [("sim_time_s", first.sim_time, "s", first.episodes),
                 ("episode_success_frac", first.successes / first.episodes,
                  "ratio", first.episodes)]
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in dict(END_TO_END)}

    if tracer is not None:
        per_pass = [layer_metrics(tracer, index, counts, rec)
                    for index, counts, rec in traced]
        for name, unit in PER_LAYER:
            if name == "trace.overhead_frac":
                value = (statistics.median(
                    pass_s(r, t) * r.calibration.scale()
                    for (_, _, r), t in zip(traced, traced_s))
                    / statistics.median(
                        pass_s(r, t) * r.calibration.scale()
                        for r, t in zip(recs, untraced_s)) - 1.0)
            else:
                value = statistics.median(p[name] for p in per_pass)
            rows.append((name, value, unit, len(per_pass)))
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name in dict(PER_LAYER)}
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w") as handle:
            for row in tracer.spans:
                handle.write(json.dumps(row) + "\n")

    print(f"# adaptbt benchmark {' '.join(f'{k}={v}' for k, v in env.items())}")
    print(f"{'workload':<11} {'metric':<34} {'value':>16} {'unit':<6} samples")
    for name, value, unit, samples in rows:
        print(f"{args.workload:<11} {name:<34} {value:>16.6f} {unit:<6} {samples}")
    for error in {e for r in everything for e in r.errors}:
        print(f"# op error:\n{error}", file=sys.stderr)
    result = {"correct": failed == 0 and repeats, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{int(bool(tracer))}.json"), "w") as handle:
        json.dump({"env": env, "rows": rows, "result": result}, handle,
                  indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter; one table, one combined line."""
    import_program()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            fail(f"workload {name} exited {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        with open(os.path.join(OUT, f"result-{name}-seed{args.seed}"
                               f"-trace{args.trace}.json")) as handle:
            records[name] = json.load(handle)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"all-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump({"git": git_revision(), "python": platform.python_version(),
                   "nproc": os.cpu_count(), "seed": args.seed,
                   "run_seconds": args.seconds, "trace": args.trace,
                   "workloads": records}, handle, indent=1)
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small pass, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""groupcodes benchmark: one workload per run, every op checked.

Run from the repository root:

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one caller.  ``--trace 0`` runs ops for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs a
fixed set of ops untraced and then traced, pair after pair for
``--seconds``, and reports the per-layer metrics (medians over the pairs)
and the tracing overhead.  ``--smoke`` shrinks every input to its smallest
size.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import metrics
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_out")

IMPORT_PROBES = 9
SETUP_BUILDS = 5
PREBUILT = 12
TRACE_OPS = {"chain": 3, "block": 9, "certified_check": 12, "cli": 16}
PROBE = "import time; t = time.perf_counter(); import groupcodes.cli; print(time.perf_counter() - t)"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("chain", "block", "certified_check", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest inputs, for a quick check")
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(workloads, args) -> tuple:
    """Import time in fresh interpreters plus input-building time, each a median."""
    imports = []
    for _ in range(IMPORT_PROBES):
        out, code, _rss = workloads.run_child([sys.executable, "-c", PROBE], ROOT)
        if code != 0:
            raise RuntimeError("importing groupcodes.cli failed")
        imports.append(float(out))
    builds = []
    for _ in range(SETUP_BUILDS):
        t0 = perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, ROOT, SCRATCH)
        for i in range(PREBUILT):
            wl.instance(i)
        builds.append(perf_counter() - t0)
    return wl, statistics.median(imports), statistics.median(builds)


def tail(latencies: list[float]) -> tuple[int | None, float]:
    """The highest whole percentile with at least ten ops beyond it, and its value.

    The value is the nearest-rank percentile.  With fewer than twenty ops
    even the median leaves fewer than ten beyond it, so the maximum is
    returned with percentile None.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    p = 100 * (n - 10) // n
    if p < 50:
        return None, ordered[-1]
    return p, ordered[-(-p * n // 100) - 1]


def run_ops(wl, insts, digest=None, before=None, after=None) -> tuple[list[float], list[str]]:
    """Run and check each instance once; return per-op wall times and failures."""
    latencies, failures = [], []
    for i, inst in enumerate(insts):
        if before:
            before()
        t0 = perf_counter()
        t1 = None
        try:
            result = wl.run(inst)
            t1 = perf_counter()
            out = wl.check(inst, result)
            if digest is not None:
                digest.update(out)
        except Exception as exc:  # a failed op is counted, reported and the loop goes on
            t1 = t1 or perf_counter()
            failures.append(f"{inst.label}: {exc!r}")
        latencies.append(t1 - t0)
        if after:
            after(i, t1 - t0)
    return latencies, failures


def timed_run(workloads, wl, seconds: float) -> dict:
    latencies: list[float] = []
    failures: list[str] = []
    digest = hashlib.sha256()
    # Whole rounds of size classes only, so every run weighs the classes alike.
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(latencies) % wl.round_len:
        lat, fail = run_ops(wl, [wl.instance(len(latencies))], digest)
        latencies += lat
        failures += fail
    if isinstance(wl, workloads.CliWorkload):
        peak_kb = wl.children_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pct, tail_value = tail(latencies)
    return {
        "latencies": latencies,
        "failures": failures,
        "digest": digest.hexdigest(),
        "tail_pct": pct,
        "values": {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "peak_rss_mb": peak_kb / 1024,
        },
    }


def traced_run(workloads, wl, seconds: float, import_s: float, span_path: str) -> dict:
    insts = [wl.instance(i) for i in range(TRACE_OPS[wl.name])]
    is_cli = isinstance(wl, workloads.CliWorkload)
    child_out = os.path.join(SCRATCH, f"trace-{wl.name}-{wl.seed}.json")
    passes: list[dict] = []
    untraced, traced, failures = [], [], []
    attempted = 0
    start = perf_counter()
    with open(span_path, "w", encoding="utf-8") as spans_fh:
        while not passes or perf_counter() - start < seconds:
            lat, fail = run_ops(wl, insts)
            untraced.append(sum(lat))
            failures += fail
            summary = tracer.empty_summary()
            overhead = [0.0]
            first = not passes
            if is_cli:
                wl.launcher = [sys.executable, os.path.join(HERE, "launcher.py"), child_out]

                def after(i, wall):
                    # A child that failed may have written nothing; its op is already counted as failed.
                    if not os.path.exists(child_out):
                        return
                    with open(child_out, encoding="utf-8") as fh:
                        child = json.load(fh)
                    os.remove(child_out)
                    tracer.merge(summary, child["summary"])
                    overhead[0] += wall - child["main_s"]
                    if first:
                        tracer.dump_spans(spans_fh, child["spans"], i)

                try:
                    lat, fail = run_ops(wl, insts, after=after)
                finally:
                    wl.launcher = None
            else:
                t = tracer.Tracer()
                uninstall = tracer.install(t)
                try:
                    lat, fail = run_ops(wl, insts, before=t.begin_op)
                finally:
                    uninstall()
                summary = t.summary()
                if first:
                    tracer.dump_spans(spans_fh, t.spans, 0)
            traced.append(sum(lat))
            failures += fail
            attempted += 2 * len(insts)
            extras = {"import_s": import_s, "process_overhead_s": overhead[0]}
            passes.append(metrics.layer_values(summary, extras))
    # Times are medians over the pairs; counts and ratios repeat exactly, so
    # the first pass gives them.
    values = {
        name: statistics.median(p[name] for p in passes) if unit == "s" else passes[0][name]
        for name, unit, _better, _value, _moves in metrics.PER_LAYER
    }
    return {
        "attempted": attempted,
        "failures": failures,
        "values": values,
        "pairs": len(passes),
        "untraced_s": statistics.median(untraced),
        "traced_s": statistics.median(traced),
    }


def reference_check(workloads, name: str) -> tuple[bool, str, str | None]:
    """Digest of the frozen reference corpus against the one recorded in reference.json."""
    got = workloads.reference_digest(name, ROOT, SCRATCH)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        want = json.load(fh).get(name)
    return got == want, got, want


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupcodes", "__init__.py")):
        print(f"error: no groupcodes sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(SCRATCH, exist_ok=True)
    import workloads  # imports groupcodes, so only once src is on the path

    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}"
          f"{', smoke sizes' if args.smoke else ''}")
    print(f"# python {platform.python_version()}, cpu {cpu_model()}, nproc {len(os.sched_getaffinity(0))}")
    try:
        wl, import_s, build_s = measure_setup(workloads, args)
    except (OSError, RuntimeError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    setup_s = import_s + build_s
    print(f"# set-up: import {import_s:.4f} s (median of {IMPORT_PROBES} fresh interpreters), "
          f"inputs {build_s:.4f} s (median of {SETUP_BUILDS} builds of {PREBUILT}); "
          f"excluded draws: {wl.excluded} over the oracle cap, {wl.outside_band} outside the size band")
    # The reference corpus runs before timing, so it also warms up the code paths.
    ref_ok, got, want = reference_check(workloads, args.workload)
    print(f"# reference corpus sha256 {got}: {'matches' if ref_ok else f'MISMATCH, recorded {want}'}")

    if args.trace:
        span_path = os.path.join(SCRATCH, f"spans-{args.workload}-{args.seed}.jsonl")
        res = traced_run(workloads, wl, args.seconds, import_s, span_path)
        attempted = res["attempted"]
        print(f"# traced run: {res['pairs']} untraced/traced pair(s) of {TRACE_OPS[args.workload]} ops; "
              f"spans of the first traced pass in {os.path.relpath(span_path, ROOT)}")
        units = {name: unit for name, unit, _b, _v, _m in metrics.PER_LAYER}
        for name, unit, _better, _value, moves in metrics.PER_LAYER:
            print(f"{name} {res['values'][name]:.6g} {unit}  (moves {moves})")
        over = res["traced_s"] - res["untraced_s"]
        print(f"# tracing overhead: {over:.4f} s per pass ({res['traced_s']:.4f} traced - "
              f"{res['untraced_s']:.4f} untraced, {100 * over / res['untraced_s']:.0f}%)")
        out_metrics = {name: {"value": res["values"][name], "unit": units[name]} for name in units}
    else:
        res = timed_run(workloads, wl, args.seconds)
        attempted = len(res["latencies"])
        values = dict(res["values"], setup_s=setup_s)
        pct = "max" if res["tail_pct"] is None else f"p{res['tail_pct']:g}"
        notes = {"latency_tail_s": f"  ({pct}, n={attempted})", "latency_p50_s": f"  (n={attempted})"}
        for name, unit, _better in metrics.END_TO_END:
            print(f"{name} {values[name]:.6g} {unit}{notes.get(name, '')}")
        out_metrics = {name: {"value": values[name], "unit": unit} for name, unit, _b in metrics.END_TO_END}
        print(f"# report sha256 over {attempted} ops: {res['digest']}")

    failures = res["failures"]
    name, unit = metrics.ERROR_RATE
    print(f"{name} {len(failures) / attempted:.6g} {unit}  ({len(failures)} of {attempted} ops failed)")
    print(f"# inputs used {len(wl.pool)}; excluded draws: {wl.excluded} over the oracle cap, "
          f"{wl.outside_band} outside the size band")
    for line in failures[:5]:
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "correct": not failures and ref_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

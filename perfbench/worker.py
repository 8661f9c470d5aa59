"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by ``run.py``; never run by hand.  Modes:

``setup``  import the package and generate the inputs, report how long it took.
``run``    the same set-up, then passes over the operation list until the time
           is up.  With ``--trace 1`` passes alternate untraced and traced, so
           the tracing overhead is measured in the same process.

The result is written as JSON to ``--out``; nothing goes to standard output.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import clock  # noqa: E402


def build(workload, seed, work_dir, in_process):
    import workloads

    if workload == "closed_form":
        return workloads.ClosedForm(seed)
    if workload == "oracle":
        return workloads.Oracle(seed)
    return workloads.CliSweep(seed, work_dir, in_process=in_process)


def versions():
    import numpy as np

    info = {"numpy": np.__version__}
    scipy = sys.modules.get("scipy")
    if scipy is None:
        import importlib.metadata as md
        info["scipy"] = md.version("scipy")
    else:
        info["scipy"] = scipy.__version__
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    return info


def run_passes(wl, seconds, trace, min_passes, all_spans):
    import tracer as tracing

    tracer = tracing.Tracer() if trace else None
    passes = []
    begin = time.perf_counter()
    n = 0
    while n < min_passes or time.perf_counter() - begin < seconds:
        # with tracing, pass 0 warms up and passes then alternate traced/untraced
        traced = trace and n % 2 == 1
        if traced:
            tracer.install()
        latencies, outputs = [], []
        start, steal = clock.sample(), clock.machine_steal_s()
        for _, fn in wl.ops:
            a = clock.sample()
            try:
                outputs.append(fn())
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append(exc)
            b = clock.sample()
            latencies.append(b[1] - a[1] if wl.in_process else wl.child_cpu_s)
        end = clock.sample()
        wall = end[0] - start[0]
        record = {"traced": traced, "warmup": n == 0, "wall_s": sum(latencies),
                  "raw_wall_s": wall, "stolen_s": clock.machine_steal_s() - steal,
                  "latencies": latencies}
        if traced:
            tracer.uninstall()
            spans, counts = tracer.take()
            record["layers"] = tracing.summarize(spans, counts)
            record["uncovered_s"] = wall - tracing.top_level_cover(spans)
            all_spans.append(spans)
            if hasattr(wl, "csv_totals"):
                record["csv_bytes"], record["csv_rows"] = wl.csv_totals()
        record["ok"] = [not isinstance(out, Exception) and bool(wl.check(i, out))
                        for i, out in enumerate(outputs)]
        if hasattr(wl, "end_pass"):
            wl.end_pass()
        passes.append(record)
        n += 1
    return passes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    in_process = bool(args.trace)
    setup_spans = None
    if args.trace:
        import regdeph.cli  # noqa: F401  (load every module before wrapping)
        import regdeph.oracle  # noqa: F401
        import tracer as tracing

        tracer = tracing.Tracer()
        with tracer:
            wl = build(args.workload, args.seed, args.work, in_process)
        spans, counts = tracer.take()
        setup_spans = tracing.summarize(spans, counts)
        all_spans = [spans]
    else:
        wl = build(args.workload, args.seed, args.work, in_process)
        all_spans = []
    # CPU time since the process started: interpreter, imports and inputs
    result = {"setup_s": clock.sample()[1], "setup_wall_s": time.perf_counter() - T_START}
    if args.mode == "run":
        wl.prepare_checks()
        min_passes = max(wl.MIN_PASSES, 5 if args.trace else 2)
        result["passes"] = run_passes(wl, args.seconds, args.trace, min_passes, all_spans)
        result["setup_trace"] = setup_spans
        # the cli_sweep work runs in child processes, which report their own peak
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "cli_sweep" and not in_process:
            peak_kb = wl.peak_rss_kb
        result["peak_rss_mb"] = peak_kb / 1024
        result["versions"] = versions()
        result["replaced_instances"] = getattr(wl, "replaced", 0)
    if args.spans and all_spans:
        # the set-up phase and the first traced pass; later passes repeat the same calls
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "thread"],
                       "phases": all_spans[:2]}, fh, separators=(",", ":"))
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

"""regdeph benchmark: one workload, end-to-end metrics or a traced per-layer run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Workloads are ``closed_form`` (in-process library calls), ``oracle``
(brute-force instance checks) and ``cli_sweep`` (one command-line process per
command).  The package is used straight from ``src/``; every input is drawn
from ``--seed``.  Set-up is measured in several fresh worker processes, the
timed passes in one more.  BLAS runs single-threaded in every process.
Times are CPU times, which leave out hypervisor steal (see ``clock.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it describe the machine and give each metric with its unit.  The full result,
and with ``--trace 1`` every span, are written under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("closed_form", "oracle", "cli_sweep")
SETUP_RUNS = 5       # fresh set-up processes besides the timed one
IMPORT_RUNS = 5      # fresh interpreters per import-time measurement
TAIL_BEYOND = 10     # samples that must lie beyond the tail percentile
BLAS_THREADS = "1"
MMAP_THRESHOLD = 4 << 20   # bytes; fixed for the oracle workload's processes

# per-layer metrics that sum several traced functions
GROUPS = {
    "config.build": ("config.build_geometry", "config.build_bath", "config.build_state"),
    "codes.encode": ("codes.encode_adjacent", "codes.encode_modulated"),
    "bath.spectra": ("bath.discretize_spectrum", "bath.gaussian_peak_modes"),
}

# metric name -> (function group, quantity, unit); quantities other than
# calls/s/self_s are exact counts computed from the arguments of the calls
LAYER_METRICS = {}
for _group, _quantities in (
        ("core.fidelity_curve", ("calls", "s", "self_s")),
        ("core.factor_curves", ("calls", "s", "self_s")),
        ("core.spin_structure_factor", ("calls", "s")),
        ("core.pair_factors", ("calls", "s", "self_s")),
        ("core.evolve", ("calls", "s")),
        ("codes.subdecoherence_residual", ("s", "self_s")),
        ("oracle.check_instance", ("calls", "s", "self_s")),
        ("oracle.thermal_reduced_density", ("calls", "s", "self_s")),
        ("oracle.default_truncation", ("s",)),
        ("oracle.coherent_vector", ("calls", "s")),
        ("oracle.default_suite", ("s",)),
        ("regimes.disorder_average_weights", ("calls", "s", "self_s")),
        ("geometry.apply_disorder", ("calls", "s")),
        ("core.damping_weight", ("calls", "s")),
        ("core.phase_weight", ("calls", "s")),
        ("cli.run_command", ("calls", "s", "self_s")),
        ("config.parse_config", ("s",)),
        ("config.config_hash", ("s",)),
        ("config.build", ("s",)),
        ("bath.discretize_spectrum", ("s",)),
        ("bath.gaussian_peak_modes", ("s",)),
        ("bath.spectral_moments", ("s",)),
        ("regimes.classify", ("s",)),
        ("codes.find_pairing", ("s",)),
        ("codes.encode", ("s",))):
    for _q in _quantities:
        LAYER_METRICS[f"{_group}.{_q}"] = (_group, _q, "count" if _q == "calls" else "s")
for _name, _group, _q, _unit in (
        ("core.factor_curves.kernel_elems", "core.factor_curves", "kernel_elems", "count"),
        ("core.spin_structure_factor.lm_bytes", "core.spin_structure_factor",
         "lm_bytes_max", "B"),
        ("core.pair_factors.pairs", "core.pair_factors", "pairs", "count"),
        ("regimes.samples", "regimes.disorder_average_weights", "samples", "count"),
        ("oracle.trunc_dim", "oracle.default_truncation", "trunc_dim", "count"),
        ("bath.n_modes", "bath.spectra", "n_modes", "count")):
    LAYER_METRICS[_name] = (_group, _q, _unit)

# per-layer metrics that do not come from one function group
OTHER_LAYER_METRICS = {
    "cli.csv_bytes": "B",        # size of every CSV a pass wrote
    "cli.csv_rows": "count",     # data rows of those CSVs
    "init.import_s": "s",        # fresh interpreter, import regdeph
    "cli.import_s": "s",         # fresh interpreter, import regdeph.cli
    "trace.wall_s": "s",         # median traced pass, CPU clock
    "trace.overhead_s": "s",     # traced minus untraced pass, same process
    "trace.uncovered_s": "s",    # pass time outside every top-level span
    "fail_ratio": "1",           # failed over attempted operations
}
END_TO_END = ("wall_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root, workload=None):
    env = dict(os.environ)
    if workload == "oracle":
        # with glibc's sliding mmap threshold, whether the oracle's large
        # sample arrays get their own mappings or reuse the heap changes from
        # run to run, and peak RSS with it (82 to 105 MB at one seed)
        env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(root, env, work, mode, args, out_name, extra=()):
    out = work / out_name
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work / "cli"), "--out", str(out),
           *extra]
    (work / "cli").mkdir(exist_ok=True)
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=150)
    if proc.returncode != 0:
        fail(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(out.read_text())


def import_time(root, env, module):
    """Median time of ``import <module>`` over fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_RUNS):
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        times.append(float(out.strip()))
    return statistics.median(times)


def cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(result):
    passes = result["passes"]
    latencies = [x for p in passes for x in p["latencies"]]
    tail_s, pct, n = tail(latencies)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (result["setup_median_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw_wall = statistics.median(p["raw_wall_s"] for p in passes)
    stolen = sum(p["stolen_s"] for p in passes)
    notes = {"op_tail_s": f"p{pct:.2f} of {n} operations",
             "op_p50_s": f"{n} operations",
             "wall_s": f"median of {len(passes)} passes; wall clock {raw_wall:.4g} s, "
                       f"machine steal {stolen:.3g} s over the run",
             "setup_s": f"median of {len(result['setup_runs_s'])} fresh set-ups"}
    return metrics, notes


def layer_value(layers, group, quantity):
    values = [layers.get(fn, {}).get(quantity, 0.0) for fn in GROUPS.get(group, (group,))]
    return max(values) if quantity.endswith("_max") else sum(values)


def per_layer(result, init_import_s, cli_import_s):
    """Per-layer metrics: set-up spans plus the median traced pass."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"] and not p["warmup"]]
    setup = result["setup_trace"] or {}
    metrics = {}
    for name, (group, quantity, unit) in LAYER_METRICS.items():
        per_pass = [layer_value(p["layers"], group, quantity) for p in traced]
        pass_value = statistics.median(per_pass)
        if quantity.endswith("_max"):
            value = max(pass_value, layer_value(setup, group, quantity))
        else:
            value = pass_value + layer_value(setup, group, quantity)
        if unit != "s":
            value = int(value)
        metrics[name] = (value, unit)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    oks = [ok for p in result["passes"] for ok in p["ok"]]
    values = {
        "cli.csv_bytes": traced[0].get("csv_bytes", 0),
        "cli.csv_rows": traced[0].get("csv_rows", 0),
        "init.import_s": init_import_s,
        "cli.import_s": cli_import_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(p["wall_s"] for p in plain),
        "trace.uncovered_s": statistics.median(p["uncovered_s"] for p in traced),
        "fail_ratio": oks.count(False) / len(oks),
    }
    for name, unit in OTHER_LAYER_METRICS.items():
        metrics[name] = (values[name], unit)
    return metrics


def exact_counts(result):
    """Counts of every traced pass; they must agree between passes."""
    rows = []
    for p in (q for q in result["passes"] if q["traced"]):
        row = {}
        for name, (group, quantity, unit) in LAYER_METRICS.items():
            if unit != "s":
                row[name] = int(layer_value(p["layers"], group, quantity))
        rows.append(row)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "regdeph" / "__init__.py").is_file():
        fail(f"no regdeph source tree under {root / 'src'}; run from a checkout root")
    env = child_env(root, args.workload)
    base = root / ".perfbench"
    (base / "results").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=base))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        spans_path = base / "results" / f"{tag}.spans.json"
        extra = ("--spans", str(spans_path)) if args.trace else ()
        setups = []
        if not args.trace:
            for n in range(SETUP_RUNS):
                setups.append(run_worker(root, env, work, "setup", args,
                                         f"setup{n}.json")["setup_s"])
        result = run_worker(root, env, work, "run", args, "run.json", extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(result["setup_s"])
    result["setup_runs_s"] = setups
    result["setup_median_s"] = statistics.median(setups)
    oks = [ok for p in result["passes"] for ok in p["ok"]]
    attempted, failed = len(oks), oks.count(False)
    counts_agree = True
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        **result["versions"], "blas_threads": BLAS_THREADS, **cache_sizes(),
        "clock": "cpu", "mmap_threshold": env.get("MALLOC_MMAP_THRESHOLD_", "sliding"),
    }
    if args.trace:
        metrics = per_layer(result, import_time(root, env, "regdeph"),
                            import_time(root, env, "regdeph.cli"))
        counts = exact_counts(result)
        counts_agree = all(row == counts[0] for row in counts)
        notes = {"trace.uncovered_s": "pass wall time not covered by top-level spans",
                 "trace.overhead_s": "traced minus untraced pass time, CPU clock"}
    else:
        metrics, notes = end_to_end(result)
    result["environment"] = environment
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (base / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1))

    print("# " + " ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"# operations attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g} "
          f"replaced_after_chance_failure={result['replaced_instances']}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    if not counts_agree:
        print("# exact counts differ between traced passes")
    print(json.dumps({"correct": failed == 0 and counts_agree,
                      "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: inputs from the seed, operation lists, checks.

A workload object exposes ``ops`` (a list of ``(name, callable)``; one call is
one timed operation), ``prepare_checks()`` (untimed reference work done once
before the first pass) and ``check(index, output)`` (True when the output of
operation ``index`` is correct).  Operations reach the package through module
attributes at call time, so a tracer installed between passes sees them.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import clock
import reference

TOL = 1e-12          # absolute tolerance of the closed-form checks
CHECK_TIMES = 6      # time points of a fidelity curve checked against the reference
CHECK_PAIRS = 10     # ordered label pairs checked per single-time call
CLI_TIMEOUT_S = 60   # a command-line process still running after this is killed


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _random_labels(rng, n_qubits, count):
    chosen = rng.choice(2**n_qubits, size=count, replace=False)
    return [tuple(1 if (code >> q) & 1 else -1 for q in range(n_qubits)) for code in chosen]


# ---------------------------------------------------------------------------
# closed_form: in-process library calls
# ---------------------------------------------------------------------------

class ClosedForm:
    """Pair-heavy and mode-heavy fidelity curves, single-time factors, code residual."""

    N_SINGLE = 8
    in_process = True
    # the slowest operation runs once a pass: with at least TAIL_BEYOND + 1
    # passes the tail percentile always falls on it
    MIN_PASSES = 11

    def __init__(self, seed):
        from regdeph import bath, codes, core, geometry

        self.core, self.codes = core, codes
        rng = _rng(seed, 1)
        power_law = bath.PowerLawCoupling

        # pair-heavy: 12 random labels on an 8-qubit chain, 1-D bath, M = 4096
        self.chain = geometry.RegisterGeometry(
            dims=(8, 1, 1), d=float(rng.uniform(0.8, 1.2)),
            delta=float(rng.uniform(0.02, 0.1)), seed=int(rng.integers(2**31)))
        self.bath1 = bath.discretize_spectrum(
            power_law(amplitude=float(rng.uniform(0.02, 0.05)), exponent=1.0,
                      cutoff=float(rng.uniform(1.5, 3.0))),
            v=1.0, dimensionality=1, n_freq=2048, omega_max=10.0,
            temperature=float(rng.uniform(0.2, 1.0)))
        amps = {core.BasisLabel(spins): complex(rng.normal(), rng.normal())
                for spins in _random_labels(rng, 8, 12)}
        self.state = core.RegisterState.from_unnormalized(amps)
        self.times = np.linspace(0.0, 10.0, 101)

        # mode-heavy: cat state on an 8x8x8 lattice, 3-D bath, M = 12288
        self.cube = geometry.RegisterGeometry(
            dims=(8, 8, 8), d=float(rng.uniform(0.8, 1.2)),
            delta=float(rng.uniform(0.02, 0.1)), seed=int(rng.integers(2**31)))
        self.bath3 = bath.discretize_spectrum(
            power_law(amplitude=float(rng.uniform(2e-7, 4e-7)), exponent=1.0,
                      cutoff=float(rng.uniform(1.5, 3.0))),
            v=1.0, dimensionality=3, n_freq=1024, omega_max=10.0,
            temperature=float(rng.uniform(0.2, 1.0)), n_directions=12)
        self.cat = core.RegisterState.cat(self.cube.n_qubits)

        # single-time calls on the random state
        self.single_times = np.sort(rng.uniform(0.5, 10.0, size=self.N_SINGLE))

        # residual of the adjacent code over all 64 labels of 6 logical qubits
        self.code_geo = geometry.RegisterGeometry(
            dims=(12, 1, 1), d=float(rng.uniform(0.8, 1.2)),
            delta=float(rng.uniform(0.005, 0.02)), seed=int(rng.integers(2**31)))
        self.logical = [core.BasisLabel(spins) for spins in itertools.product((1, -1), repeat=6)]
        self.residual_t = float(rng.uniform(2.0, 8.0))

        self.check_rng = _rng(seed, 11)
        self.ops = [("fidelity_curve.pairs", self._pair_heavy),
                    ("fidelity_curve.cube", self._cube)]
        for t in self.single_times:
            self.ops.append(("pair_factors", lambda t=float(t): self.core.pair_factors(
                self.state.labels(), t, self.bath1, self.chain.positions)))
            self.ops.append(("evolve", lambda t=float(t): self.core.evolve(
                self.state, t, self.bath1, self.chain.positions)))
        self.ops.append(("subdecoherence_residual", self._residual))
        self.expected = None

    def _pair_heavy(self):
        return self.core.fidelity_curve(self.state, self.times, self.bath1, self.chain.positions)

    def _cube(self):
        return self.core.fidelity_curve(self.cat, self.times, self.bath3, self.cube.positions)

    def _residual(self):
        return self.codes.subdecoherence_residual(
            "adjacent", self.code_geo, self.bath1, self.residual_t, self.logical)

    def prepare_checks(self):
        rng = self.check_rng
        labels = self.state.labels()
        amps = self.state.amplitudes
        chain = reference.ModeSums(labels, self.chain.positions, self.bath1)
        cube = reference.ModeSums(self.cat.labels(), self.cube.positions, self.bath3)
        idx = np.sort(rng.choice(np.arange(1, len(self.times)), CHECK_TIMES, replace=False))
        expected = [
            {int(n): chain.fidelity(amps, self.times[n]) for n in idx},
            {int(n): cube.fidelity(self.cat.amplitudes, self.times[n]) for n in idx},
        ]
        pairs = [(a, b) for a in labels for b in labels if a != b]
        for t in self.single_times:
            chosen = [pairs[n] for n in rng.choice(len(pairs), CHECK_PAIRS, replace=False)]
            expected.append({p: chain.factors(*p, t) for p in chosen})
            expected.append({p: chain.density(amps, *p, t) for p in chosen})
        encoded = [self.codes.encode_adjacent(lab) for lab in self.logical]
        expected.append(reference.ModeSums(encoded, self.code_geo.positions, self.bath1)
                        .max_factors(self.residual_t))
        self.expected = expected

    def check(self, index, out):
        want = self.expected[index]
        name = self.ops[index][0]
        if name == "fidelity_curve.pairs" or name == "fidelity_curve.cube":
            return len(out) == len(self.times) and all(
                abs(out[n] - f) <= TOL for n, f in want.items())
        if name == "pair_factors":
            return all(abs(out.eta(*p) - eta) <= TOL and abs(out.phi(*p) - phi) <= TOL
                       for p, (eta, phi) in want.items())
        if name == "evolve":
            return all(abs(out[p] - rho) <= TOL for p, rho in want.items())
        max_eta, max_phi = want
        return abs(out.max_eta - max_eta) <= TOL and abs(out.max_abs_phi - max_phi) <= TOL


# ---------------------------------------------------------------------------
# oracle: brute-force instance checks
# ---------------------------------------------------------------------------

def oracle_cost(inst):
    """Estimated seconds of one ``check_instance`` call, used to pick instances.

    The truncation dimension is estimated the way the oracle chooses it (the
    largest displacement any register label can drive plus the largest sampled
    coherent amplitude, drawn from the instance seed as the oracle draws it).
    The per-step and per-sample coefficients were fitted on a 2-core Xeon; the
    estimate only has to rank instances, not predict times.
    """
    bath = inst.bath
    spins = np.array(list(itertools.product((1, -1), repeat=inst.state.n_qubits)), dtype=float)
    drive = np.sqrt(bath.g2) * np.abs(spins @ np.exp(-1j * (inst.positions @ bath.k.T)))
    a = float(np.max(2.0 * drive / bath.omega))
    thermal = bath.temperature > 0
    if thermal:
        rng = np.random.default_rng(inst.seed)
        shape = (inst.n_samples, bath.n_modes)
        scale = np.sqrt(1.0 / np.expm1(bath.omega / bath.temperature) / 2.0)
        a += float(np.max(np.abs((rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale)))
    dim = math.ceil(a * a + 6.0 * a) + 11
    blocks = len(inst.state.labels()) * bath.n_modes
    if thermal:
        return (inst.steps * (7.4e-6 + blocks * (7.6e-6 + 5.1e-9 * dim**2 + 2.8e-10 * dim**3))
                + 3.5e-5 * inst.n_samples * bath.n_modes)
    return inst.steps * (1.1e-5 + blocks * (1.3e-6 + 6.2e-10 * dim**3))


class Oracle:
    """Instances drawn from ``default_suite`` with seeds derived from the workload seed.

    Instance sizes vary tenfold between suites, so an instance is kept only
    when its estimated cost falls in the band of its kind (cold or thermal),
    and thermal instances must have 8 (label, mode) blocks, which fixes their
    memory.  Every pass then holds about the same work at every seed.

    A thermal check compares Monte Carlo entries at three standard errors, so
    about one instance in a hundred fails by chance at its seed.  Before
    timing, each thermal candidate is checked once; up to ``SPARE_THERMAL``
    that fail are replaced by the next candidates.  More failures than that
    are kept, so a real defect still shows as failed operations.
    """

    N_COLD, N_THERMAL, SPARE_THERMAL = 32, 8, 2
    in_process = True
    MIN_PASSES = 2
    COLD_BAND = (0.075, 0.1)        # estimated seconds, about the 40th to 60th
    THERMAL_BAND = (0.62, 0.82)     # percentile of each kind in default suites
    THERMAL_BLOCKS = 8
    MAX_SUITES = 1000

    def __init__(self, seed):
        from regdeph import oracle

        self.oracle = oracle
        rng = _rng(seed, 2)
        self.cold, self.thermal = [], []
        n_thermal = self.N_THERMAL + self.SPARE_THERMAL
        for _ in range(self.MAX_SUITES):
            if len(self.cold) >= self.N_COLD and len(self.thermal) >= n_thermal:
                break
            for inst in oracle.default_suite(seed=int(rng.integers(2**31))):
                if inst.bath.temperature > 0:
                    blocks = len(inst.state.labels()) * inst.bath.n_modes
                    if (len(self.thermal) < n_thermal and blocks == self.THERMAL_BLOCKS
                            and self._in_band(inst, self.THERMAL_BAND)):
                        self.thermal.append(inst)
                elif len(self.cold) < self.N_COLD and self._in_band(inst, self.COLD_BAND):
                    self.cold.append(inst)
        if len(self.cold) < self.N_COLD or len(self.thermal) < n_thermal:
            raise RuntimeError("oracle workload: too few instances in the size bands")
        self.instances = self.ops = None
        self.replaced = 0

    @staticmethod
    def _in_band(inst, band):
        return band[0] <= oracle_cost(inst) < band[1]

    def prepare_checks(self):
        kept, skipped = [], []
        for inst in self.thermal:
            if len(kept) == self.N_THERMAL:
                break
            if len(skipped) < self.SPARE_THERMAL and not self.oracle.check_instance(inst).passed:
                skipped.append(inst)
            else:
                kept.append(inst)
        self.replaced = len(skipped)
        per = self.N_COLD // self.N_THERMAL
        self.instances = []
        for n, inst in enumerate(kept):
            self.instances += self.cold[n * per:(n + 1) * per] + [inst]
        self.ops = [(inst.name, lambda inst=inst: self.oracle.check_instance(inst))
                    for inst in self.instances]

    def check(self, index, out):
        return bool(out.passed)


# ---------------------------------------------------------------------------
# cli_sweep: one command-line process per operation
# ---------------------------------------------------------------------------

def _ini(sections):
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in entries.items()]
        lines.append("")
    return "\n".join(lines)


PAIRINGS = ((1, 1), (1, 2), (2, 1), (2, 3))


def cli_configs(seed):
    """INI texts of the command list, all drawn from the workload seed."""
    rng = _rng(seed, 3)

    def geometry(n_qubits, delta_hi=0.1):
        return {"dims": f"{n_qubits},1,1", "d": repr(float(rng.uniform(0.8, 1.2))),
                "delta": repr(float(rng.uniform(0.0, delta_hi))),
                "seed": int(rng.integers(2**31))}

    def coupling():
        return {"A": repr(float(rng.uniform(0.05, 0.2))), "p": "1.0",
                "cutoff": repr(float(rng.uniform(1.5, 3.0)))}

    def bath(dimensionality=1):
        return {"v": "1.0", "T": repr(float(rng.uniform(0.2, 1.0))),
                "dimensionality": dimensionality}

    def entries(n_qubits, count):
        amps = rng.normal(size=(count, 2))
        amps /= np.sqrt(np.sum(amps**2))
        labels = ["".join("+" if s > 0 else "-" for s in spins)
                  for spins in _random_labels(rng, n_qubits, count)]
        return labels, "".join(f"\n    {lab} {re!r} {im!r}"
                                        for lab, (re, im) in zip(labels, amps.tolist()))

    def peak(m, n, d):
        # m * kbar * d / pi lies within 0.04 of n: the pairing search succeeds at m
        eps = float(rng.uniform(-0.04, 0.04))
        return {"center": repr((n + eps) * math.pi / (m * d)), "width": "0.05",
                "n_freq": 201}

    labels, state = entries(6, 4)
    simulate = _ini({
        "geometry": geometry(6), "bath": bath(), "coupling": coupling(),
        "grid": {"modes": 2048, "omega_max": "10.0"},
        "state": {"entries": state},
        "run": {"t0": "0.0", "t1": "10.0", "steps": 101,
                "track_pairs": f"{labels[0]},{labels[1]};{labels[2]},{labels[3]}"},
        "output": {"precision": 12, "export_positions": "true", "export_modes": "true"},
    })
    classify = _ini({
        "geometry": geometry(8), "bath": bath(3), "coupling": coupling(),
        "grid": {"modes": 1024, "omega_max": "10.0", "directions": 12},
        "run": {"m": int(rng.integers(1, 4))},
    })
    pair_geo = geometry(8)
    pairing = _ini({
        "geometry": pair_geo, "bath": bath(),
        # (m, n) such that no smaller m pairs and m divides the 4 logical qubits
        "peak": peak(*PAIRINGS[int(rng.integers(len(PAIRINGS)))], float(pair_geo["d"])),
        "run": {"m_max": 6, "eps_tol": "0.1"},
    })
    enc_geo = geometry(8)
    _, enc_state = entries(4, 3)
    encode = _ini({
        "geometry": enc_geo, "bath": bath(),
        "peak": peak(2, 1, float(enc_geo["d"])),
        "state": {"entries": enc_state},
        "run": {"code": "modulated", "m_max": 4, "eps_tol": "0.1"},
    })
    scan_labels, _ = entries(6, 2)
    disorder = _ini({
        "geometry": geometry(6, 0.0),
        "run": {"delta_min": "0.0", "delta_max": repr(float(rng.uniform(0.3, 0.6))),
                "delta_steps": 4, "samples": 2000,
                "k_magnitude": repr(float(rng.uniform(0.5, 2.0))),
                "label_i": scan_labels[0], "label_j": scan_labels[1]},
    })
    return {"simulate": simulate, "classify": classify, "pairing": pairing,
            "encode": encode, "disorder-scan": disorder}


# (operation name, command, config name, extra arguments)
CLI_OPS = (
    ("simulate", "simulate", "simulate", ()),
    ("simulate.rerun", "simulate", "simulate", ()),
    ("classify", "classify", "classify", ()),
    ("pairing", "pairing", "pairing", ()),
    ("encode", "encode", "encode", ()),
    ("disorder-scan", "disorder-scan", "disorder-scan", ("--threads", "2")),
)


class CliSweep:
    """Fresh ``python -m regdeph.cli`` processes, or ``cli.main`` in-process when traced."""

    # the tail percentile falls within the two simulate commands of each pass
    # once there are at least 4 passes
    MIN_PASSES = 4

    def __init__(self, seed, work_dir, in_process=False):
        import regdeph.cli

        self.cli = regdeph.cli
        self.work = Path(work_dir)
        self.in_process = in_process
        self.configs = {}
        for name, text in cli_configs(seed).items():
            path = self.work / f"{name}.ini"
            path.write_text(text)
            self.configs[name] = path
        self.peak_rss_kb = 0
        self.pass_no = 0
        self.ops = [(name, lambda n=n: self._run(n)) for n, (name, *_rest) in enumerate(CLI_OPS)]
        self.csv_bytes = self.csv_rows = 0
        self.expected = None

    def out_dir(self, index):
        return self.work / f"pass{self.pass_no}" / f"op{index}"

    def _run(self, index):
        _, command, config, extra = CLI_OPS[index]
        self.child_cpu_s = 0.0
        out = self.out_dir(index)
        argv = [command, "--config", str(self.configs[config]), "--output", str(out),
                "--quiet", *extra]
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            return code, buf.getvalue()
        out.mkdir(parents=True, exist_ok=True)
        log = out.parent / f"op{index}.stdout"
        with open(log, "w") as fh:
            proc = subprocess.Popen([sys.executable, "-m", "regdeph.cli", *argv],
                                    stdout=fh, stderr=subprocess.STDOUT)
            # wait4 reports the child's own peak RSS; the timer ends a hung child
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.child_cpu_s = clock.child_cpu_s(usage)
        return proc.returncode, log.read_text()

    def prepare_checks(self):
        """In-process library values that ``simulate.csv`` must reproduce."""
        from regdeph import config, core

        cfg = config.parse_config(self.configs["simulate"].read_text())
        geo, bath = config.build_geometry(cfg), config.build_bath(cfg)
        state = config.build_state(cfg, geo.n_qubits)
        times = config.time_grid(cfg)
        columns = [times, core.fidelity_curve(state, times, bath, geo.positions)]
        for chunk in cfg.run.track_pairs.split(";"):
            i, j = (config.parse_label(text) for text in chunk.split(","))
            columns += core.factor_curves(i, j, times, bath, geo.positions)
        p = cfg.output.precision
        self.expected = [[f"{float(col[n]):.{p}g}" for col in columns] for n in range(len(times))]
        cfg = config.parse_config(self.configs["classify"].read_text())
        report = self.cli.classify(config.build_geometry(cfg),
                                   self.cli.spectral_moments(config.build_bath(cfg)),
                                   m=cfg.run.m, v=cfg.bath.v)
        self.classification = report.classification

    def check(self, index, out):
        code, stdout = out
        if code != 0:
            return False
        name = CLI_OPS[index][0]
        out_dir = self.out_dir(index)
        if name == "simulate":
            rows = [line.split(",") for line in
                    (out_dir / "simulate.csv").read_text().splitlines()[3:]]
            return rows == self.expected and all(
                (out_dir / f).is_file() for f in ("positions.csv", "modes.csv"))
        if name == "simulate.rerun":
            first = self.out_dir(0)
            return all((out_dir / f).read_bytes() == (first / f).read_bytes()
                       for f in ("simulate.csv", "positions.csv", "modes.csv"))
        if name == "classify":
            return json.loads(stdout.splitlines()[-1])["classification"] == self.classification
        if name == "pairing":
            return stdout.startswith("m = ")
        if name == "encode":
            return (out_dir / "encoded_state.txt").is_file()
        rows = (out_dir / "disorder_scan.csv").read_text().splitlines()[3:]
        return len(rows) == 4

    def csv_totals(self):
        """Bytes and data rows of every CSV the current pass wrote."""
        size = rows = 0
        for path in (self.work / f"pass{self.pass_no}").rglob("*.csv"):
            text = path.read_text()
            size += len(text.encode())
            rows += sum(1 for line in text.splitlines()[3:] if line)
        return size, rows

    def end_pass(self):
        shutil.rmtree(self.work / f"pass{self.pass_no}", ignore_errors=True)
        self.pass_no += 1

"""Command-line interface: reproducible runs with bit-stable outputs.

Every command reads one INI config; the resolved configuration (defaults
filled, seed override applied) is hashed and the hash embedded in all output
headers, so identical config+seed reruns produce byte-identical files.

Every command computes first and writes last: a handler builds everything,
raises every error and returns its files as text, and only then does
``run_command`` make the output directory and write them.  So no error
leaves an output directory behind.

A handler imports what it runs, numpy and the package's modules, when it is
called, so a process loads only its own command's modules: ``pairing`` and
``encode`` never load numpy (see the README on start-up).
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, _resolver
from .config import (
    ConfigError,
    RunConfig,
    build_bath,
    build_geometry,
    build_state,
    config_hash,
    dump_state,
    parse_config,
    parse_label,
    serialize_config,
    time_grid,
)

if TYPE_CHECKING:
    from .codes import PairingPlan
    from .states import BasisLabel

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TOLERANCE = 2
EXIT_IO = 3


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _csv(header: str, columns, precision: int) -> str:
    """CSV text: the column names, then the equal-length ``columns`` side by side,
    an integer column as ``%d`` and a float one at ``precision`` significant digits."""
    import numpy as np

    fmt = ["%d" if np.issubdtype(col.dtype, np.integer) else f"%.{precision}g"
           for col in columns]
    buf = io.StringIO()
    buf.write(header + "\n")
    np.savetxt(buf, np.column_stack(columns), fmt=fmt, delimiter=",")
    return buf.getvalue()


def _write_text(path: Path, cfg_hash: str, body: str):
    """Write a file atomically: the version and config-hash comments, then ``body``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(f"# regdeph {__version__}\n")
            fh.write(f"# config-sha256 = {cfg_hash}\n")
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _maybe_exports(cfg: RunConfig, geometry, bath) -> dict[str, str]:
    import numpy as np

    precision = cfg.output.precision
    files = {}
    if cfg.output.export_positions:
        columns = [np.arange(geometry.n_qubits), *geometry.positions.T]
        files["positions.csv"] = _csv("index,x,y,z", columns, precision)
    if cfg.output.export_modes:
        columns = [bath.omega, bath.g2, *bath.k.T]
        files["modes.csv"] = _csv("omega,g2,kx,ky,kz", columns, precision)
    return files


def _parse_track_pairs(text: str, n_qubits: int) -> list[tuple[BasisLabel, BasisLabel]]:
    pairs = []
    for chunk in filter(None, (p.strip() for p in text.split(";"))):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"run.track_pairs entry must be 'label,label': {chunk!r}")
        pairs.append(tuple(parse_label(part, n_qubits, "run.track_pairs") for part in parts))
    return pairs


def _cmd_simulate(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    from .core import factor_curves, fidelity_curve

    geometry = build_geometry(cfg)
    bath = build_bath(cfg)
    state = build_state(cfg, geometry.n_qubits)
    tracked = _parse_track_pairs(cfg.run.track_pairs, geometry.n_qubits)
    times = time_grid(cfg)
    names, columns = ["t", "F"], [times, fidelity_curve(state, times, bath, geometry.positions)]
    for idx, (i, j) in enumerate(tracked):
        names += [f"eta_{idx}", f"phi_{idx}"]
        columns += factor_curves(i, j, times, bath, geometry.positions)
    files = {"simulate.csv": _csv(",".join(names), columns, cfg.output.precision)}
    return EXIT_OK, files | _maybe_exports(cfg, geometry, bath)


def _cmd_classify(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    from .bath import spectral_moments
    from .regimes import classify

    geometry = build_geometry(cfg)
    bath = build_bath(cfg)
    moments = spectral_moments(bath)
    report = classify(geometry, moments, m=cfg.run.m, v=bath.v)
    data = report.as_dict()
    for key, value in data.items():
        print(f"{key} = {_fmt(value, cfg.output.precision) if isinstance(value, float) else value}")
    print(json.dumps(data, sort_keys=True))
    return EXIT_OK, {}


def _resolve_plan(cfg: RunConfig) -> PairingPlan | None:
    from .codes import PairingPlan, find_pairing

    d = cfg.geometry.d
    if cfg.run.pair_m is not None:
        kbar = cfg.bath.peak.center if cfg.bath.peak is not None else None
        residual = (abs(cfg.run.pair_m * kbar * d / math.pi - cfg.run.pair_n)
                    if kbar is not None else None)
        return PairingPlan(m=cfg.run.pair_m, n=cfg.run.pair_n, residual=residual)
    if cfg.bath.peak is None:
        raise ConfigError("modulated pairing needs run.pair_m/pair_n or a [peak] section")
    return find_pairing(cfg.bath.peak.center, d, m_max=cfg.run.m_max, eps_tol=cfg.run.eps_tol)


def _no_pairing(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    """A failed pairing search: the outcome on stdout, the reason on stderr."""
    print("pairing = none")
    print(f"# no (m, n) with residual <= {cfg.run.eps_tol:g} for m <= {cfg.run.m_max}",
          file=sys.stderr)
    return EXIT_TOLERANCE, {}


def _cmd_pairing(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    from .codes import find_pairing

    if cfg.bath.peak is None:
        raise ConfigError("pairing needs a [peak] section with the dominant wavenumber")
    plan = find_pairing(cfg.bath.peak.center, cfg.geometry.d, m_max=cfg.run.m_max,
                        eps_tol=cfg.run.eps_tol)
    if plan is None:
        return _no_pairing(cfg)
    # the cover is checked before anything is printed; an odd register has none
    n_qubits = cfg.geometry.n_qubits
    pairs = plan.physical_pairs(n_qubits // 2) if n_qubits % 2 == 0 else ()
    print(f"m = {plan.m}")
    print(f"n = {plan.n}")
    print(f"epsilon = {_fmt(plan.residual, cfg.output.precision)}")
    if pairs:
        print("pairs = " + ";".join(f"{a},{b}" for a, b in pairs))
    return EXIT_OK, {}


def _cmd_encode(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    """Encode the configured state, which lives on the logical qubits: one per physical pair."""
    from .codes import encode_adjacent, encode_modulated

    n_qubits = cfg.geometry.n_qubits
    if n_qubits % 2:
        raise ConfigError(f"geometry.dims: encode needs an even number of physical "
                          f"qubits, got {n_qubits}")
    state = build_state(cfg, n_qubits // 2)
    if cfg.run.code == "adjacent":
        encoded = encode_adjacent(state)
    else:
        plan = _resolve_plan(cfg)
        if plan is None:
            return _no_pairing(cfg)
        encoded = encode_modulated(state, plan)
        eps = "unknown" if plan.residual is None else _fmt(plan.residual, cfg.output.precision)
        print(f"pairing m = {plan.m}, n = {plan.n}, epsilon = {eps}")
    return EXIT_OK, {"encoded_state.txt": dump_state(encoded)}


def _cmd_disorder_scan(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    import numpy as np

    from .regimes import disorder_average_weights
    from .states import RegisterState

    run = cfg.run
    geometry = build_geometry(cfg)
    if run.label_i:
        label_i, label_j = (parse_label(getattr(run, key), geometry.n_qubits, f"run.{key}")
                            for key in ("label_i", "label_j"))
    else:
        label_i, label_j = RegisterState.single_flip(geometry.n_qubits).labels()
    rows = []
    for delta in np.linspace(run.delta_min, run.delta_max, run.delta_steps):
        est1, est2 = disorder_average_weights(label_i, label_j, run.k_magnitude,
                                              replace(geometry, delta=float(delta)), run.samples)
        rows.append([float(delta), est1.mean, est1.stderr, est2.mean, est2.stderr])
    header = "delta,mean_lambda1,stderr1,mean_lambda2,stderr2"
    return EXIT_OK, {"disorder_scan.csv": _csv(header, np.transpose(rows), cfg.output.precision)}


def _cmd_validate_oracle(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    from .oracle import check_instance, default_suite

    suite = default_suite(seed=cfg.geometry.seed, n_cold=cfg.run.instances)
    all_ok = True
    for inst in suite:
        check = check_instance(inst)
        status = "PASS" if check.passed else "FAIL"
        print(f"{inst.name}: deviation = {check.deviation:.3e} "
              f"(absolute, tolerance {check.tolerance:.3e}) {status} "
              f"[dim = {check.dim}, steps = {check.steps}, leakage = {check.leakage:.3e}]")
        all_ok = all_ok and check.passed
    return (EXIT_OK if all_ok else EXIT_TOLERANCE), {}


_HANDLERS = {
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "encode": _cmd_encode,
    "pairing": _cmd_pairing,
    "disorder-scan": _cmd_disorder_scan,
    "validate-oracle": _cmd_validate_oracle,
}
COMMANDS = tuple(_HANDLERS)


def run_command(command: str, cfg: RunConfig, out_dir: str | Path = None,
                quiet: bool = False) -> int:
    """Run one command against a resolved config and return its exit code.

    The handler computes everything and returns its files; only then is the
    output directory made and each file written atomically under the hash header.
    """
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    digest = config_hash(cfg)
    if not quiet:
        print(f"# regdeph {__version__}")
        print(f"# command = {command}")
        print(f"# seed = {cfg.geometry.seed}")
        print(f"# config-sha256 = {digest}")
        for line in serialize_config(cfg).strip().splitlines():
            print(f"# {line}")
    code, files = _HANDLERS[command](cfg)
    out = Path(out_dir) if out_dir is not None else Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, body in files.items():
        _write_text(out / name, digest, body)
        print(f"wrote {out / name}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regdeph",
        description="Dephasing dynamics of qubit registers in a common bosonic bath.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI run configuration")
    parser.add_argument("--output", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored")
    parser.add_argument("--quiet", action="store_true", help="suppress the run header")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        return run_command(args.command, cfg, out_dir=args.output, quiet=args.quiet)
    except RuntimeError as exc:
        from .oracle import TruncationLeakageError  # raised only by validate-oracle

        if not isinstance(exc, TruncationLeakageError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


# names callers reach as attributes of this module: each its home module's current binding
__getattr__ = _resolver(__name__, {
    "classify": "regimes", "disorder_average_weights": "regimes", "factor_curves": "core",
    "fidelity_curve": "core", "spectral_moments": "bath"})


if __name__ == "__main__":
    sys.exit(main())

"""Run configuration: strict INI parsing, canonical serialization, builders.

Unknown sections or keys are hard errors, every default is recorded in the
resolved configuration, and ``parse -> serialize -> parse`` is the identity.
The sha256 of the canonical serialization identifies a run in all output
headers.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .bath import BathSpectrum, PowerLawCoupling, discretize_spectrum, gaussian_peak_modes
from .core import BasisLabel, RegisterState
from .geometry import RegisterGeometry

__all__ = ["ConfigError", "RunConfig", "parse_config", "serialize_config", "config_hash"]

STATE_NORM_TOL = 1e-9


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


@dataclass(frozen=True)
class GeometryConfig:
    dims: tuple[int, int, int] = (2, 1, 1)
    d: float = 1.0
    delta: float = 0.0
    seed: int = 12345


@dataclass(frozen=True)
class PeakConfig:
    center: float  # dominant wavenumber
    width: float   # wavenumber spread
    n_freq: int = 201
    n_sigma: float = 6.0
    amplitude: float = 1.0


@dataclass(frozen=True)
class BathConfig:
    v: float = 1.0
    T: float = 0.0
    dimensionality: int = 1
    coupling_amplitude: float = 1.0
    coupling_exponent: float = 1.0
    coupling_cutoff: float = 1.0
    grid_modes: int = 1024
    grid_omega_max: float = 10.0
    grid_directions: int = 12
    peak: PeakConfig | None = None


@dataclass(frozen=True)
class StateConfig:
    preset: str = "cat"
    site: int = 0
    entries: tuple[tuple[str, float, float], ...] | None = None


@dataclass(frozen=True)
class RunOptions:
    t0: float = 0.0
    t1: float = 10.0
    steps: int = 101
    m: int = 1
    m_max: int = 10
    eps_tol: float = 0.1
    code: str = "adjacent"
    pair_m: int | None = None
    pair_n: int | None = None
    track_pairs: str = ""
    delta_min: float = 0.0
    delta_max: float = 0.5
    delta_steps: int = 6
    samples: int = 500
    k_magnitude: float = 1.0
    label_i: str = ""
    label_j: str = ""
    instances: int = 6
    oracle_samples: int = 4000


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    precision: int = 12
    export_positions: bool = False
    export_modes: bool = False


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    bath: BathConfig = field(default_factory=BathConfig)
    state: StateConfig = field(default_factory=StateConfig)
    run: RunOptions = field(default_factory=RunOptions)
    output: OutputConfig = field(default_factory=OutputConfig)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, geometry=replace(self.geometry, seed=seed))


# (section, key) -> conversion; None marks optional keys without defaults
_SCHEMA = {
    "geometry": {"dims": "dims", "d": "float", "delta": "float", "seed": "int"},
    "bath": {"v": "float", "T": "float", "dimensionality": "int"},
    "coupling": {"A": "float", "p": "float", "cutoff": "float"},
    "grid": {"modes": "int", "omega_max": "float", "directions": "int"},
    "peak": {"center": "float", "width": "float", "n_freq": "int",
             "n_sigma": "float", "amplitude": "float"},
    "state": {"preset": "str", "site": "int", "entries": "entries"},
    "run": {"t0": "float", "t1": "float", "steps": "int", "m": "int",
            "m_max": "int", "eps_tol": "float", "code": "str", "pair_m": "int",
            "pair_n": "int", "track_pairs": "str", "delta_min": "float",
            "delta_max": "float", "delta_steps": "int", "samples": "int",
            "k_magnitude": "float", "label_i": "str", "label_j": "str",
            "instances": "int", "oracle_samples": "int"},
    "output": {"dir": "str", "precision": "int", "export_positions": "bool",
               "export_modes": "bool"},
}


def _convert(section: str, key: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "str":
            return raw.strip()
        if kind == "dims":
            parts = tuple(int(p) for p in raw.replace(",", " ").split())
            if len(parts) != 3:
                raise ValueError("dims needs exactly three integers")
            return parts
        if kind == "entries":
            entries = []
            for line in raw.strip().splitlines():
                tokens = line.split()
                if len(tokens) != 3:
                    raise ValueError(
                        f"state entry must be 'label re im', got {line!r}")
                entries.append((tokens[0], float(tokens[1]), float(tokens[2])))
            if not entries:
                raise ValueError("entries block is empty")
            return tuple(entries)
        raise AssertionError(kind)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {section}.{key}: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate an INI configuration, filling every default.

    Raises :class:`ConfigError` on syntax errors (with line information),
    unknown sections or keys, and invalid values.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (T vs t, A)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            values[section][key] = _convert(section, key, raw, _SCHEMA[section][key])

    def pick(section, key, default):
        return values.get(section, {}).get(key, default)

    geometry = GeometryConfig(
        dims=pick("geometry", "dims", (2, 1, 1)),
        d=pick("geometry", "d", 1.0),
        delta=pick("geometry", "delta", 0.0),
        seed=pick("geometry", "seed", 12345),
    )
    peak = None
    if "peak" in values:
        missing = {"center", "width"} - set(values["peak"])
        if missing:
            raise ConfigError(f"[peak] requires keys: {', '.join(sorted(missing))}")
        peak = PeakConfig(
            center=values["peak"]["center"],
            width=values["peak"]["width"],
            n_freq=pick("peak", "n_freq", 201),
            n_sigma=pick("peak", "n_sigma", 6.0),
            amplitude=pick("peak", "amplitude", 1.0),
        )
    bath = BathConfig(
        v=pick("bath", "v", 1.0),
        T=pick("bath", "T", 0.0),
        dimensionality=pick("bath", "dimensionality", 1),
        coupling_amplitude=pick("coupling", "A", 1.0),
        coupling_exponent=pick("coupling", "p", 1.0),
        coupling_cutoff=pick("coupling", "cutoff", 1.0),
        grid_modes=pick("grid", "modes", 1024),
        grid_omega_max=pick("grid", "omega_max", 10.0),
        grid_directions=pick("grid", "directions", 12),
        peak=peak,
    )
    state = StateConfig(
        preset=pick("state", "preset", "cat"),
        site=pick("state", "site", 0),
        entries=pick("state", "entries", None),
    )
    if state.entries is not None and "preset" in values.get("state", {}):
        raise ConfigError("state.preset and state.entries are mutually exclusive")
    run_kwargs = {key: values["run"][key]
                  for key in _SCHEMA["run"] if key in values.get("run", {})}
    run = RunOptions(**run_kwargs)
    output = OutputConfig(
        dir=pick("output", "dir", "out"),
        precision=pick("output", "precision", 12),
        export_positions=pick("output", "export_positions", False),
        export_modes=pick("output", "export_modes", False),
    )
    cfg = RunConfig(geometry=geometry, bath=bath, state=state, run=run, output=output)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    g = cfg.geometry
    if any(n < 1 for n in g.dims):
        raise ConfigError(f"geometry.dims must be positive, got {g.dims}")
    if g.d <= 0:
        raise ConfigError(f"geometry.d must be positive, got {g.d}")
    if g.delta < 0:
        raise ConfigError(f"geometry.delta must be >= 0, got {g.delta}")
    b = cfg.bath
    if b.v <= 0:
        raise ConfigError(f"bath.v must be positive, got {b.v}")
    if b.T < 0:
        raise ConfigError(f"bath.T must be >= 0, got {b.T}")
    if b.dimensionality not in (1, 3):
        raise ConfigError(f"bath.dimensionality must be 1 or 3, got {b.dimensionality}")
    if b.grid_modes < 1:
        raise ConfigError(f"grid.modes must be >= 1, got {b.grid_modes}")
    if b.grid_omega_max <= 0:
        raise ConfigError(f"grid.omega_max must be positive, got {b.grid_omega_max}")
    if b.dimensionality == 3 and (b.grid_directions < 2 or b.grid_directions % 2):
        raise ConfigError(f"grid.directions must be even and >= 2 for a 3-D bath, "
                          f"got {b.grid_directions}")
    if cfg.state.entries is None and cfg.state.preset not in ("cat", "single-flip"):
        raise ConfigError(f"state.preset must be 'cat' or 'single-flip', got {cfg.state.preset!r}")
    r = cfg.run
    if r.steps < 1:
        raise ConfigError(f"run.steps must be >= 1, got {r.steps}")
    if r.t0 < 0 or r.t1 < r.t0:
        raise ConfigError("run time grid needs 0 <= t0 <= t1")
    if r.code not in ("adjacent", "modulated"):
        raise ConfigError(f"run.code must be 'adjacent' or 'modulated', got {r.code!r}")
    if r.instances < 0:
        raise ConfigError(f"run.instances must be >= 0, got {r.instances}")
    if r.oracle_samples < 2:
        raise ConfigError(f"run.oracle_samples must be >= 2, got {r.oracle_samples}")
    if (r.pair_m is None) != (r.pair_n is None):
        raise ConfigError("run.pair_m and run.pair_n must be given together")
    if cfg.output.precision < 1 or cfg.output.precision > 17:
        raise ConfigError("output.precision must be in 1..17")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text with every resolved value, including defaults."""
    lines = []

    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    g = cfg.geometry
    lines += ["[geometry]",
              f"dims = {g.dims[0]},{g.dims[1]},{g.dims[2]}",
              f"d = {fmt(g.d)}", f"delta = {fmt(g.delta)}", f"seed = {g.seed}", ""]
    b = cfg.bath
    lines += ["[bath]", f"v = {fmt(b.v)}", f"T = {fmt(b.T)}",
              f"dimensionality = {b.dimensionality}", ""]
    lines += ["[coupling]", f"A = {fmt(b.coupling_amplitude)}",
              f"p = {fmt(b.coupling_exponent)}", f"cutoff = {fmt(b.coupling_cutoff)}", ""]
    lines += ["[grid]", f"modes = {b.grid_modes}", f"omega_max = {fmt(b.grid_omega_max)}",
              f"directions = {b.grid_directions}", ""]
    if b.peak is not None:
        p = b.peak
        lines += ["[peak]", f"center = {fmt(p.center)}", f"width = {fmt(p.width)}",
                  f"n_freq = {p.n_freq}", f"n_sigma = {fmt(p.n_sigma)}",
                  f"amplitude = {fmt(p.amplitude)}", ""]
    s = cfg.state
    lines += ["[state]"]
    if s.entries is None:
        lines += [f"preset = {s.preset}"]
    else:
        lines += ["entries ="]
        for label, re_part, im_part in s.entries:
            lines += [f"    {label} {repr(re_part)} {repr(im_part)}"]
    lines += [f"site = {s.site}", ""]
    r = cfg.run
    lines += ["[run]", f"t0 = {fmt(r.t0)}", f"t1 = {fmt(r.t1)}", f"steps = {r.steps}",
              f"m = {r.m}", f"m_max = {r.m_max}", f"eps_tol = {fmt(r.eps_tol)}",
              f"code = {r.code}"]
    if r.pair_m is not None:
        lines += [f"pair_m = {r.pair_m}"]
    if r.pair_n is not None:
        lines += [f"pair_n = {r.pair_n}"]
    if r.track_pairs:
        lines += [f"track_pairs = {r.track_pairs}"]
    lines += [f"delta_min = {fmt(r.delta_min)}", f"delta_max = {fmt(r.delta_max)}",
              f"delta_steps = {r.delta_steps}", f"samples = {r.samples}",
              f"k_magnitude = {fmt(r.k_magnitude)}"]
    if r.label_i:
        lines += [f"label_i = {r.label_i}"]
    if r.label_j:
        lines += [f"label_j = {r.label_j}"]
    lines += [f"instances = {r.instances}", f"oracle_samples = {r.oracle_samples}", ""]
    o = cfg.output
    lines += ["[output]", f"dir = {o.dir}", f"precision = {o.precision}",
              f"export_positions = {fmt(o.export_positions)}",
              f"export_modes = {fmt(o.export_modes)}", ""]
    return "\n".join(lines)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_geometry(cfg: RunConfig) -> RegisterGeometry:
    g = cfg.geometry
    return RegisterGeometry(dims=g.dims, d=g.d, delta=g.delta, seed=g.seed)


def build_bath(cfg: RunConfig) -> BathSpectrum:
    b = cfg.bath
    if b.peak is not None:
        return gaussian_peak_modes(
            center=b.v * b.peak.center, width=b.v * b.peak.width, v=b.v,
            dimensionality=b.dimensionality, n_freq=b.peak.n_freq,
            n_sigma=b.peak.n_sigma, amplitude=b.peak.amplitude,
            temperature=b.T, n_directions=b.grid_directions)
    coupling = PowerLawCoupling(amplitude=b.coupling_amplitude,
                                exponent=b.coupling_exponent,
                                cutoff=b.coupling_cutoff)
    return discretize_spectrum(coupling, v=b.v, dimensionality=b.dimensionality,
                               n_freq=b.grid_modes, omega_max=b.grid_omega_max,
                               temperature=b.T, n_directions=b.grid_directions)


def parse_label(text: str, n_qubits: int | None = None) -> BasisLabel:
    label = BasisLabel.from_string(text)
    if n_qubits is not None and len(label) != n_qubits:
        raise ConfigError(f"label {text!r} has {len(label)} qubits, expected {n_qubits}")
    return label


def state_from_entries(entries, n_qubits: int | None = None) -> RegisterState:
    """Build a state from (label, re, im) rows; norm checked then made exact."""
    amps: dict[BasisLabel, complex] = {}
    for label_text, re_part, im_part in entries:
        label = parse_label(label_text, n_qubits)
        if label in amps:
            raise ConfigError(f"duplicate state entry for label {label_text!r}")
        amps[label] = complex(re_part, im_part)
    norm2 = sum(abs(c) ** 2 for c in amps.values())
    if abs(norm2 - 1.0) > STATE_NORM_TOL:
        raise ConfigError(f"state entries have squared norm {norm2!r}, expected 1 "
                          f"within {STATE_NORM_TOL:g}")
    return RegisterState.from_unnormalized(amps)


def build_state(cfg: RunConfig, n_qubits: int) -> RegisterState:
    s = cfg.state
    if s.entries is not None:
        return state_from_entries(s.entries, n_qubits)
    if s.preset == "cat":
        return RegisterState.cat(n_qubits)
    if s.preset == "single-flip":
        if not 0 <= s.site < n_qubits:
            raise ConfigError(f"state.site {s.site} out of range for {n_qubits} qubits")
        return RegisterState.single_flip(n_qubits, site=s.site)
    raise ConfigError(f"unknown state preset {s.preset!r}")


def load_state_file(text: str, n_qubits: int | None = None) -> RegisterState:
    """Read a whitespace-separated 'label re im' state file."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            raise ConfigError(f"state file line {lineno}: expected 'label re im'")
        try:
            entries.append((tokens[0], float(tokens[1]), float(tokens[2])))
        except ValueError:
            raise ConfigError(f"state file line {lineno}: bad amplitude") from None
    if not entries:
        raise ConfigError("state file has no entries")
    return state_from_entries(entries, n_qubits)


def dump_state(state: RegisterState) -> str:
    """Serialize a state in the 'label re im' file format, labels sorted."""
    rows = []
    for label in sorted(state.labels(), key=str):
        amp = state.amplitudes[label]
        rows.append(f"{label} {amp.real!r} {amp.imag!r}")
    return "\n".join(rows) + "\n"


def time_grid(cfg: RunConfig) -> np.ndarray:
    r = cfg.run
    return np.linspace(r.t0, r.t1, r.steps)

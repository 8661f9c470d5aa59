"""Run configuration: strict INI parsing, canonical serialization, builders.

The config dataclasses are the schema: each field names its INI key and
carries its bounds or allowed values, and the field order is the canonical
order.  Unknown sections or keys are hard errors, every default is recorded
in the resolved configuration, and ``parse -> serialize -> parse`` is the
identity.  The sha256 of the canonical serialization identifies a run in all
output headers.

Parsing needs no numpy: the builders of a bath, a geometry and a time grid
import it, and their modules, when they are called.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
import operator
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import TYPE_CHECKING

from .states import BasisLabel, RegisterState

if TYPE_CHECKING:
    import numpy as np

    from .bath import BathSpectrum
    from .geometry import RegisterGeometry

__all__ = ["ConfigError", "RunConfig", "parse_config", "serialize_config", "config_hash"]

STATE_NORM_TOL = 1e-9


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


def _ini(name: str, kind: str, default=MISSING, *, replaced_by=None,
         gt=None, ge=None, le=None, choices=None):
    """A field kept at INI key ``name`` ("section.key") and converted as ``kind``.
    The canonical form omits a key while it holds a default of None or "", and
    a key ``replaced_by`` another field while that field is set (not None).
    A value must be greater than ``gt``, at least ``ge``, at most ``le`` and one
    of ``choices``, for each of them that is given."""
    section, key = name.split(".")
    bounds = tuple((op, limit) for op, limit in ((">", gt), (">=", ge), ("<=", le))
                   if limit is not None)
    return field(default=default, metadata={"section": section, "key": key, "kind": kind,
                                            "replaced_by": replaced_by,
                                            "bounds": bounds, "choices": choices})


def _sub(cls):
    return field(default_factory=cls, metadata={"config": cls})


@dataclass(frozen=True)
class GeometryConfig:
    dims: tuple[int, int, int] = _ini("geometry.dims", "dims", (2, 1, 1))
    d: float = _ini("geometry.d", "float", 1.0, gt=0)
    delta: float = _ini("geometry.delta", "float", 0.0, ge=0)
    seed: int = _ini("geometry.seed", "int", 12345, ge=0)

    @property
    def n_qubits(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]


@dataclass(frozen=True)
class PeakConfig:
    center: float = _ini("peak.center", "float", gt=0)  # dominant wavenumber
    width: float = _ini("peak.width", "float", gt=0)    # wavenumber spread
    n_freq: int = _ini("peak.n_freq", "int", 201, ge=1)
    n_sigma: float = _ini("peak.n_sigma", "float", 6.0, gt=0)
    amplitude: float = _ini("peak.amplitude", "float", 1.0, ge=0)


@dataclass(frozen=True)
class BathConfig:
    v: float = _ini("bath.v", "float", 1.0, gt=0)
    T: float = _ini("bath.T", "float", 0.0, ge=0)
    dimensionality: int = _ini("bath.dimensionality", "int", 1, choices=(1, 3))
    coupling_amplitude: float = _ini("coupling.A", "float", 1.0, ge=0)
    coupling_exponent: float = _ini("coupling.p", "float", 1.0)
    coupling_cutoff: float = _ini("coupling.cutoff", "float", 1.0, gt=0)
    grid_modes: int = _ini("grid.modes", "int", 1024, ge=1)
    grid_omega_max: float = _ini("grid.omega_max", "float", 10.0, gt=0)
    grid_directions: int = _ini("grid.directions", "int", 12)
    peak: PeakConfig | None = field(default=None, metadata={"config": PeakConfig})


@dataclass(frozen=True)
class StateConfig:
    preset: str = _ini("state.preset", "str", "cat", replaced_by="entries",
                       choices=("cat", "single-flip"))
    entries: tuple[tuple[str, float, float], ...] | None = _ini(
        "state.entries", "entries", None)
    site: int = _ini("state.site", "int", 0)


@dataclass(frozen=True)
class RunOptions:
    t0: float = _ini("run.t0", "float", 0.0, ge=0)
    t1: float = _ini("run.t1", "float", 10.0)
    steps: int = _ini("run.steps", "int", 101, ge=1)
    m: int = _ini("run.m", "int", 1, ge=1)
    m_max: int = _ini("run.m_max", "int", 10, ge=1)
    eps_tol: float = _ini("run.eps_tol", "float", 0.1, gt=0)
    code: str = _ini("run.code", "str", "adjacent", choices=("adjacent", "modulated"))
    pair_m: int | None = _ini("run.pair_m", "int", None, ge=1)
    pair_n: int | None = _ini("run.pair_n", "int", None, ge=0)
    track_pairs: str = _ini("run.track_pairs", "str", "")
    delta_min: float = _ini("run.delta_min", "float", 0.0, ge=0)
    delta_max: float = _ini("run.delta_max", "float", 0.5, ge=0)
    delta_steps: int = _ini("run.delta_steps", "int", 6, ge=1)
    samples: int = _ini("run.samples", "int", 500, ge=2)
    k_magnitude: float = _ini("run.k_magnitude", "float", 1.0)
    label_i: str = _ini("run.label_i", "str", "")
    label_j: str = _ini("run.label_j", "str", "")
    instances: int = _ini("run.instances", "int", 6, ge=0)


@dataclass(frozen=True)
class OutputConfig:
    dir: str = _ini("output.dir", "str", "out")
    precision: int = _ini("output.precision", "int", 12, ge=1, le=17)
    export_positions: bool = _ini("output.export_positions", "bool", False)
    export_modes: bool = _ini("output.export_modes", "bool", False)


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometryConfig = _sub(GeometryConfig)
    bath: BathConfig = _sub(BathConfig)
    state: StateConfig = _sub(StateConfig)
    run: RunOptions = _sub(RunOptions)
    output: OutputConfig = _sub(OutputConfig)

    def with_seed(self, seed: int) -> "RunConfig":
        """This config with ``geometry.seed`` replaced, under the same checks as a parsed one."""
        cfg = replace(self, geometry=replace(self.geometry, seed=seed))
        _validate(cfg)
        return cfg


def _keys(config):
    """``(owner, field)`` of every INI key of a config class or instance, in canonical
    order.  An instance's unset optional sub-configs (``peak = None``) are skipped."""
    for f in fields(config):
        if "config" not in f.metadata:
            yield config, f
            continue
        sub = f.metadata["config"] if isinstance(config, type) else getattr(config, f.name)
        if sub is not None:
            yield from _keys(sub)


_SCHEMA: dict[str, dict[str, str]] = {}  # section -> key -> conversion kind
for _, _f in _keys(RunConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"]] = _f.metadata["kind"]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _state_rows(text: str) -> tuple[tuple[str, float, float], ...]:
    """Parse 'label re im' rows, one a line; blank lines are skipped.

    Comment lines never get here: the INI parser drops them from the value.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens:
            try:
                label, re_part, im_part = tokens
                rows.append((label, _finite(re_part), _finite(im_part)))
            except ValueError:
                raise ValueError(f"line {lineno}: expected 'label re im' with finite "
                                 f"re and im, got {line.strip()!r}") from None
    if not rows:
        raise ValueError("no 'label re im' rows")
    return tuple(rows)


def _boolean(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[lowered]


def _dims(raw: str) -> tuple[int, int, int]:
    parts = tuple(int(p) for p in raw.replace(",", " ").split())
    if len(parts) != 3 or min(parts) < 1:
        raise ValueError(f"dims needs exactly three positive integers, got {raw.strip()!r}")
    return parts


# kind -> INI text to value, and value to canonical text (entries span lines: see _format)
_PARSE = {"int": int, "float": _finite, "bool": _boolean, "str": str.strip, "dims": _dims,
          "entries": _state_rows}
_FORMAT = {"int": str, "float": repr, "bool": lambda v: "true" if v else "false", "str": str,
           "dims": lambda v: ",".join(map(str, v))}

_HOLDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}  # bound -> its test


def _convert(section: str, key: str, raw: str):
    if key not in _SCHEMA[section]:
        raise ConfigError(f"unknown key {section}.{key}")
    try:
        return _PARSE[_SCHEMA[section][key]](raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {section}.{key}: {exc}") from None


def _from_values(cls, values: dict[str, dict]):
    """Build ``cls`` from the parsed ``{section: {key: value}}``; absent keys keep defaults."""
    kwargs = {}
    for f in fields(cls):
        meta = f.metadata
        if "config" in meta:  # an optional sub-config exists once one of its sections does
            if f.default is MISSING or any(g.metadata["section"] in values
                                           for g in fields(meta["config"])):
                kwargs[f.name] = _from_values(meta["config"], values)
        elif meta["key"] in values.get(meta["section"], {}):
            kwargs[f.name] = values[meta["section"]][meta["key"]]
    missing = [f.metadata for f in fields(cls) if f.name not in kwargs and f.default is MISSING]
    if missing:
        raise ConfigError(f"[{missing[0]['section']}] requires keys: "
                          f"{', '.join(sorted(meta['key'] for meta in missing))}")
    return cls(**kwargs)


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
        values[section] = {key: _convert(section, key, raw) for key, raw in parser.items(section)}
    if {"preset", "entries"} <= values.get("state", {}).keys():
        raise ConfigError("state.preset and state.entries are mutually exclusive")
    cfg = _from_values(RunConfig, values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    for obj, f in _keys(cfg):
        meta, value = f.metadata, getattr(obj, f.name)
        name = f"{meta['section']}.{meta['key']}"
        for op, limit in meta["bounds"]:
            if value is not None and not _HOLDS[op](value, limit):  # an unset key is unbounded
                raise ConfigError(f"{name} must be {op} {limit}, got {value!r}")
        if meta["choices"] and value not in meta["choices"]:
            raise ConfigError(f"{name} must be {' or '.join(map(repr, meta['choices']))}, "
                              f"got {value!r}")
    # the rules below join two or more keys
    b = cfg.bath
    if b.dimensionality == 3 and (b.grid_directions < 2 or b.grid_directions % 2):
        raise ConfigError(f"grid.directions must be even and >= 2 for a 3-D bath, "
                          f"got {b.grid_directions}")
    # below these exponents the continuum damping of a power-law bath diverges in
    # the infrared, and the discrete value only grows with the grid
    p_min = 0.0 if b.T > 0 else -1.0
    if b.peak is None and b.coupling_exponent <= p_min:
        raise ConfigError(f"coupling.p must be > {p_min:g} for a power-law bath at bath.T = "
                          f"{b.T!r}, got {b.coupling_exponent!r}")
    r = cfg.run
    if r.t1 < r.t0:
        raise ConfigError(f"run.t1 must be >= run.t0 = {r.t0!r}, got {r.t1!r}")
    if (r.pair_m is None) != (r.pair_n is None):
        raise ConfigError("run.pair_m and run.pair_n must be given together")
    if bool(r.label_i) != bool(r.label_j):
        raise ConfigError("run.label_i and run.label_j must be given together")


def _format(key: str, kind: str, value) -> str:
    if kind == "entries":
        return "\n    ".join([f"{key} ="] + [f"{label} {re!r} {im!r}" for label, re, im in value])
    return f"{key} = {_FORMAT[kind](value)}"


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text with every resolved value, including defaults."""
    lines, section = [], None
    for obj, f in _keys(cfg):
        meta, value = f.metadata, getattr(obj, f.name)
        if (f.default in (None, "") and value == f.default
                or meta["replaced_by"] and getattr(obj, meta["replaced_by"]) is not None):
            continue
        if meta["section"] != section:
            section = meta["section"]
            lines += ["", f"[{section}]"] if lines else [f"[{section}]"]
        lines.append(_format(meta["key"], meta["kind"], value))
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_geometry(cfg: RunConfig) -> RegisterGeometry:
    from .geometry import RegisterGeometry

    g = cfg.geometry
    return RegisterGeometry(dims=g.dims, d=g.d, delta=g.delta, seed=g.seed)


def build_bath(cfg: RunConfig) -> BathSpectrum:
    from .bath import PowerLawCoupling, discretize_spectrum, gaussian_peak_modes

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


def parse_label(text: str, n_qubits: int | None = None, key: str = "label") -> BasisLabel:
    """Parse a '+'/'-' label; errors name ``key``, the config key the text came from."""
    try:
        label = BasisLabel.from_string(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if n_qubits is not None and len(label) != n_qubits:
        raise ConfigError(f"{key}: label {text!r} has {len(label)} qubits, expected {n_qubits}")
    return label


def state_from_entries(entries, n_qubits: int | None = None) -> RegisterState:
    """Build a state from ``state.entries``' (label, re, im) rows; norm checked then made exact."""
    key = "state.entries"
    amps: dict[BasisLabel, complex] = {}
    for label_text, re_part, im_part in entries:
        label = parse_label(label_text, n_qubits, key)
        if label in amps:
            raise ConfigError(f"{key}: duplicate entry for label {label_text!r}")
        amps[label] = complex(re_part, im_part)
    norm2 = sum(abs(c) ** 2 for c in amps.values())
    if abs(norm2 - 1.0) > STATE_NORM_TOL:
        raise ConfigError(f"{key}: squared norm {norm2!r}, expected 1 within {STATE_NORM_TOL:g}")
    return RegisterState.from_unnormalized(amps)


def build_state(cfg: RunConfig, n_qubits: int) -> RegisterState:
    s = cfg.state
    if s.entries is not None:
        return state_from_entries(s.entries, n_qubits)
    if s.preset == "cat":
        return RegisterState.cat(n_qubits)
    if not 0 <= s.site < n_qubits:
        raise ConfigError(f"state.site: {s.site} is out of range for {n_qubits} qubits")
    return RegisterState.single_flip(n_qubits, site=s.site)


def dump_state(state: RegisterState) -> str:
    """Serialize a state in the 'label re im' file format, labels sorted."""
    rows = sorted(state.items(), key=lambda row: str(row[0]))
    return "".join(f"{label} {amp.real!r} {amp.imag!r}\n" for label, amp in rows)


def time_grid(cfg: RunConfig) -> np.ndarray:
    import numpy as np

    return np.linspace(cfg.run.t0, cfg.run.t1, cfg.run.steps)

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regdeph
from regdeph.cli import EXIT_IO, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main, run_command
from regdeph.config import (
    ConfigError,
    build_bath,
    build_geometry,
    build_state,
    config_hash,
    dump_state,
    parse_config,
    serialize_config,
    time_grid,
)
from regdeph.core import BasisLabel, RegisterState, factor_curves, fidelity_curve

MINIMAL = """\
[geometry]
dims = 2,1,1

[coupling]
A = 0.2
"""

FULL = """\
[geometry]
dims = 3,1,1
d = 1.5
delta = 0.2
seed = 7

[bath]
v = 2.0
T = 0.4
dimensionality = 1

[coupling]
A = 0.3
p = 1.0
cutoff = 2.0

[grid]
modes = 256
omega_max = 12.0

[state]
preset = single-flip
site = 1

[run]
t0 = 0.0
t1 = 4.0
steps = 9

[output]
precision = 12
"""

# every settable key except state.preset, which state.entries replaces
ALL_KEYS = """\
[geometry]
dims = 4,1,1
d = 1.25
delta = 0.05
seed = 2024

[bath]
v = 1.5
T = 0.25
dimensionality = 3

[coupling]
A = 0.15
p = 3.0
cutoff = 2.5

[grid]
modes = 128
omega_max = 8.0
directions = 6

[peak]
center = 1.2566370614359172
width = 0.03
n_freq = 101
n_sigma = 5.0
amplitude = 0.5

[state]
entries =
    +-+- 0.6 0.0
    -+-+ 0.0 -0.8
site = 2

[run]
t0 = 0.5
t1 = 6.0
steps = 12
m = 2
m_max = 6
eps_tol = 1e-05
code = modulated
pair_m = 2
pair_n = 1
track_pairs = ++++,+++-;+-+-,-+-+
delta_min = 0.01
delta_max = 0.3
delta_steps = 4
samples = 64
k_magnitude = 3.5
label_i = ++--
label_j = --++
instances = 3

[output]
dir = results
precision = 10
export_positions = true
export_modes = yes
"""

# config_hash of each config; each equals the hash of the canonical text recorded before
# the config schema was derived from the dataclass fields, less its run.oracle_samples
# line.  A serializer that reorders keys or reformats a value changes them
PINNED_HASHES = {
    "MINIMAL": "c8b05c51308f8cdc840fdf38b4f49df67b97125074424e1e47a52ec037e47b86",
    "FULL": "e8efbb5dea9d88fd5e74bdb0fb40a014578029df240d397cba925f68aa1cf6a3",
    "ALL_KEYS": "1bb986393ff5d91f69ae9bc4f1594d9142b70cea5b46fcb4482590fedd9bca3b",
}


PEAK = "[peak]\ncenter = 1.0\nwidth = 0.1\n"

# one config per rule, each with the start of the error it must raise
OUT_OF_RANGE = [
    ("[peak]\ncenter = 0\nwidth = 0.1\n", "peak.center must be > 0"),
    ("[peak]\ncenter = 1.0\nwidth = 0\n", "peak.width must be > 0"),
    (PEAK + "n_freq = 0\n", "peak.n_freq must be >= 1"),
    (PEAK + "n_sigma = 0\n", "peak.n_sigma must be > 0"),
    (PEAK + "amplitude = -1\n", "peak.amplitude must be >= 0"),
    ("[coupling]\nA = -0.5\n", "coupling.A must be >= 0"),
    ("[coupling]\ncutoff = 0\n", "coupling.cutoff must be > 0"),
    ("[geometry]\nseed = -1\n", "geometry.seed must be >= 0"),
    ("[run]\nsamples = 1\n", "run.samples must be >= 2"),
    ("[run]\ndelta_steps = 0\n", "run.delta_steps must be >= 1"),
    ("[run]\ndelta_min = -0.1\n", "run.delta_min must be >= 0"),
    ("[run]\ndelta_max = -0.1\n", "run.delta_max must be >= 0"),
    ("[run]\nm = 0\n", "run.m must be >= 1"),
    ("[run]\nm_max = 0\n", "run.m_max must be >= 1"),
    ("[run]\neps_tol = 0\n", "run.eps_tol must be > 0"),
    # used to parse; only encode rejected them, naming no key
    ("[run]\npair_m = 0\npair_n = 0\n", "run.pair_m must be >= 1"),
    ("[run]\npair_m = 1\npair_n = -3\n", "run.pair_n must be >= 0"),
    # infrared bound of a power-law bath: at T > 0, and at T = 0
    ("[bath]\nT = 0.5\n\n[coupling]\np = 0\n", "coupling.p must be > 0"),
    ("[coupling]\np = -1\n", "coupling.p must be > -1"),
    ("[geometry]\ndims = 0,1,1\n", "invalid value for geometry.dims"),
    ("[bath]\ndimensionality = 2\n", "bath.dimensionality must be 1 or 3, got 2"),
    ("[state]\npreset = ghz\n", "state.preset must be 'cat' or 'single-flip', got 'ghz'"),
    ("[run]\nt0 = -1\n", "run.t0 must be >= 0"),
    ("[run]\nt0 = 2.0\nt1 = 1.0\n", "run.t1 must be >= run.t0"),
    ("[run]\ncode = other\n", "run.code must be 'adjacent' or 'modulated', got 'other'"),
    ("[output]\nprecision = 0\n", "output.precision must be >= 1"),
    ("[output]\nprecision = 18\n", "output.precision must be <= 17"),
]


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.geometry.dims == (2, 1, 1)
        assert cfg.geometry.d == 1.0
        assert cfg.bath.coupling_amplitude == 0.2
        assert cfg.state.preset == "cat"
        assert cfg.output.precision == 12

    def test_round_trip_identity(self):
        for text in (MINIMAL, FULL, ALL_KEYS):
            cfg = parse_config(text)
            again = parse_config(serialize_config(cfg))
            assert again == cfg
            assert config_hash(again) == config_hash(cfg)

    def test_round_trip_with_entries(self):
        text = MINIMAL + """
[state]
entries =
    ++ 0.70710678118654752 0
    -- 0 0.70710678118654752
"""
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("name", sorted(PINNED_HASHES))
    def test_canonical_hash_is_pinned(self, name):
        assert config_hash(parse_config(globals()[name])) == PINNED_HASHES[name]

    def test_all_keys_config_sets_every_key(self):
        text = serialize_config(parse_config(ALL_KEYS))
        keys = [line.split(" =")[0] for line in text.splitlines() if " =" in line]
        assert len(keys) == len(set(keys)) == 42 and "preset" not in keys
        assert "[peak]" in text and "entries =\n    +-+- 0.6 0.0\n" in text

    @pytest.mark.parametrize("section, key, value", [
        ("geometry", "d", "nan"), ("bath", "T", "inf"), ("run", "t1", "-inf"),
        ("coupling", "A", "NaN"),
    ])
    def test_non_finite_float_is_error(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"invalid value for {section}\.{key}"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    def test_non_finite_state_entry_is_error(self):
        with pytest.raises(ConfigError, match="invalid value for state.entries"):
            parse_config("[geometry]\ndims = 1,1,1\n\n[state]\nentries =\n    + nan 0\n")

    @pytest.mark.parametrize("key", ["label_i = +--+", "label_j = ++++"])
    def test_lone_label_key_is_error(self, key):
        with pytest.raises(ConfigError, match="run.label_i and run.label_j"):
            parse_config(f"[geometry]\ndims = 4,1,1\n\n[run]\n{key}\n")

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="unknown key geometry.spacing"):
            parse_config("[geometry]\ndims = 2,1,1\nspacing = 2\n")

    def test_unknown_section_is_error(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
            parse_config(MINIMAL + "\n[extras]\nx = 1\n")

    @pytest.mark.parametrize("text, message", OUT_OF_RANGE,
                             ids=[re.search(r"\w+\.\w+", message).group()
                                  for _, message in OUT_OF_RANGE])
    def test_out_of_range_value_names_the_key(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)

    def test_infrared_bound_spares_peak_bath(self):
        # a [peak] bath does not use coupling.p, so its value is not bounded
        cfg = parse_config("[bath]\nT = 0.5\n\n[coupling]\np = -2\n\n" + PEAK)
        assert cfg.bath.coupling_exponent == -2.0 and cfg.bath.peak is not None

    def test_negative_delta_names_the_key(self):
        with pytest.raises(ConfigError, match="geometry.delta"):
            parse_config("[geometry]\ndims = 2,1,1\ndelta = -1\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("delta = 1 without a section\n")

    def test_preset_and_entries_conflict(self):
        text = "[state]\npreset = cat\nentries =\n    + 1 0\n"
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config(text)

    def test_seed_override_changes_hash(self):
        cfg = parse_config(MINIMAL)
        assert config_hash(cfg.with_seed(99)) != config_hash(cfg)


def _state_from_rows(rows: str, n_qubits: int) -> RegisterState:
    """Read 'label re im' rows, as ``dump_state`` writes them, through ``[state] entries``."""
    text = "[state]\nentries =\n" + "".join(f"    {line}\n" for line in rows.splitlines())
    return build_state(parse_config(text), n_qubits)


class TestStateFiles:
    def test_round_trip(self):
        state = RegisterState.cat(2)
        again = _state_from_rows(dump_state(state), 2)
        assert set(again.labels()) == set(state.labels())
        for lab, amp in state.items():
            assert again.amplitudes[lab] == pytest.approx(amp, abs=1e-15)

    def test_normalization_tolerance(self):
        with pytest.raises(ConfigError, match="state.entries: squared norm"):
            _state_from_rows("+ 0.707 0\n- 0.707 0\n", 1)  # off by ~3e-4

    def test_wrong_register_size(self):
        with pytest.raises(ConfigError, match="state.entries: label '\\+\\+' has 2 qubits"):
            _state_from_rows("++ 1 0\n", 3)

    @pytest.mark.parametrize("row", ["- 0", "- 0 inf", "- x 0"])
    def test_bad_row_names_its_line(self, row):
        # the comment line is dropped, and line 1 is the empty rest of "entries ="
        with pytest.raises(ConfigError, match="state.entries: line 3"):
            _state_from_rows(f"# comment\n+ 1 0\n{row}\n", 1)


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _simulate_rows(tmp_path, text, name):
    """Run ``simulate`` on ``text`` and split the data rows of file ``name`` into cells."""
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(_write(tmp_path, text)), "--output", str(out),
                 "--quiet"]) == EXIT_OK
    return [line.split(",") for line in (out / name).read_text().splitlines()[3:]]


def _formatted(columns, precision):
    return [[f"{float(x):.{precision}g}" for x in row] for row in zip(*columns)]


class TestCommands:
    def test_simulate_cat_fidelity_starts_at_one(self, tmp_path):
        cfg_path = _write(tmp_path, FULL)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg_path), "--output", str(out), "--quiet"])
        assert code == EXIT_OK
        lines = (out / "simulate.csv").read_text().splitlines()
        assert lines[0].startswith("# regdeph")
        assert lines[1].startswith("# config-sha256 = ")
        assert lines[2] == "t,F"
        first = lines[3].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0

    def test_simulate_reproducible_byte_identical(self, tmp_path):
        cfg_path = _write(tmp_path, FULL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg_path), "--output", str(out1), "--quiet"]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg_path), "--output", str(out2), "--quiet"]) == EXIT_OK
        assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()

    def test_simulate_track_pairs_and_exports(self, tmp_path):
        text = FULL + "\n[run]\ntrack_pairs = +++,++-\n\n[output]\nexport_positions = true\nexport_modes = true\n"
        # merge duplicate sections by hand: configparser forbids duplicates
        text = FULL.replace("[run]\nt0 = 0.0\nt1 = 4.0\nsteps = 9",
                            "[run]\nt0 = 0.0\nt1 = 4.0\nsteps = 9\ntrack_pairs = +++,++-")
        text = text.replace("[output]\nprecision = 12",
                            "[output]\nprecision = 12\nexport_positions = true\nexport_modes = true")
        cfg_path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--output", str(out), "--quiet"]) == EXIT_OK
        header = (out / "simulate.csv").read_text().splitlines()[2]
        assert header == "t,F,eta_0,phi_0"
        assert (out / "positions.csv").exists()
        assert (out / "modes.csv").exists()

    @pytest.mark.parametrize("precision", [1, 12, 17])
    def test_simulate_cells_are_the_library_curves(self, tmp_path, precision):
        text = FULL.replace("steps = 9", "steps = 9\ntrack_pairs = +++,++-;+-+,-+-").replace(
            "precision = 12", f"precision = {precision}")
        cfg = parse_config(text)
        geometry, bath = build_geometry(cfg), build_bath(cfg)
        times = time_grid(cfg)
        columns = [times, fidelity_curve(build_state(cfg, 3), times, bath, geometry.positions)]
        for i, j in (("+++", "++-"), ("+-+", "-+-")):
            columns += factor_curves(BasisLabel.from_string(i), BasisLabel.from_string(j),
                                     times, bath, geometry.positions)
        assert _simulate_rows(tmp_path, text, "simulate.csv") == _formatted(columns, precision)

    def test_modes_file_is_the_full_mode_set(self, tmp_path):
        text = FULL.replace("dimensionality = 1", "dimensionality = 3").replace(
            "modes = 256", "modes = 16\ndirections = 6").replace(
            "precision = 12", "precision = 12\nexport_modes = true")
        bath = build_bath(parse_config(text))
        rows = _simulate_rows(tmp_path, text, "modes.csv")
        assert len(rows) == bath.n_modes == 16 * 6
        assert rows == _formatted([bath.omega, bath.g2, *bath.k.T], 12)

    def test_positions_index_is_an_integer_at_any_precision(self, tmp_path):
        text = FULL.replace("dims = 3,1,1", "dims = 12,1,1").replace(
            "precision = 12", "precision = 1\nexport_positions = true")
        positions = build_geometry(parse_config(text)).positions
        rows = _simulate_rows(tmp_path, text, "positions.csv")
        assert [row[0] for row in rows] == [str(n) for n in range(12)]
        assert [row[1:] for row in rows] == _formatted(positions.T, 1)

    def test_classify_prints_key_values_and_json(self, tmp_path, capsys):
        text = """\
[geometry]
dims = 4,1,1
d = 1.0
delta = 1.0

[peak]
center = 4.0
width = 1.0
"""
        cfg_path = _write(tmp_path, text)
        assert main(["classify", "--config", str(cfg_path), "--quiet",
                     "--output", str(tmp_path / "out")]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        keyed = dict(line.split(" = ") for line in lines[:-1])
        assert keyed["classification"] == "Independent-1"
        payload = json.loads(lines[-1])
        assert payload["classification"] == "Independent-1"

    def test_pairing_and_encode(self, tmp_path, capsys):
        text = """\
[geometry]
dims = 8,1,1
d = 1.0

[peak]
center = 1.5707963267948966
width = 0.05

[run]
code = modulated
"""
        cfg_path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["pairing", "--config", str(cfg_path), "--quiet",
                     "--output", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "m = 2" in printed and "n = 1" in printed
        assert "pairs = 0,2;1,3;4,6;5,7" in printed.splitlines()

        assert main(["encode", "--config", str(cfg_path), "--quiet",
                     "--output", str(out)]) == EXIT_OK
        state = _state_from_rows((out / "encoded_state.txt").read_text(), 8)
        assert set(map(str, state.labels())) == {"++++++++", "--------"}
        capsys.readouterr()

        # an odd register has no cover to print
        odd = _write(tmp_path, text.replace("dims = 8,1,1", "dims = 7,1,1"))
        assert main(["pairing", "--config", str(odd), "--quiet",
                     "--output", str(tmp_path / "odd")]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "m = 2" in printed and "pairs" not in printed

        # 3 logical qubits cannot be covered by blocks of m = 2: nothing is printed
        uncovered = _write(tmp_path, text.replace("dims = 8,1,1", "dims = 6,1,1"))
        assert main(["pairing", "--config", str(uncovered), "--quiet",
                     "--output", str(tmp_path / "uncovered")]) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "uncovered").exists()

    def test_encode_without_peak_reports_unknown_epsilon(self, tmp_path, capsys):
        text = """\
[geometry]
dims = 8,1,1

[run]
code = modulated
pair_m = 2
pair_n = 1
"""
        cfg_path = _write(tmp_path, text)
        assert main(["encode", "--config", str(cfg_path), "--quiet",
                     "--output", str(tmp_path / "out")]) == EXIT_OK
        assert "pairing m = 2, n = 1, epsilon = unknown" in capsys.readouterr().out

    def test_pairing_not_found_is_tolerance_exit(self, tmp_path):
        text = """\
[geometry]
dims = 4,1,1

[peak]
center = 1.2
width = 0.05

[run]
m_max = 2
eps_tol = 0.0001
"""
        cfg_path = _write(tmp_path, text)
        assert main(["pairing", "--config", str(cfg_path), "--quiet",
                     "--output", str(tmp_path / "out")]) == EXIT_TOLERANCE

    @pytest.mark.parametrize("command", ["pairing", "encode"])
    def test_failed_pairing_search_reports_on_stdout(self, tmp_path, capsys, command):
        text = """\
[geometry]
dims = 4,1,1

[peak]
center = 1.2
width = 0.1

[run]
code = modulated
m_max = 2
eps_tol = 0.0001
"""
        assert main([command, "--config", str(_write(tmp_path, text)), "--quiet",
                     "--output", str(tmp_path / "out")]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out == "pairing = none\n"
        assert captured.err == "# no (m, n) with residual <= 0.0001 for m <= 2\n"

    def test_disorder_scan_writes_csv(self, tmp_path):
        text = """\
[geometry]
dims = 4,1,1
seed = 3

[run]
delta_min = 0.0
delta_max = 0.4
delta_steps = 3
samples = 50
k_magnitude = 6.0
"""
        cfg_path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["disorder-scan", "--config", str(cfg_path), "--quiet",
                     "--output", str(out)]) == EXIT_OK
        lines = (out / "disorder_scan.csv").read_text().splitlines()
        assert lines[2] == "delta,mean_lambda1,stderr1,mean_lambda2,stderr2"
        assert len(lines) == 3 + 3
        # zero disorder row has zero spread
        first = lines[3].split(",")
        assert float(first[0]) == 0.0 and float(first[2]) == 0.0

    def test_validate_oracle_passes(self, tmp_path):
        text = "[geometry]\nseed = 11\n\n[run]\ninstances = 2\n"
        cfg_path = _write(tmp_path, text)
        assert main(["validate-oracle", "--config", str(cfg_path), "--quiet",
                     "--output", str(tmp_path / "out")]) == EXIT_OK

    def test_validate_oracle_reports_run_sizes(self, tmp_path, capsys):
        text = "[geometry]\nseed = 11\n\n[run]\ninstances = 2\n"
        assert main(["validate-oracle", "--config", str(_write(tmp_path, text)), "--quiet",
                     "--output", str(tmp_path / "out")]) == EXIT_OK
        pattern = re.compile(r"\S+: deviation = \S+ \(absolute, tolerance 1\.000e-04\) "
                             r"PASS \[dim = (\d+), steps = 3000, leakage = (\S+)\]")
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line in lines:
            dim, leakage = pattern.fullmatch(line).groups()
            assert int(dim) > 10 and 0.0 <= float(leakage) <= 1e-6

    def test_header_contains_version_seed_and_hash(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, MINIMAL)
        assert main(["simulate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")]) == EXIT_OK
        head = capsys.readouterr().out.splitlines()
        assert head[0].startswith("# regdeph ")
        assert head[1] == "# command = simulate"
        assert head[2].startswith("# seed = ")
        assert head[3].startswith("# config-sha256 = ")

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, MINIMAL)
        assert main(["simulate", "--config", str(cfg_path), "--seed", "424242",
                     "--output", str(tmp_path / "out")]) == EXIT_OK
        assert "# seed = 424242" in capsys.readouterr().out


class TestExitCodes:
    def test_bad_config_is_validation_failure(self, tmp_path):
        cfg_path = _write(tmp_path, "[geometry]\ndelta = -2\n")
        assert main(["simulate", "--config", str(cfg_path), "--quiet",
                     "--output", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_odd_direction_count_is_validation_failure(self, tmp_path, capsys):
        text = FULL.replace("dimensionality = 1", "dimensionality = 3").replace(
            "omega_max = 12.0", "omega_max = 12.0\ndirections = 13")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(_write(tmp_path, text)), "--quiet",
                     "--output", str(out)]) == EXIT_VALIDATION
        assert "grid.directions" in capsys.readouterr().err
        assert not (out / "simulate.csv").exists()

    @pytest.mark.parametrize("key", ["pair_m = 2", "pair_n = 1"])
    def test_lone_pair_key_is_validation_failure(self, tmp_path, capsys, key):
        text = f"[geometry]\ndims = 8,1,1\n\n[run]\ncode = modulated\n{key}\n"
        out = tmp_path / "o"
        assert main(["encode", "--config", str(_write(tmp_path, text)), "--quiet",
                     "--output", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "run.pair_m" in err and "run.pair_n" in err
        assert not (out / "encoded_state.txt").exists()

    # run.oracle_samples was removed with the sampled thermal oracle: an old config
    # that still sets it is rejected as an unknown key, by name
    @pytest.mark.parametrize("line, key", [("instances = -3", "run.instances"),
                                           ("oracle_samples = 1", "run.oracle_samples")])
    def test_bad_oracle_run_size_is_validation_failure(self, tmp_path, capsys, line, key):
        out = tmp_path / "o"
        assert main(["validate-oracle", "--config", str(_write(tmp_path, f"[run]\n{line}\n")),
                     "--quiet", "--output", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert key in captured.err
        # rejected while parsing: no instance was checked and no output directory made
        assert "deviation" not in captured.out and not out.exists()

    def test_truncation_leakage_is_tolerance_failure(self, tmp_path, capsys, monkeypatch):
        # a negative bound makes every instance's top-level probability too large
        from regdeph import oracle

        monkeypatch.setattr(oracle, "LEAKAGE_TOL", -1.0)
        out = tmp_path / "o"
        text = "[geometry]\nseed = 11\n\n[run]\ninstances = 1\n"
        assert main(["validate-oracle", "--config", str(_write(tmp_path, text)), "--quiet",
                     "--output", str(out)]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: truncation insufficient: top-level occupation probability "
                            r"\S+ exceeds -1e\+00\n", captured.err)
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("section, line", [("geometry", "d = nan"), ("bath", "T = inf")])
    def test_non_finite_value_is_validation_failure(self, tmp_path, capsys, section, line):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(_write(tmp_path, f"[{section}]\n{line}\n")),
                     "--quiet", "--output", str(out)]) == EXIT_VALIDATION
        assert f"invalid value for {section}." in capsys.readouterr().err
        assert not (out / "simulate.csv").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("simulate", PEAK + "n_sigma = 0\n", "peak.n_sigma"),
        ("simulate", "[coupling]\ncutoff = 0\n", "coupling.cutoff"),
        ("disorder-scan", "[run]\ndelta_steps = 0\n", "run.delta_steps"),
        # with and without disorder, and for the oracle suite, which draws from the seed too
        ("simulate", "[geometry]\ndelta = 0.1\nseed = -3\n", "geometry.seed"),
        ("simulate", "[geometry]\nseed = -3\n", "geometry.seed"),
        ("validate-oracle", "[geometry]\nseed = -3\n", "geometry.seed"),
        ("simulate", "[output]\nprecision = 18\n", "output.precision"),
    ], ids=["peak.n_sigma", "coupling.cutoff", "run.delta_steps", "seed-disordered",
            "seed-ideal", "seed-oracle", "output.precision"])
    def test_out_of_range_value_is_validation_failure(self, tmp_path, capsys, command, text, key):
        out = tmp_path / "o"
        assert main([command, "--config", str(_write(tmp_path, text)), "--quiet",
                     "--output", str(out)]) == EXIT_VALIDATION
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out.exists()  # rejected while parsing, before the directory is made

    def test_negative_seed_flag_is_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(_write(tmp_path, MINIMAL)), "--seed", "-1",
                     "--quiet", "--output", str(out)]) == EXIT_VALIDATION
        assert "error: geometry.seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_lone_label_is_validation_failure(self, tmp_path, capsys):
        text = "[geometry]\ndims = 4,1,1\n\n[run]\nlabel_i = +--+\nsamples = 10\n"
        out = tmp_path / "o"
        assert main(["disorder-scan", "--config", str(_write(tmp_path, text)), "--quiet",
                     "--output", str(out)]) == EXIT_VALIDATION
        assert "run.label_i and run.label_j" in capsys.readouterr().err
        assert not (out / "disorder_scan.csv").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("simulate", "[run]\ntrack_pairs = +++,--\n", "run.track_pairs"),
        ("simulate", "[run]\ntrack_pairs = ++,+x\n", "run.track_pairs"),
        ("simulate", "[state]\nentries =\n    +++ 1 0\n", "state.entries"),
        ("simulate", "[state]\npreset = single-flip\nsite = 2\n", "state.site"),
        ("encode", "[geometry]\ndims = 3,1,1\n", "geometry.dims"),
        ("encode", "[geometry]\ndims = 4,1,1\n\n[state]\nentries =\n    ++++ 1 0\n",
         "state.entries"),
        ("encode", "[geometry]\ndims = 4,1,1\n\n[state]\npreset = single-flip\nsite = 2\n",
         "state.site"),
        ("disorder-scan", "[run]\nlabel_i = +++\nlabel_j = --\n", "run.label_i"),
        ("disorder-scan", "[run]\nlabel_i = ++\nlabel_j = -\n", "run.label_j"),
    ], ids=["track_pairs-length", "track_pairs-symbol", "entries", "site", "encode-odd",
            "encode-entries", "encode-site", "label_i", "label_j"])
    def test_register_size_error_names_the_key(self, tmp_path, capsys, command, text, key):
        # 2 qubits unless the config says otherwise; encode's state has half as many
        out = tmp_path / "o"
        assert main([command, "--config", str(_write(tmp_path, text)), "--quiet",
                     "--output", str(out)]) == EXIT_VALIDATION
        assert f"error: {key}: " in capsys.readouterr().err
        assert not out.exists()  # rejected before the directory is made

    @pytest.mark.parametrize("command, text, message", [
        ("pairing", "[geometry]\ndims = 4,1,1\n", "pairing needs a [peak] section"),
        ("encode", "[geometry]\ndims = 4,1,1\n\n[run]\ncode = modulated\n",
         "modulated pairing needs run.pair_m/pair_n or a [peak] section"),
    ], ids=["pairing-no-peak", "encode-modulated-no-plan"])
    def test_missing_pairing_input_leaves_no_directory(self, tmp_path, capsys, command, text,
                                                       message):
        out = tmp_path / "o"
        assert main([command, "--config", str(_write(tmp_path, text)), "--quiet",
                     "--output", str(out)]) == EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()  # the handler raises before the directory is made

    def test_missing_config_is_io_failure(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--quiet"]) == EXIT_IO

    def test_unknown_command_via_run_command(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            run_command("explode", cfg, out_dir="/tmp/never", quiet=True)


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this package; return its stdout."""
    src = str(Path(regdeph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


# the package's modules that import numpy, each loaded only by a command that runs it
NUMPY_MODULES = ("regdeph.core", "regdeph.bath", "regdeph.geometry", "regdeph.regimes",
                 "regdeph.oracle")
FIXTURES = Path(__file__).parent / "fixtures"


def test_cli_import_does_not_load_scipy():
    _python("import regdeph.cli, sys; assert 'scipy' not in sys.modules")


@pytest.mark.parametrize("module", ["regdeph", "regdeph.cli"])
def test_import_loads_no_numpy_and_no_computing_module(module):
    loaded = _python(f"import {module}, sys; print(' '.join(sys.modules))").split()
    assert not {"numpy", "regdeph.codes", *NUMPY_MODULES} & set(loaded)


def test_oracle_import_leaves_the_closed_form_to_check_instance():
    # the oracle is the closed form's independent check, so only its comparison loads core
    loaded = _python(
        "import sys\n"
        "from regdeph.oracle import check_instance, random_instances\n"
        "before = set(sys.modules)\n"
        "assert check_instance(random_instances(1, seed=10)[0]).passed\n"
        "print(' '.join(before), '|', 'regdeph.core' in sys.modules)\n").split()
    assert {"numpy", "regdeph.bath", "regdeph.states"} <= set(loaded)
    assert "regdeph.core" not in loaded and loaded[-2:] == ["|", "True"]


@pytest.mark.parametrize("command", ["pairing", "encode"])
def test_pairing_and_encode_run_without_numpy(command, tmp_path):
    from test_fixtures import assert_text_matches

    out = tmp_path / "out"
    argv = [command, "--config", str(FIXTURES / f"{command}.ini"), "--output", str(out)]
    # a None entry makes every import of numpy fail
    stdout = _python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from regdeph.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"assert not set({NUMPY_MODULES!r}) & set(sys.modules)\n")
    assert_text_matches((FIXTURES / f"{command}.stdout").read_text(),
                        stdout.replace(str(out), "{out}"), "stdout")
    want = sorted((FIXTURES / command).iterdir()) if (FIXTURES / command).is_dir() else []
    assert sorted(p.name for p in out.iterdir()) == [p.name for p in want]
    for path in want:
        assert_text_matches(path.read_text(), (out / path.name).read_text(), path.name)


def test_simulate_loads_no_pairing_regime_or_oracle_module(tmp_path):
    loaded = _python(
        "import sys\n"
        "from regdeph.cli import main\n"
        f"assert main(['simulate', '--config', {str(FIXTURES / 'simulate.ini')!r}, "
        f"'--output', {str(tmp_path / 'out')!r}, '--quiet']) == 0\n"
        "print(' '.join(sys.modules))\n").split()
    assert "regdeph.core" in loaded
    assert not {"regdeph.codes", "regdeph.regimes", "regdeph.oracle"} & set(loaded)

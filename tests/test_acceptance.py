"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here; nothing is deferred to later calibration.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from regdeph.bath import BathSpectrum, gaussian_peak_modes, spectral_moments
from regdeph.cli import EXIT_OK, main
from regdeph.codes import encode_adjacent, find_pairing, subdecoherence_residual
from regdeph.core import (
    BasisLabel,
    RegisterState,
    damping_exponent,
    damping_weight,
    evolve,
    fidelity,
    label_phase,
    lamb_phase,
)
from regdeph.geometry import RegisterGeometry, apply_disorder
from regdeph.oracle import (
    analytic_blocks,
    check_instance,
    default_truncation,
    integrated_blocks,
    random_instances,
    reduced_density,
)
from regdeph.regimes import (
    damping_scale,
    disorder_average_weights,
    fourier_suppression,
    phase_scale,
)


@contextmanager
def report(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def line_positions(n, d=1.0, y=0.0):
    pos = np.zeros((n, 3))
    pos[:, 0] = d * np.arange(n)
    pos[:, 1] = y
    return pos


def axis_mode(kx, g2=0.05, temperature=0.0):
    return BathSpectrum(omega=np.array([abs(kx)]), k=np.array([[kx, 0.0, 0.0]]),
                        g2=np.array([g2]), v=1.0, temperature=temperature)


def test_criterion_1_oracle_equivalence():
    """Closed-form reduced densities match the truncated-number-state integrator."""
    with report(1, "oracle equivalence"):
        start = time.time()
        cold = random_instances(20, seed=101, temperature=0.0)
        worst_abs = 0.0
        for inst in cold:
            check = check_instance(inst, tolerance=1e-4)
            worst_abs = max(worst_abs, check.deviation)
            assert check.passed, f"{inst.name}: |entry dev| = {check.deviation:.2e}"
        thermal = random_instances(20, seed=202, temperature=0.8)
        worst_thermal = 0.0
        for inst in thermal:
            check = check_instance(inst, tolerance=1e-4)
            worst_thermal = max(worst_thermal, check.deviation)
            assert check.passed, f"{inst.name}: |entry dev| = {check.deviation:.2e}"
        elapsed = time.time() - start
        assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
        print(f"  20 cold instances, worst |dev| = {worst_abs:.2e} (tol 1e-4); "
              f"20 thermal instances (T = 0.8), worst |dev| = {worst_thermal:.2e} (tol 1e-4); "
              f"{elapsed:.1f}s")


def test_criterion_2_evolution_operator_phase():
    """The scalar phase in the analytic propagator is real and load-bearing."""
    with report(2, "evolution-operator correction"):
        omega, t = 1.0, 10.0
        bath = axis_mode(omega, g2=0.09)
        pos = line_positions(2, d=np.pi / 3)
        state = RegisterState.from_unnormalized(
            {BasisLabel((1, 1)): 1.0, BasisLabel((1, -1)): 1.0})
        labels, vacuum = state.labels(), np.ones((bath.n_modes, 1))  # level-0 populations
        dim = default_truncation(bath, pos) + 1
        ref = integrated_blocks(bath, pos, labels, t, 20_000, dim)
        full = analytic_blocks(bath, pos, labels, t, dim)
        # the vacuum column of a block is its first column
        agreement = float(np.max(np.abs(ref[..., 0] - full[..., 0])))
        assert agreement < 1e-6, f"closed form vs integrator: {agreement:.2e}"
        ablated = analytic_blocks(bath, pos, labels, t, dim, include_phase=False)
        pair = (BasisLabel((1, 1)), BasisLabel((1, -1)))
        deviation = abs(reduced_density(state, ref, vacuum).entries[pair]
                        - reduced_density(state, ablated, vacuum).entries[pair])
        assert deviation > 1e-2, f"ablation deviation only {deviation:.2e}"
        print(f"  with phase: {agreement:.2e} (tol 1e-6); phase ablated: {deviation:.2e} (> 1e-2)")


def test_criterion_3_independent_limit_convergence():
    """Strong disorder drives the full dynamics to the per-qubit closed form."""
    with report(3, "independent-limit convergence"):
        start = time.time()
        bath = gaussian_peak_modes(center=10.0, width=1.0, v=1.0, n_freq=201)
        geo = RegisterGeometry(dims=(4, 1, 1), d=1.0, delta=1.0, seed=2024)
        assert spectral_moments(bath).mean1 * geo.delta / bath.v >= 10.0
        i, j = BasisLabel((1, 1, 1, 1)), BasisLabel((1, -1, -1, 1))
        t = 2.0
        ideal = geo.ideal_positions()
        etas, phis = [], []
        for idx in range(1000):
            pos = apply_disorder(ideal, geo.delta, (geo.seed, idx))
            etas.append(damping_exponent(i, j, t, bath, pos))
            phis.append(lamb_phase(i, j, t, bath, pos))
        target = damping_scale(bath, t) * 8.0  # two differing qubits
        rel = abs(np.mean(etas) / target - 1.0)
        assert rel < 0.05, f"damping mean off by {rel:.1%}"
        phase_ref = 4.0 * phase_scale(bath, t)  # single-pair phase scale
        phase_ratio = abs(np.mean(phis)) / phase_ref
        assert phase_ratio < 0.05, f"mean phase is {phase_ratio:.1%} of the single-pair scale"
        elapsed = time.time() - start
        assert elapsed < 60.0
        print(f"  damping within {rel:.2%} of closed form; mean phase at "
              f"{phase_ratio:.2%} of the single-pair scale; {elapsed:.1f}s")


def test_criterion_4_disorder_averaged_weights():
    """Monte Carlo means of the structure-factor weights converge as predicted."""
    with report(4, "disorder averages"):
        geo = RegisterGeometry(dims=(4, 1, 1), d=1.0, delta=1.0, seed=77)
        k = 10.0  # k * delta = 10 >= pi
        i1, j1 = BasisLabel((1, 1, 1, 1)), BasisLabel((1, -1, -1, 1))   # 4*L0 = 8
        i2, j2 = BasisLabel((1, 1, -1, -1)), BasisLabel((1, -1, 1, -1))  # mean weight diff 0
        err1, err2 = [], []
        for n in (100, 1000, 10_000):
            e1, _ = disorder_average_weights(i1, j1, k, geo, n)
            _, e2 = disorder_average_weights(i2, j2, k, geo, n)
            assert abs(e1.mean - 8.0) <= 3 * e1.stderr + 1e-9, \
                f"N={n}: lambda1 {e1.mean:.3f} +- {e1.stderr:.3f}"
            assert abs(e2.mean) <= 3 * e2.stderr + 1e-9, \
                f"N={n}: lambda2 {e2.mean:.3f} +- {e2.stderr:.3f}"
            err1.append(e1.stderr)
            err2.append(e2.stderr)
        for errs in (err1, err2):
            for a, b in zip(errs, errs[1:]):
                assert 2.0 <= a / b <= 5.0, f"stderr ratio {a / b:.2f} not ~ sqrt(10)"
        # degenerate cases are exact: a single flip and a global flip
        e1, _ = disorder_average_weights(BasisLabel((1, 1, 1, 1)), BasisLabel((1, 1, -1, 1)),
                                         k, geo, 100)
        assert abs(e1.mean - 4.0) <= 3 * e1.stderr + 1e-9
        _, e2 = disorder_average_weights(i1, i1.flipped(), k, geo, 100)
        assert abs(e2.mean) <= 3 * e2.stderr + 1e-9
        print(f"  means within 3 stderr of 8 and 0 at N = 1e2..1e4; stderr ratios "
              f"{err1[0] / err1[1]:.2f}, {err1[1] / err1[2]:.2f} ~ sqrt(10)")


def test_criterion_5_collective_code_nullity():
    """Adjacent pairing removes all decoherence under a perfectly collective mode."""
    with report(5, "collective code nullity"):
        omega = 1.0
        bath = BathSpectrum(omega=np.array([omega]), k=np.array([[0.0, omega, 0.0]]),
                            g2=np.array([0.08]), v=1.0)
        n_logical = 3
        geometry = RegisterGeometry(dims=(2 * n_logical, 1, 1), d=1.0, delta=0.0, seed=0)
        # common transverse offset: every site sees the same nonzero phase
        positions = geometry.positions + np.array([0.0, 0.7, 0.0])
        rng = np.random.default_rng(5)
        logical_labels = [BasisLabel(tuple(rng.choice([-1, 1], size=n_logical)))
                          for _ in range(6)]
        worst_eta = worst_phi = 0.0
        encoded = [encode_adjacent(lab) for lab in logical_labels]
        for a in encoded:
            for b in encoded:
                if a == b:
                    continue
                worst_eta = max(worst_eta, damping_exponent(a, b, 37.0, bath, positions))
                worst_phi = max(worst_phi, abs(lamb_phase(a, b, 37.0, bath, positions)))
        assert worst_eta < 1e-12 and worst_phi < 1e-12
        amps = {encode_adjacent(lab): complex(rng.normal(), rng.normal())
                for lab in logical_labels}
        state = RegisterState.from_unnormalized(amps)
        worst_fid = 0.0
        for t in np.linspace(0.0, 100.0 / omega, 21):
            worst_fid = max(worst_fid, abs(fidelity(state, float(t), bath, positions) - 1.0))
        assert worst_fid < 1e-12
        print(f"  max eta = {worst_eta:.1e}, max |phi| = {worst_phi:.1e}, "
              f"max |F-1| = {worst_fid:.1e} over omega*t in [0, 100]")


def test_criterion_6_modulated_code():
    """Distance-m pairing cancels a commensurate mode; residual scales as eps^2."""
    with report(6, "modulated code"):
        d = 1.0
        # exact commensuration: kbar*d = pi/2 -> (m, n) = (2, 1), eps = 0
        kbar = 0.5 * np.pi
        plan = find_pairing(kbar, d)
        assert plan.residual == pytest.approx(0.0, abs=1e-15)
        bath = axis_mode(kbar, g2=0.06)
        n_logical = 4
        geometry = RegisterGeometry(dims=(2 * n_logical, 1, 1), d=d, delta=0.0, seed=0)
        from regdeph.codes import encode_modulated
        rng = np.random.default_rng(6)
        amps = {encode_modulated(BasisLabel(tuple(rng.choice([-1, 1], size=n_logical))), plan):
                complex(rng.normal(), rng.normal()) for _ in range(5)}
        state = RegisterState.from_unnormalized(amps)
        worst_fid = 0.0
        for t in np.linspace(0.0, 100.0 / kbar, 21):
            worst_fid = max(worst_fid, abs(fidelity(state, float(t), bath,
                                                    geometry.positions) - 1.0))
        assert worst_fid < 1e-12, f"exact pairing leaves |F-1| = {worst_fid:.1e}"

        # detuned mode: eps = |m kbar d / pi - n| = 0.02
        kbar2 = 0.51 * np.pi
        plan2 = find_pairing(kbar2, d, eps_tol=0.05)
        eps = plan2.residual
        assert (plan2.m, plan2.n) == (2, 1)
        assert eps == pytest.approx(0.02, abs=1e-12)
        bath2 = axis_mode(kbar2, g2=0.06)
        n_logical2 = 6
        geometry2 = RegisterGeometry(dims=(2 * n_logical2, 1, 1), d=d, delta=0.0, seed=0)
        t = 2.0 / kbar2
        logical = [BasisLabel((1,) * n_logical2), BasisLabel((-1,) + (1,) * (n_logical2 - 1))]
        res = subdecoherence_residual(plan2, geometry2, bath2, t, logical)
        single = np.zeros((1, 3))
        ref = damping_exponent(BasisLabel((1,)), BasisLabel((-1,)), t, bath2, single)
        ratio = res.max_eta / ref
        lo, hi = eps**2 / 2, 2 * eps**2 * n_logical2
        assert lo <= ratio <= hi, f"suppression ratio {ratio:.2e} outside [{lo:.2e}, {hi:.2e}]"
        print(f"  exact pairing: |F-1| <= {worst_fid:.1e}; eps = 0.02 residual ratio "
              f"{ratio:.3e} within [{lo:.1e}, {hi:.1e}]")


def test_criterion_7_fourier_suppression():
    """Width-driven suppression: printed formula value and grid comparison."""
    with report(7, "Fourier suppression"):
        out = fourier_suppression(3.0, 1.0, 1.0, 1.0)
        assert abs(out.estimate - 1.2341e-4) < 5e-9, f"got {out.estimate:.6e}"
        bath = gaussian_peak_modes(center=30.0, width=1.0, v=1.0, n_freq=801)
        width = spectral_moments(bath).width2
        worst = 1.0
        for u in np.linspace(1.0, 4.0, 7):
            fs = fourier_suppression(width, float(u) / width, 1.0, 1.0, bath=bath)
            # the convention ambiguity shows up as a factor <= 2 between exponents
            ratio = -np.log(fs.estimate) / -np.log(fs.grid_value)
            assert 0.5 <= ratio <= 2.0 + 1e-4, f"u={u}: exponent ratio {ratio:.4f}"
            worst = max(worst, ratio)
        print(f"  formula(3) = {out.estimate:.5e} (= 1.2341e-4 to 4 digits); "
              f"grid-vs-formula exponent ratio <= {worst:.4f} over [1, 4]")


def test_criterion_8_structural_invariants():
    """Randomized structural invariants of the exact dynamics: zero failures."""
    with report(8, "structural invariants"):
        rng = np.random.default_rng(88)
        checked = 0
        for _ in range(180):
            n = int(rng.integers(1, 5))
            n_shells = int(rng.integers(1, 4))
            omega, kvec, g2 = [], [], []
            for _ in range(n_shells):
                w, g = rng.uniform(0.4, 2.5), rng.uniform(0.01, 0.1)
                for sign in (1, -1):
                    omega.append(w)
                    kvec.append([sign * w, 0.0, 0.0])
                    g2.append(g / 2)
            bath = BathSpectrum(omega=np.array(omega), k=np.array(kvec),
                                g2=np.array(g2), v=1.0,
                                temperature=float(rng.choice([0.0, 0.6, 2.0])))
            pos = line_positions(n, d=float(rng.uniform(0.4, 1.6)))
            pos[:, 0] += rng.normal(0, 0.1, size=n)
            i = BasisLabel(tuple(rng.choice([-1, 1], size=n)))
            j = BasisLabel(tuple(rng.choice([-1, 1], size=n)))
            t = float(rng.uniform(0.0, 8.0))

            eta = damping_exponent(i, j, t, bath, pos)
            phi = lamb_phase(i, j, t, bath, pos)
            assert eta >= 0.0
            checked += 1
            assert damping_exponent(j, i, t, bath, pos) == pytest.approx(eta, abs=1e-12)
            assert lamb_phase(j, i, t, bath, pos) == pytest.approx(-phi, abs=1e-12)
            checked += 1
            bound = sum(2.0 * g * (1.0 if bath.temperature == 0 else
                                   1.0 / np.tanh(w / (2 * bath.temperature))) / w**2 *
                        damping_weight(i, j, kk, pos)
                        for w, g, kk in zip(bath.omega, bath.g2, bath.k))
            assert eta <= bound + 1e-12
            checked += 1
            assert label_phase(i, t, bath, pos) - label_phase(j, t, bath, pos) == \
                pytest.approx(phi, abs=1e-12)
            checked += 1

            labels = sorted({i, j, BasisLabel(tuple(rng.choice([-1, 1], size=n)))}, key=str)
            state = RegisterState.from_unnormalized(
                {lab: complex(rng.normal(), rng.normal()) for lab in labels})
            dens = evolve(state, t, bath, pos)
            trace = sum(v.real for (a, b), v in dens.items() if a == b)
            assert trace == pytest.approx(1.0, abs=1e-12)
            for (a, b), v in dens.items():
                assert v == pytest.approx(np.conj(dens[(b, a)]), abs=1e-12)
            checked += 1
            assert fidelity(state, 0.0, bath, pos) == pytest.approx(1.0, abs=1e-12)
            basis = RegisterState.basis_state(i)
            assert fidelity(basis, t, bath, pos) == pytest.approx(1.0, abs=1e-12)
            checked += 1
        assert checked >= 1000
        print(f"  {checked} randomized invariant checks, zero failures")


def test_criterion_9_reproducibility(tmp_path):
    """Identical config and seed produce byte-identical CSV bodies."""
    with report(9, "reproducibility"):
        config = """\
[geometry]
dims = 3,1,1
d = 1.0
delta = 0.3
seed = 31415

[coupling]
A = 0.25

[grid]
modes = 512
omega_max = 8.0

[bath]
T = 0.7

[run]
t0 = 0.0
t1 = 6.0
steps = 25
samples = 120
delta_steps = 3
k_magnitude = 5.0
"""
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(config)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg_path), "--output", str(out),
                         "--quiet"]) == EXIT_OK
            assert main(["disorder-scan", "--config", str(cfg_path), "--output", str(out),
                         "--quiet"]) == EXIT_OK
            outs.append(out)
        sim_a = (outs[0] / "simulate.csv").read_bytes()
        sim_b = (outs[1] / "simulate.csv").read_bytes()
        scan_a = (outs[0] / "disorder_scan.csv").read_bytes()
        scan_b = (outs[1] / "disorder_scan.csv").read_bytes()
        assert sim_a == sim_b and scan_a == scan_b
        print(f"  simulate.csv ({len(sim_a)} bytes) and disorder_scan.csv "
              f"({len(scan_a)} bytes) byte-identical across reruns")

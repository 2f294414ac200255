"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion; any failure is reported by pytest as usual.
"""

import json

import numpy as np
import pytest

from fracwave import (
    AUTO,
    Coefficients,
    Outcome,
    RealField,
    SampleSpec,
    SolverConfig,
    apply_A,
    apply_B,
    apply_f,
    commutator_apply,
    commutator_estimate_sample,
    continuous_dependence_experiment,
    convergence_study,
    fbbm_energy,
    forward_transform,
    fractional_laplacian,
    integrate,
    kato_lipschitz_sample,
    lambda_pow,
    make_params,
    mass,
    measure_phase_speed,
    momentum,
    rhs_fbbm,
    rhs_fch,
)
from fracwave.cli import main
from conftest import TWO_PI, make_grid, smooth_field
import oracles
from oracles import dft_oracle


def _report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_transform_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (16, 64, 256):
        g = make_grid(n)
        for _ in range(100):
            u = RealField(g, rng.normal(size=n))
            diff = np.abs(
                forward_transform(u).coefficients - dft_oracle(u)[: n // 2 + 1]
            ).max()
            worst = max(worst, diff)
            assert diff <= 1e-12
    _report(1, f"forward_transform vs dft_oracle, max |diff| = {worst:.2e} <= 1e-12")


def test_criterion_02_operator_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (16, 32, 64):
        g = make_grid(n)
        for nu in (1.0, 1.5, 2.0):
            for _ in range(3):
                band = max(3, n // 8)
                u = smooth_field(g, rng, band=band, amplitude=0.4)
                w = smooth_field(g, rng, band=band, amplitude=0.4)
                pairs = [
                    (commutator_apply(u, w, nu).values,
                     oracles.commutator_matrix(g, u.values, nu) @ w.values),
                    (apply_A(u, w, nu).values,
                     oracles.a_matrix(g, u.values, nu) @ w.values),
                    (apply_B(u, w, nu).values,
                     oracles.b_matrix(g, u.values, nu) @ w.values),
                    (apply_f(u, nu).values, oracles.f_oracle(g, u.values, nu)),
                ]
                for fast, dense in pairs:
                    diff = np.abs(fast - dense).max()
                    worst = max(worst, diff)
                    assert diff <= 1e-9
    _report(2, f"A/B/f/commutator vs dense oracles, max |diff| = {worst:.2e} <= 1e-9")


def test_criterion_03_closed_form_spot_checks():
    g = make_grid(64)
    sin_x, cos_x = np.sin(g.x), np.cos(g.x)
    checks = [
        ("laplacian", fractional_laplacian(RealField(g, np.cos(2 * g.x)), 1.5).values,
         8.0 * np.cos(2 * g.x)),
        ("lambda_pow", lambda_pow(RealField(g, sin_x), -2.0, 1.0).values, sin_x / 2.0),
        ("apply_f", apply_f(RealField(g, sin_x), 1.0).values, 0.2 * np.sin(2 * g.x)),
        ("commutator", commutator_apply(RealField(g, sin_x), RealField(g, cos_x), 1.0).values,
         -1.5 * np.sin(2 * g.x)),
    ]
    worst = 0.0
    for name, got, want in checks:
        diff = np.abs(got - want).max()
        worst = max(worst, diff)
        assert diff <= 1e-11, name
    _report(3, f"four closed forms, max |diff| = {worst:.2e} <= 1e-11")


def test_criterion_04_dispersion_reproduction():
    eps = 1e-6

    class Collect:
        def __init__(self):
            self.t, self.u = [], []

        def __call__(self, t, u):
            self.t.append(t)
            self.u.append(u)

    # fCH nu=1, k=1 mode at eps: measured speed = 7/9
    g = make_grid(64)
    coll = Collect()
    cfg = SolverConfig(t_end=1.0, dt=AUTO, snapshot_every=0.05)
    res = integrate(RealField(g, eps * np.sin(g.x)), make_params("fch", 1.0), cfg, sink=coll)
    assert res.outcome is Outcome.COMPLETED
    c_fch = measure_phase_speed(coll.t, coll.u, 1)
    assert c_fch == pytest.approx(7.0 / 9.0, abs=1e-6)

    # fKdV nu=1, k=2 mode: measured speed = -1
    coll = Collect()
    cfg = SolverConfig(t_end=1.0, dt=1.0 / 64, snapshot_every=0.05)
    res = integrate(RealField(g, eps * np.sin(2 * g.x)), make_params("fkdv", 1.0), cfg, sink=coll)
    assert res.outcome is Outcome.COMPLETED
    c_fkdv = measure_phase_speed(coll.t, coll.u, 2)
    assert c_fkdv == pytest.approx(-1.0, abs=1e-6)

    # fCH and fBBM share their linearization
    u = RealField(g, eps * np.sin(g.x))
    diff = rhs_fch(u, make_params("fch", 1.0)).values - rhs_fbbm(
        u, make_params("fbbm", 1.0)
    ).values
    assert np.abs(diff).max() <= 100 * eps**2
    _report(4, f"phase speeds {c_fch:.8f} (7/9), {c_fkdv:.8f} (-1); "
               f"fCH-fBBM linear gap {np.abs(diff).max():.2e} <= 1e-10")


def test_criterion_05_conservation():
    g = make_grid(256)

    u0 = RealField(g, 0.25 + 0.1 * np.cos(g.x))
    res = integrate(u0, make_params("fch", 1.0),
                    SolverConfig(t_end=10.0, dt=AUTO, cfl=0.5))
    assert res.outcome is Outcome.COMPLETED
    mass_drift = abs(mass(res.state.u) - mass(u0)) / abs(mass(u0))
    assert mass_drift <= 1e-10

    u0 = RealField(g, 0.1 * np.cos(g.x))
    res = integrate(u0, make_params("fkdv", 1.0),
                    SolverConfig(t_end=10.0, dt=AUTO, cfl=0.5))
    assert res.outcome is Outcome.COMPLETED
    mom_drift = abs(momentum(res.state.u) - momentum(u0)) / abs(momentum(u0))
    assert mom_drift <= 1e-8

    p = make_params("fbbm", 1.0)
    u0 = RealField(g, 0.1 * np.cos(g.x))
    res = integrate(u0, p, SolverConfig(t_end=10.0, dt=AUTO, cfl=0.5))
    assert res.outcome is Outcome.COMPLETED
    energy_drift = abs(fbbm_energy(res.state.u, p) - fbbm_energy(u0, p)) / abs(
        fbbm_energy(u0, p)
    )
    assert energy_drift <= 1e-8
    _report(5, f"T=10, N=256 drifts: fCH mass {mass_drift:.2e} <= 1e-10, "
               f"fKdV momentum {mom_drift:.2e} <= 1e-8, fBBM energy {energy_drift:.2e} <= 1e-8")


def test_criterion_06_temporal_order():
    initial = lambda grid: 0.3 * np.sin(grid.x) + 0.1 * np.cos(2 * grid.x)

    res_rk4 = convergence_study(
        "temporal", make_params("fbbm", 1.0),
        SolverConfig(t_end=1.0, dt=0.02), initial, n_points=64,
    )
    assert res_rk4.fitted_order == pytest.approx(4.0, abs=0.2)

    res_if = convergence_study(
        "temporal", make_params("fkdv", 1.0),
        SolverConfig(t_end=1.0, dt=0.02),
        initial, n_points=64,
    )
    assert res_if.fitted_order == pytest.approx(4.0, abs=0.2)
    _report(6, f"Richardson orders: RK4/fBBM {res_rk4.fitted_order:.3f}, "
               f"IFRK4/fKdV {res_if.fitted_order:.3f} (4.0 +- 0.2)")


def test_criterion_07_spectral_spatial_accuracy():
    adv = make_params(
        "linearized", 1.0, Coefficients(c_adv=1.0, c_nl=0.0, c_disp=0.0, c_evo=0.0)
    )
    g = make_grid(64)
    u0 = RealField(g, np.exp(np.sin(g.x)))
    cfg = SolverConfig(t_end=TWO_PI, dt=TWO_PI / 4000, dealias=False)
    res = integrate(u0, adv, cfg)
    assert res.outcome is Outcome.COMPLETED
    err = np.abs(res.state.u.values - u0.values).max()
    assert err <= 1e-10
    _report(7, f"exp(sin x) advected one period at N=64, error {err:.2e} <= 1e-10")


def test_criterion_08_commutator_estimate_stability():
    lines = []
    for m, s, sigma in ((1.0, 2.0, 3.0), (2.0, 1.0, 3.0), (2.0, 0.51, 2.51)):
        base = SampleSpec(n_samples=200, grid=make_grid(128), band_limit=20, seed=88)
        sup0 = commutator_estimate_sample(m, s, sigma, 1.0, base).sup_ratio
        assert np.isfinite(sup0) and sup0 > 0
        for variant in (
            SampleSpec(n_samples=200, grid=make_grid(256), band_limit=20, seed=88),
            SampleSpec(n_samples=400, grid=make_grid(128), band_limit=20, seed=88),
        ):
            sup1 = commutator_estimate_sample(m, s, sigma, 1.0, variant).sup_ratio
            lo, hi = sorted((sup0, sup1))
            assert hi / lo < 2.0
        lines.append(f"(m={m:g},s={s:g},sigma={sigma:g}): sup={sup0:.4f}")
    _report(8, "commutator sups finite, refinement-stable < 2x; " + "; ".join(lines))


def test_criterion_09_kato_lipschitz_stability():
    s = 2.0 * 1.0 + 0.6
    lines = []
    for which in ("a-lip", "b-bound", "b-lip", "f-lip-x", "f-lip-y"):
        base = SampleSpec(n_samples=200, grid=make_grid(128), band_limit=20, seed=99)
        fine = SampleSpec(n_samples=200, grid=make_grid(256), band_limit=20, seed=99)
        sup0 = kato_lipschitz_sample(which, s, 1.0, base).sup_ratio
        sup1 = kato_lipschitz_sample(which, s, 1.0, fine).sup_ratio
        assert np.isfinite(sup0) and sup0 > 0
        lo, hi = sorted((sup0, sup1))
        assert hi / lo < 2.0
        lines.append(f"{which}={sup0:.4f}")
    _report(9, f"(A2)-(A4) sups at s={s} finite, stable < 2x under N doubling; "
               + ", ".join(lines))


def test_criterion_10_continuous_dependence():
    g = make_grid(64)
    u0 = RealField(g, 0.2 * np.sin(g.x))
    p = make_params("fch", 1.0)
    cfg = SolverConfig(t_end=1.0, dt=AUTO, cfl=0.5)
    max_gs = []
    for rep in continuous_dependence_experiment(u0, (1e-2, 1e-3, 1e-4), 10, p, cfg,
                                                s=3.0, seed=1010):
        assert rep.censored == 0
        assert len(rep.g_values) == 10
        assert np.isfinite(rep.max_g)
        max_gs.append(rep.max_g)
    assert max(max_gs) / min(max_gs) <= 2.0
    _report(10, f"max G per decade {['%.4f' % g_ for g_ in max_gs]}, "
                f"spread {max(max_gs)/min(max_gs):.3f}x <= 2, zero censored")


def test_criterion_11_breaking_path(tmp_path):
    cfg = {
        "model": {"kind": "fch", "nu": 1.0},
        "grid": {"N": 512},
        "initial": {"kind": "mode", "k": 1, "amplitude": 2.0},
        "solver": {"t_end": 3.0, "dt": "auto", "dealias": False},
        "output": {"directory": str(tmp_path / "nu1")},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(cfg_path)])
    assert code == 2
    with open(tmp_path / "nu1" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["outcome"] == "breaking"
    report = manifest["breaking"]
    assert report["min_slope"] <= -100.0
    assert report["tail_fraction"] > 1e-4
    # every emitted state was finite: the report strictly precedes any blow-up
    for entry in manifest["snapshots"]:
        data = np.loadtxt(tmp_path / "nu1" / entry["file"], delimiter=",", skiprows=1)
        assert np.isfinite(data).all()

    # same data at nu=2: recorded, not asserted (exploratory comparison)
    code_nu2 = main([
        "run", "--config", str(cfg_path), "--set", "model.nu=2",
        "--set", f"output.directory={tmp_path / 'nu2'}",
    ])
    with open(tmp_path / "nu2" / "manifest.json") as fh:
        manifest2 = json.load(fh)
    nu2_note = manifest2["outcome"]
    if manifest2["outcome"] == "breaking":
        nu2_note += f" at t={manifest2['breaking']['t']:.3f} (nu=1 broke at {report['t']:.3f})"
    _report(11, f"nu=1 exit 2, breaking at t={report['t']:.3f} "
                f"(slope {report['min_slope']:.1f}, tail {report['tail_fraction']:.1e}), "
                f"all snapshots finite; nu=2 outcome: {nu2_note}")


def test_criterion_12_determinism_and_resume(tmp_path):
    cfg = {
        "model": {"kind": "fch", "nu": 1.0},
        "grid": {"N": 128},
        "initial": {"kind": "mode", "k": 1, "amplitude": 0.4},
        "solver": {"t_end": 10.0, "dt": 0.0078125, "snapshot_every": 2.5},
        "output": {"directory": str(tmp_path / "straight")},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))

    assert main(["run", "--config", str(cfg_path)]) == 0
    assert main([
        "run", "--config", str(cfg_path), "--set", "solver.t_end=5.0",
        "--set", f"output.directory={tmp_path / 'first'}",
    ]) == 0
    assert main([
        "resume", "--config", str(cfg_path),
        "--checkpoint", str(tmp_path / "first" / "checkpoint.fwck"),
        "--set", f"output.directory={tmp_path / 'second'}",
    ]) == 0

    straight_final = sorted((tmp_path / "straight").glob("snap_*.csv"))[-1].read_bytes()
    resumed_final = sorted((tmp_path / "second").glob("snap_*.csv"))[-1].read_bytes()
    assert straight_final == resumed_final

    straight_ck = (tmp_path / "straight" / "checkpoint.fwck").read_bytes()
    resumed_ck = (tmp_path / "second" / "checkpoint.fwck").read_bytes()
    assert straight_ck == resumed_ck
    _report(12, "split run at t=5 resumed to t=10 is byte-identical to the "
                "straight t=10 run (final snapshot and checkpoint)")

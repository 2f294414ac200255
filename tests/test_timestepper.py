import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracwave import (
    AUTO,
    BlowUpError,
    CheckpointError,
    Coefficients,
    ConfigError,
    Outcome,
    ParameterError,
    RealField,
    SimulationState,
    SolverConfig,
    StepPlan,
    auto_dt,
    checkpoint_read,
    checkpoint_write,
    dealias,
    derivative,
    detect_breaking,
    dispersion_speed,
    fbbm_energy,
    forward_transform,
    fractional_laplacian,
    helmholtz_inverse,
    ifrk4_step,
    integrate,
    inverse_transform,
    make_params,
    rk4_step,
)
from fracwave.timestepper import (
    _checked,
    _fit_breaking_time,
    _slope_stats,
    _tail_fraction,
    integrate_batch,
    resolve_dt,
)
from fracwave.spectral import coeffs_of, values_of
from conftest import (
    CHECKPOINT_FIELDS,
    LINEAR_FBBM,
    TWO_PI,
    make_grid,
    poison_checkpoint,
    smooth_field,
)
from oracles import full_coeffs_of, full_k, full_values_of, masked_product


def advection_params():
    return make_params(
        "fbbm", 1.0, Coefficients(c_adv=1.0, c_nl=0.0, c_disp=0.0, c_evo=0.0)
    )


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(t_end=-1.0)
        with pytest.raises(ParameterError):
            SolverConfig(t_end=1.0, dt=-0.1)
        with pytest.raises(ParameterError):
            SolverConfig(t_end=1.0, cfl=1.5)
        with pytest.raises(ParameterError):
            SolverConfig(t_end=1.0, on_breaking="explode")
        with pytest.raises(ParameterError):
            SolverConfig(t_end=1.0, tail_fraction_threshold=2.0)

    @pytest.mark.parametrize(
        "key",
        ["t_end", "dt", "cfl", "snapshot_every", "breaking_slope_threshold",
         "tail_fraction_threshold"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_numbers_rejected(self, key, value):
        kwargs = {"t_end": 1.0, key: value}
        with pytest.raises(ParameterError, match=key):
            SolverConfig(**kwargs)


class TestRK4Step:
    def test_zero_rhs(self):
        g = make_grid(16)
        zero = make_params("fbbm", 1.0, Coefficients(c_adv=0.0, c_nl=0.0))
        u_hat = coeffs_of(np.sin(g.x))
        start = SimulationState(
            t=0.5, u=RealField(g, values_of(u_hat, 16)), u_hat=u_hat
        )
        res = integrate(start, zero, SolverConfig(t_end=0.75, dt=0.25))
        assert res.state.t == 0.75
        assert res.state.step_count == 1
        assert np.array_equal(res.state.u_hat, u_hat)
        assert np.array_equal(res.state.u.values, start.u.values)

    def test_linear_advection_one_period(self):
        g = make_grid(32)
        u0 = np.sin(g.x)
        dt = TWO_PI / 1000
        plan = StepPlan(g, advection_params(), dt)
        u_hat = coeffs_of(u0)
        for i in range(1000):
            u_hat = plan.step(u_hat, i * dt)
        assert np.abs(values_of(u_hat, 32) - u0).max() < 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_carries_stage_and_time(self):
        g = make_grid(16)
        fast = make_params("fbbm", 1.0, Coefficients(c_adv=1e200, c_nl=0.0))
        plan = StepPlan(g, fast, 1e200)  # the second stage's input overflows
        with pytest.raises(BlowUpError) as err:
            plan.step(coeffs_of(np.sin(g.x)), 1.25)
        assert err.value.t == 1.25
        assert err.value.stage == 2

    def test_bad_dt(self):
        for dt in (0.0, -0.1, float("nan")):
            with pytest.raises(ParameterError):
                StepPlan(make_grid(16), make_params("fch", 1.0), dt)


class TestIFRK4Step:
    def test_zero_field_stays_zero(self):
        g = make_grid(32)
        plan = StepPlan(g, make_params("fkdv", 1.0), 0.1)
        out = plan.step(coeffs_of(np.zeros(32)), 0.0)
        assert np.all(out == 0.0)

    def test_exact_on_linear_flow(self):
        # zero nonlinearity: the integrating factor alone is the solution
        g = make_grid(64)
        p = make_params("fkdv", 1.0, Coefficients(c_nl=0.0, c_disp=-0.5))
        k = 3
        dt = 0.5  # huge step; exactness does not depend on dt
        plan = StepPlan(g, p, dt)
        u_hat = coeffs_of(np.sin(k * g.x))
        for i in range(4):
            u_hat = plan.step(u_hat, i * dt)
        c = dispersion_speed(float(k), p)
        expected = np.sin(k * (g.x - c * 4 * dt))
        assert np.abs(values_of(u_hat, 64) - expected).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(nu=st.floats(1.0, 2.0), k=st.integers(1, 64 // 3),
           amplitude=st.floats(1e-3, 1e3), phase=st.floats(0.0, 2.0 * np.pi),
           dt=st.floats(1e-3, 0.5), steps=st.integers(1, 50))
    def test_exact_on_linear_fkdv(self, nu, k, amplitude, phase, dt, steps):
        # with c_nl = 0 a step is one multiply by exp(dt Lin), so n steps
        # carry A sin(k x + phase) to A sin(k (x - c(k) t) + phase) up to
        # round-off.  Each step's multiply and the modulus of its factor
        # cost about 4 eps; the roundings in the phase dt k c(k), and in
        # the reference's k c(k) t, about 4 eps |k c(k) t|; the two
        # transforms (log2 N eps each) and the two sines (2 pi eps each)
        # under 25 eps, charged to the first step: C = 32.  k x is reduced
        # mod 2 pi in integers, so no sine argument exceeds 4 pi.
        n = 64
        g = make_grid(n)
        p = make_params("fkdv", nu, Coefficients(c_nl=0.0, c_disp=-0.5))

        def wave(shift):
            return amplitude * np.sin(TWO_PI / n * (k * np.arange(n) % n) + shift)

        plan = StepPlan(g, p, dt)
        u_hat = coeffs_of(wave(phase))
        for i in range(steps):
            u_hat = plan.step(u_hat, i * dt)
        kct = k * dispersion_speed(float(k), p) * steps * dt
        err = np.abs(values_of(u_hat, n) - wave(phase - np.fmod(kct, TWO_PI))).max()
        assert err <= 32 * np.finfo(float).eps * (steps + abs(kct)) * amplitude

    def test_small_mode_phase_speed(self):
        g = make_grid(64)
        p = make_params("fkdv", 1.0)
        eps = 1e-8
        cfg = SolverConfig(t_end=1.0, dt=1.0 / 256)
        res = integrate(RealField(g, eps * np.sin(g.x)), p, cfg)
        coeff = coeffs_of(res.state.u.values)[1]
        # u = eps sin(x - c t) has coefficient (-i eps/2) e^{-ict}
        phase = np.angle(coeff / (-0.5j * eps))
        measured_c = -phase / res.state.t
        assert measured_c == pytest.approx(0.5, abs=1e-9)


def field_rhs(u: RealField, p) -> RealField:
    """The generalized form written with the field-level operators."""
    c = p.coefficients
    g, nu = u.grid, p.nu.value
    ux = derivative(u)
    lux = fractional_laplacian(ux, nu)
    uux = RealField(g, masked_product(g, u.values, ux.values))
    bracket = c.c_adv * ux.values + c.c_disp * lux.values + c.c_nl * uux.values
    if c.c_mix != 0.0:
        bracket = bracket + c.c_mix * (
            2.0 * fractional_laplacian(uux, nu).values
            + masked_product(g, u.values, lux.values)
        )
    out = RealField(g, -bracket)
    return helmholtz_inverse(out, c.c_evo, nu) if c.c_evo != 0.0 else out


def field_rk4(field: RealField, p, dt):
    def f(v):
        return field_rhs(RealField(field.grid, v), p).values

    u = field.values
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def field_ifrk4(u: RealField, p, dt):
    """fKdV integrating-factor RK4 on the full spectrum."""
    g, c = u.grid, p.coefficients
    k = full_k(g)
    ik = 1j * k
    ik[g.n_points // 2] = 0.0
    lin = -ik * (c.c_adv + c.c_disp * np.abs(k) ** (2.0 * p.nu.value))
    e_half = np.exp(0.5 * dt * lin)
    e_full = e_half * e_half

    def f(u_hat):
        v = RealField(g, full_values_of(u_hat))
        return -c.c_nl * full_coeffs_of(masked_product(g, v.values, derivative(v).values))

    u_hat = full_coeffs_of(u.values)
    k1 = f(u_hat)
    k2 = f(e_half * (u_hat + 0.5 * dt * k1))
    k3 = f(e_half * u_hat + 0.5 * dt * k2)
    k4 = f(e_full * u_hat + dt * e_half * k3)
    new = e_full * u_hat + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return full_values_of(new)


class TestStepPlan:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize(
        "kind,reference,dt",
        [("fch", field_rk4, 1e-3), ("fbbm", field_rk4, 1e-3), ("fkdv", field_ifrk4, 1e-2)],
    )
    def test_matches_field_level_formulas(self, kind, reference, dt, n, rng):
        g = make_grid(n)
        p = make_params(kind, 1.0)
        u0 = inverse_transform(dealias(forward_transform(
            smooth_field(g, rng, band=n // 8, amplitude=0.5))))
        expected = reference(u0, p, dt)
        plan = StepPlan(g, p, dt)
        got = values_of(plan.step(coeffs_of(u0.values), 0.0), n)
        assert np.abs(got - expected).max() < 1e-13

    @pytest.mark.parametrize(
        "kind,coefficients,kernel",
        [("fch", None, rk4_step), ("fbbm", None, rk4_step), ("fbbm", LINEAR_FBBM, rk4_step),
         ("fkdv", None, ifrk4_step)],
        ids=["fch-rk4_step", "fbbm-rk4_step", "fbbm-c_nl=0-rk4_step", "fkdv-ifrk4_step"],
    )
    def test_step_is_the_integrators_kernel(self, kind, coefficients, kernel, rng):
        g = make_grid(64)
        plan = StepPlan(g, make_params(kind, 1.0, coefficients), 1e-3)
        u_hat = coeffs_of(smooth_field(g, rng, band=8, amplitude=0.5).values)
        assert np.array_equal(plan.step(u_hat, 0.0), kernel(plan, u_hat, 0.0))

    def test_dealias_is_keyword_only(self):
        # a scheme passed by position would otherwise bind to dealias
        g = make_grid(16)
        with pytest.raises(TypeError):
            StepPlan(g, make_params("fkdv", 1.0), 0.1, "ifrk4")
        assert StepPlan(g, make_params("fkdv", 1.0), 0.1, dealias=False).dt == 0.1


class _Recording:
    """A plan's rhs that keeps a copy of every input it is called on."""

    def __init__(self, rhs):
        self.rhs, self.inputs = rhs, []

    def __call__(self, u_hat):
        self.inputs.append(u_hat.copy())
        return self.rhs(u_hat)


class _Poisoned:
    """A plan's rhs that writes ``value`` at ``index`` of its result when
    called on one of ``inputs``: a fault of the input, as a real one is, so
    every evaluation of the same step meets it."""

    def __init__(self, rhs, inputs, index, value):
        self.rhs, self.inputs, self.index, self.value = rhs, inputs, index, value

    def __call__(self, u_hat):
        out = self.rhs(u_hat)
        if any(np.array_equal(u_hat, x) for x in self.inputs):
            out = out.copy()
            out[self.index] = self.value
        return out


class _StageChecked:
    """A plan's rhs whose s-th result passes ``_checked`` as stage s: with it
    a kernel checks each stage as it is computed."""

    def __init__(self, rhs, t, first):
        self.rhs, self.t, self.stage = rhs, t, first

    def __call__(self, u_hat):
        out = _checked(self.rhs(u_hat), self.t, self.stage)
        self.stage += 1
        return out


def _per_stage_step(plan, kernel, u_hat, t, k1=None):
    """``kernel``'s step with a check after each stage, the reference that
    the one check per step must match."""
    rhs = plan.rhs
    if k1 is not None:
        _checked(k1, t, 1)
    plan.rhs = _StageChecked(rhs, t, 1 if k1 is None else 2)
    try:
        return kernel(plan, u_hat, t, k1)
    finally:
        plan.rhs = rhs


class TestStageScan:
    """A step checks only its update and, on a trip, scans its stages in
    order: the error is the one a check after each stage raises."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stage", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("given_k1", [False, True])
    @pytest.mark.parametrize("kind,kernel", [("fch", rk4_step), ("fkdv", ifrk4_step)])
    def test_error_matches_the_per_stage_checks(self, kind, kernel, given_k1, rows, stage,
                                                rng):
        g = make_grid(32)
        plan = StepPlan(g, make_params(kind, 1.0), 1.0)
        fields = [smooth_field(g, rng, band=4, amplitude=0.05).values for _ in range(rows or 1)]
        u_hat = coeffs_of(np.stack(fields) if rows else fields[0])
        clean, recording = plan.rhs, _Recording(plan.rhs)
        plan.rhs = recording
        kernel(plan, u_hat, 0.5)
        if stage <= 4:  # a NaN in this stage's result, in the last row
            plan.rhs = _Poisoned(clean, [recording.inputs[stage - 1]], (..., 7), np.nan)
        else:  # finite stages whose update overflows
            plan.rhs = _Poisoned(clean, [recording.inputs[3]], (..., slice(3, 5)), 1.7e308)
        k1 = plan.rhs(u_hat) if given_k1 else None
        with pytest.raises(BlowUpError) as per_stage:
            _per_stage_step(plan, kernel, u_hat, 0.5, k1)
        with pytest.raises(BlowUpError) as once:
            plan.step(u_hat, 0.5, k1)
        assert per_stage.value.stage == stage
        assert (once.value.stage, once.value.t, once.value.index) == \
            (per_stage.value.stage, per_stage.value.t, per_stage.value.index)
        assert str(once.value) == str(per_stage.value)

    @pytest.mark.parametrize("kind,kernel", [("fch", rk4_step), ("fkdv", ifrk4_step)])
    def test_given_stage_one_is_the_same_step(self, kind, kernel, rng):
        g = make_grid(64)
        plan = StepPlan(g, make_params(kind, 1.0), 1e-3)
        u_hat = coeffs_of(np.stack(
            [smooth_field(g, rng, band=8, amplitude=0.5).values for _ in range(3)]))
        k1, slopes = plan.rhs.with_slope(u_hat)
        assert np.array_equal(plan.step(u_hat, 0.0, k1), kernel(plan, u_hat, 0.0))
        assert np.array_equal(k1, plan.rhs(u_hat))
        assert slopes.tobytes() == _slope_stats(g, u_hat)[0].tobytes()
        assert all(plan.rhs.with_slope(row)[1] == slope for row, slope in zip(u_hat, slopes))


class TestAutoDt:
    def test_rest_state_uses_dispersion_sup(self):
        g = make_grid(64)
        p = make_params("fch", 1.0)
        dt = auto_dt(RealField.zeros(g), p, cfl=0.5)
        assert dt == pytest.approx(0.5 * g.spacing)  # sup_k c(k) = 1

    def test_doubling_n_halves_dt(self):
        p = make_params("fch", 1.0)
        g1, g2 = make_grid(64), make_grid(128)
        dt1 = auto_dt(RealField.zeros(g1), p, cfl=0.5)
        dt2 = auto_dt(RealField.zeros(g2), p, cfl=0.5)
        assert dt2 == pytest.approx(dt1 / 2)

    def test_large_amplitude_dominates(self):
        g = make_grid(64)
        p = make_params("fch", 1.0)
        u = RealField(g, 10.0 * np.sin(g.x))
        assert auto_dt(u, p, cfl=0.5) == pytest.approx(0.5 * g.spacing / 10.0)

    def test_ifrk4_excludes_dispersion(self):
        g = make_grid(64)
        p = make_params("fkdv", 1.0)
        u = RealField(g, 0.1 * np.sin(g.x))
        # an RK4 bound would see the |k|^(2nu+1) phase; IFRK4 handles it exactly
        dt_rk4 = 0.5 * g.spacing / np.abs(dispersion_speed(g.k, p)).max()
        dt_if = auto_dt(u, p, cfl=0.5)
        assert dt_if == pytest.approx(0.5 * g.spacing)
        assert dt_rk4 < dt_if / 100

    def test_fkdv_library_default_is_advective(self):
        # a library caller gets fKdV's own scheme and its advective dt: an
        # RK4 bound would take 6,674,628 steps of 1.5e-6 here
        g = make_grid(256)
        u0 = RealField(g, 0.3 * np.sin(g.x))
        dt, steps = resolve_dt(u0, make_params("fkdv", 1.0), SolverConfig(t_end=10.0), 10.0)
        assert steps == 815
        assert dt == 10.0 / 815

    @settings(max_examples=200, deadline=None)
    @given(t_end=st.floats(1e-300, 1e300), frac=st.floats(0.0, 1.0))
    def test_smallest_dt_advances_every_t_up_to_t_end(self, t_end, frac):
        # dt = eps * t_end is the least dt resolve_dt takes; one ulp less is
        # refused.  A step from any t in [0, t_end] then moves t.
        g = make_grid(16)
        eps = np.finfo(float).eps
        dt = eps * t_end
        assume(dt > 0)
        p, u0 = make_params("fch", 1.0), RealField.zeros(g)
        assert resolve_dt(u0, p, SolverConfig(t_end=t_end, dt=dt), t_end)[0] == dt
        with pytest.raises(ConfigError, match="below eps") as err:
            resolve_dt(u0, p, SolverConfig(t_end=t_end, dt=np.nextafter(dt, 0.0)), t_end)
        assert err.value.key == "solver.dt"
        t = frac * t_end
        assert t + dt > t

    def test_underflowing_auto_dt_is_a_config_error(self):
        # cfl * dx / v_max underflows to 0, which used to divide by zero
        g = make_grid(64)
        u0 = RealField(g, 0.3 * np.sin(g.x))
        assert auto_dt(u0, make_params("fch", 1.0), cfl=5e-324) == 0.0
        with pytest.raises(ConfigError, match="below eps") as err:
            resolve_dt(u0, make_params("fch", 1.0), SolverConfig(t_end=1.0, cfl=5e-324), 1.0)
        assert err.value.key == "solver.cfl"

    def test_all_rest_fallback(self):
        g = make_grid(64)
        p = make_params("fbbm", 1.0, Coefficients(c_adv=0.0, c_nl=0.0))
        dt = auto_dt(RealField.zeros(g), p, cfl=0.25)
        assert dt == pytest.approx(0.25 * g.spacing)


def steep_resolved_tail_field(grid):
    """Steep slope and a populated spectral tail (top octave of the band)."""
    hi = grid.n_points // 3 // 2 + 3
    return RealField(grid, 120.0 * np.sin(grid.x) + 4.0 * np.sin(hi * grid.x))


class TestBreakingDetector:
    def test_smooth_field_none(self):
        g = make_grid(128)
        state = SimulationState(t=0.0, u=RealField(g, 0.5 * np.sin(g.x)))
        assert detect_breaking(state, SolverConfig(t_end=1.0)) is None

    def test_steep_without_tail_none(self):
        # resolution guard: a steep single mode has no spectral tail
        g = make_grid(128)
        state = SimulationState(t=0.0, u=RealField(g, 120.0 * np.sin(g.x)))
        assert detect_breaking(state, SolverConfig(t_end=1.0)) is None

    def test_steep_with_tail_reports(self):
        g = make_grid(128)
        state = SimulationState(t=0.7, u=steep_resolved_tail_field(g))
        report = detect_breaking(state, SolverConfig(t_end=1.0))
        assert report is not None
        assert report.t == 0.7
        assert report.min_slope <= -100.0
        assert 0.0 <= report.location < g.length
        assert report.tail_fraction > 1e-4

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.just(0j) | st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
                 min_size=17, max_size=17),
        st.integers(0, 1000),
    )
    def test_tail_fraction_is_scale_free(self, coeffs, e):
        # rescaling by 2^e changes no ratio, also where |u_hat|^2 overflows
        g = make_grid(32)
        u_hat = np.array(coeffs)
        assume(1e-3 <= np.abs(u_hat).max() <= 1e3)
        base = _tail_fraction(g, u_hat)
        with np.errstate(over="ignore", invalid="ignore"):  # the first, overflowing pass
            scaled = _tail_fraction(g, u_hat * 2.0**e)
        assert scaled == pytest.approx(base, rel=1e-15)
        assert 0.0 <= scaled <= 1.0

    def test_breaking_time_fit(self):
        # history following min u_x = -1/(T-t) extrapolates to T
        g = make_grid(128)
        t_star = 2.0
        ts = np.linspace(1.5, 1.95, 12)
        history = [(float(t), float(-1.0 / (t_star - t))) for t in ts]
        state = SimulationState(
            t=1.95, u=steep_resolved_tail_field(g), min_slope_history=history
        )
        report = detect_breaking(state, SolverConfig(t_end=3.0, breaking_slope_threshold=20.0))
        assert report is not None
        assert report.estimated_breaking_time == pytest.approx(t_star, abs=0.05)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("spacing", [1e-300, 5e-324])
    def test_breaking_time_fit_of_indistinct_times_is_none(self, spacing):
        # the fit's sum of squared time offsets underflows to 0
        history = [(i * spacing, -10.0 - i) for i in range(3)]
        assert _fit_breaking_time(history, 1.0) is None


class TestIntegrate:
    def test_t_end_zero_one_snapshot(self):
        g = make_grid(32)
        u0 = RealField(g, np.sin(g.x))
        seen = []
        res = integrate(u0, make_params("fch", 1.0), SolverConfig(t_end=0.0),
                        sink=lambda t, u: seen.append(t))
        assert res.outcome is Outcome.COMPLETED
        assert res.state.t == 0.0
        assert seen == [0.0]

    def test_constant_equilibrium(self):
        g = make_grid(32)
        u0 = RealField(g, np.full(32, 0.8))
        res = integrate(u0, make_params("fbbm", 1.0), SolverConfig(t_end=2.0, dt=0.01))
        assert res.outcome is Outcome.COMPLETED
        assert np.abs(res.state.u.values - 0.8).max() < 1e-12

    def test_constant_equilibrium_many_steps(self):
        g = make_grid(8)
        u0 = RealField(g, np.full(8, -1.3))
        res = integrate(u0, make_params("fch", 1.0), SolverConfig(t_end=10.0, dt=1e-3))
        assert res.state.step_count == 10_000
        assert np.abs(res.state.u.values + 1.3).max() < 1e-12

    def test_snapshot_cadence(self):
        g = make_grid(32)
        u0 = RealField(g, 0.01 * np.sin(g.x))
        times = []
        cfg = SolverConfig(t_end=1.0, dt=0.1, snapshot_every=0.2)
        integrate(u0, make_params("fch", 1.0), cfg, sink=lambda t, u: times.append(t))
        assert times == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_update_is_blowup(self):
        # every coefficient is finite, but the grid values they sum to are not
        g = make_grid(64)
        zero = make_params("fbbm", 1.0, Coefficients(c_adv=0.0, c_nl=0.0))
        u_hat = np.full(33, 1e307, dtype=complex)
        start = SimulationState(t=0.5, u=RealField.zeros(g), u_hat=u_hat)
        seen = []
        res = integrate(start, zero, SolverConfig(t_end=1.0, dt=0.25),
                        sink=lambda t, u: seen.append(u))
        assert res.outcome is Outcome.BLOWUP
        assert res.blowup_time == 0.5
        assert res.blowup_stage == 5
        assert res.state.t == 0.5 and res.state.u_hat is u_hat  # last good state
        assert all(np.isfinite(u.values).all() for u in seen)

    def test_breaking_halt(self):
        g = make_grid(256)
        u0 = RealField(g, 2.0 * np.sin(g.x))
        cfg = SolverConfig(t_end=5.0, dt=AUTO, cfl=0.5, dealias=False)
        res = integrate(u0, make_params("fch", 1.0), cfg)
        assert res.outcome is Outcome.BREAKING
        assert res.breaking is not None
        assert np.isfinite(res.state.u.values).all()
        assert res.state.t < 5.0

    def test_breaking_time_is_fitted_to_the_history_once(self):
        # the reported point ends the history already; it is not added twice
        g = make_grid(256)
        u0 = RealField(g, 2.0 * np.sin(g.x))
        cfg = SolverConfig(t_end=5.0, dt=AUTO, cfl=0.5, dealias=False)
        res = integrate(u0, make_params("fch", 1.0), cfg)
        assert res.breaking.estimated_breaking_time == _fit_breaking_time(
            res.state.min_slope_history, cfg.breaking_slope_threshold)

    @pytest.mark.xfail(strict=True, reason="the detector cannot tell an unstable step "
                       "from wave breaking")
    def test_unstable_explicit_step_is_not_breaking(self):
        # CFL max|u0| dt / dx = 5.2, far outside RK4's stability interval:
        # the steep slope at t = 0.03 is the instability's, not a front's
        g = make_grid(16384)
        u0 = RealField(g, 0.2 * np.sin(g.x))
        res = integrate(u0, make_params("fch", 1.0), SolverConfig(t_end=0.2, dt=0.01))
        assert res.outcome is not Outcome.BREAKING

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_breaking_warn_continues_to_blowup_or_end(self):
        g = make_grid(64)
        u0 = RealField(g, np.sin(g.x))
        # wildly unstable dt so the advection run must blow up; warn mode
        # lets it run into the blow-up instead of halting on the detector
        cfg = SolverConfig(
            t_end=1000.0, dt=10.0, dealias=False, on_breaking="warn"
        )
        res = integrate(u0, advection_params(), cfg)
        assert res.outcome is Outcome.BLOWUP
        assert np.isfinite(res.state.u.values).all()  # last good state
        assert res.blowup_time is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sink_never_sees_nonfinite(self):
        g = make_grid(64)
        u0 = RealField(g, np.sin(g.x))
        cfg = SolverConfig(
            t_end=1000.0, dt=10.0, dealias=False, on_breaking="warn",
            snapshot_every=10.0,
        )
        fields = []
        res = integrate(u0, advection_params(), cfg, sink=lambda t, u: fields.append(u))
        assert res.outcome is Outcome.BLOWUP
        assert all(np.isfinite(f.values).all() for f in fields)

    def test_determinism(self):
        g = make_grid(64)
        u0 = RealField(g, 0.3 * np.sin(g.x) + 0.1 * np.cos(2 * g.x))
        cfg = SolverConfig(t_end=1.0, dt=AUTO)
        a = integrate(u0, make_params("fch", 1.0), cfg)
        b = integrate(u0, make_params("fch", 1.0), cfg)
        assert np.array_equal(a.state.u.values, b.state.u.values)
        assert a.state.t == b.state.t

    @pytest.mark.parametrize("dt", [1e-3, AUTO])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_start_state_without_spectrum_steps_like_u0(self, dealias, dt):
        g = make_grid(64)
        noise = 1e-3 * np.random.default_rng(5).standard_normal(64)
        u0 = RealField(g, 0.3 * np.sin(g.x) + noise)
        cfg = SolverConfig(t_end=0.5, dt=dt, dealias=dealias, snapshot_every=0.1)
        p = make_params("fch", 1.0)
        fresh_snaps, start_snaps = [], []
        fresh = integrate(u0, p, cfg, sink=lambda t, u: fresh_snaps.append((t, u.values)))
        started = integrate(SimulationState(t=0.0, u=u0), p, cfg,
                            sink=lambda t, u: start_snaps.append((t, u.values)))
        assert started.dt == fresh.dt
        assert started.state.u.values.tobytes() == fresh.state.u.values.tobytes()
        assert started.state.u_hat.tobytes() == fresh.state.u_hat.tobytes()
        assert started.state.min_slope_history == fresh.state.min_slope_history
        assert [t for t, _ in start_snaps] == [t for t, _ in fresh_snaps]
        assert all(a.tobytes() == b.tobytes()
                   for (_, a), (_, b) in zip(start_snaps, fresh_snaps))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_warn_row_is_detected_until_it_reports(self, monkeypatch):
        import fracwave.timestepper as ts

        called_at = []

        def counting(state, config):
            called_at.append(state.t)
            return detect_breaking(state, config)

        monkeypatch.setattr(ts, "detect_breaking", counting)
        g = make_grid(256)
        u0 = RealField(g, 2.0 * np.sin(g.x))
        cfg = SolverConfig(t_end=5.0, dt=AUTO, dealias=False, on_breaking="warn")
        res = integrate(u0, make_params("fch", 1.0), cfg)
        # the row reports, then steps on with its slope past the threshold
        assert res.breaking is not None and res.state.t > res.breaking.t
        assert max(called_at) == res.breaking.t

    def test_slope_history_monotone_in_t(self):
        g = make_grid(32)
        u0 = RealField(g, 0.5 * np.sin(g.x))
        res = integrate(u0, make_params("fch", 1.0), SolverConfig(t_end=1.0, dt=0.01))
        ts = [t for t, _ in res.state.min_slope_history]
        assert all(a < b for a, b in zip(ts, ts[1:]))


def _hand_loop(u0, p, cfg):
    """(outcome, slope history, breaking report) of ``integrate(u0, p, cfg)``
    taken by hand: ``StepPlan.step`` and a slope transform after each step."""
    g = u0.grid
    u_hat = coeffs_of(u0.values)
    if cfg.dealias:
        u_hat = g.dealias_keep * u_hat
    plan = StepPlan(g, p, cfg.dt, dealias=cfg.dealias)
    t, report = 0.0, None
    history = [(t, float(_slope_stats(g, u_hat)[0]))]
    for _ in range(int(np.ceil(cfg.t_end / cfg.dt - 1e-9))):
        try:
            u_hat = plan.step(u_hat, t)
        except BlowUpError:
            return Outcome.BLOWUP, history, report
        t += cfg.dt
        slope = float(_slope_stats(g, u_hat)[0])
        history.append((t, slope))
        if slope <= -cfg.breaking_slope_threshold and report is None:
            state = SimulationState(t=t, u=RealField(g, values_of(u_hat, g.n_points)),
                                    min_slope_history=history, u_hat=u_hat)
            report = detect_breaking(state, cfg)
            if report is not None and cfg.on_breaking == "halt":
                return Outcome.BREAKING, history, report
    return Outcome.COMPLETED, history, report


class TestConservedEnergyProperty:
    # fCH conserves the fBBM energy: multiply its form by u and integrate,
    # and the c_mix terms cancel.  What a run drifts is RK4's truncation,
    # which halving dt divides by about 2^4 = 16; the bound asks for half.
    @settings(max_examples=8, deadline=None)
    @given(k=st.sampled_from([1, 2]), amplitude=st.floats(0.2, 0.35),
           phase=st.floats(0.0, 2.0 * np.pi))
    def test_fch_drifts_the_fbbm_energy_at_the_scheme_order(self, k, amplitude, phase):
        g = make_grid(64)
        p = make_params("fch", 1.0)
        u0 = RealField(g, amplitude * np.sin(k * g.x + phase))

        def drift(dt):
            u = integrate(u0, p, SolverConfig(t_end=5.0, dt=dt)).state.u
            return abs(fbbm_energy(u, p) - fbbm_energy(u0, p))

        assert drift(0.02) >= 8.0 * drift(0.01) > 0.0


class TestTranslationProperty:
    # a shift by m grid points multiplies each coefficient by exp(-i k m dx),
    # which commutes with every symbol of the form and with the pointwise
    # products, so a shifted datum steps to the shifted run up to round-off:
    # a few eps of max|u| per step, bounded by 10 eps per step
    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["fch", "fbbm", "fkdv"]),
           k=st.sampled_from([1, 2]), amplitude=st.floats(0.2, 0.35),
           phase=st.floats(0.0, 2.0 * np.pi), shift=st.integers(1, 63))
    def test_grid_shift_commutes_with_stepping(self, kind, k, amplitude, phase, shift):
        g = make_grid(64)
        steps, cfg = 50, SolverConfig(t_end=0.5, dt=0.01)
        u0 = amplitude * np.sin(k * g.x + phase)

        def run(values):
            res = integrate(RealField(g, values), make_params(kind, 1.0), cfg)
            assert res.outcome is Outcome.COMPLETED and res.state.step_count == steps
            return res.state.u.values

        base = run(u0)
        bound = 10 * steps * np.finfo(float).eps * np.abs(base).max()
        assert np.abs(run(np.roll(u0, shift)) - np.roll(base, shift)).max() <= bound


class TestSlopeFromStageOne:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from([("fch", None), ("fbbm", None), ("fkdv", None),
                               ("fbbm", LINEAR_FBBM)]),
        amplitude=st.one_of(st.floats(0.0, 3.0), st.floats(1e150, 1e200)),
        phase=st.floats(0.0, 6.0),
        dealias=st.booleans(),
        threshold=st.floats(0.5, 20.0),
        on_breaking=st.sampled_from(["halt", "warn"]),
    )
    def test_integrate_matches_a_hand_loop(self, model, amplitude, phase, dealias, threshold,
                                           on_breaking):
        g = make_grid(64)
        u0 = RealField(g, amplitude * np.sin(g.x + phase) + 0.05 * np.sin(12 * g.x))
        cfg = SolverConfig(t_end=0.2, dt=0.01, dealias=dealias,
                           breaking_slope_threshold=threshold, tail_fraction_threshold=1e-6,
                           on_breaking=on_breaking)
        res = integrate(u0, make_params(model[0], 1.0, model[1]), cfg)
        outcome, history, report = _hand_loop(u0, make_params(model[0], 1.0, model[1]), cfg)
        assert res.outcome is outcome
        assert res.state.min_slope_history == history
        assert np.array(res.state.min_slope_history).tobytes() == np.array(history).tobytes()
        # repr: an overflowing tail fraction reads NaN on both sides
        assert repr(res.breaking and res.breaking.to_dict()) == \
            repr(report and report.to_dict())


def _batch_rows(amplitudes, phases, blow_at, break_at, blow_exponent, break_amplitude):
    """Smooth rows, with a row that overflows in its first step inserted at
    ``blow_at`` and a steep row with a resolved tail at ``break_at``."""
    g = make_grid(32)
    rows = [a * np.sin(g.x + ph) for a, ph in zip(amplitudes, phases)]
    rows.insert(blow_at, 10.0**blow_exponent * np.sin(g.x))
    rows.insert(break_at, break_amplitude * np.sin(g.x) + 0.05 * np.sin(8 * g.x))
    return g, rows


class TestIntegrateBatch:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=25, deadline=None)
    @given(
        amplitudes=st.lists(st.floats(0.0, 1.5), min_size=0, max_size=4),
        phases=st.lists(st.floats(0.0, 6.0), min_size=4, max_size=4),
        blow_at=st.integers(0, 4),
        break_at=st.integers(0, 5),
        blow_exponent=st.floats(150.0, 200.0),
        break_amplitude=st.floats(1.2, 3.0),
        on_breaking=st.sampled_from(["halt", "warn"]),
        snapshot_every=st.sampled_from([None, 0.01, 0.03]),
    )
    def test_each_row_equals_its_own_integrate(self, amplitudes, phases, blow_at, break_at,
                                               blow_exponent, break_amplitude, on_breaking,
                                               snapshot_every):
        g, rows = _batch_rows(amplitudes, phases, min(blow_at, len(amplitudes)),
                              min(break_at, len(amplitudes) + 1), blow_exponent,
                              break_amplitude)
        cfg = SolverConfig(t_end=0.1, dt=0.01, snapshot_every=snapshot_every,
                           breaking_slope_threshold=1.0, tail_fraction_threshold=1e-6,
                           on_breaking=on_breaking)
        p = make_params("fch", 1.0)
        batch_snaps = [[] for _ in rows]

        def batch_sink(t, lines, values):
            for line, v in zip(lines, values):
                batch_snaps[line].append((t, v.copy()))

        results = integrate_batch([RealField(g, r) for r in rows], p, cfg, batch_sink)
        outcomes = set()
        for row, result, snaps in zip(rows, results, batch_snaps):
            own_snaps = []
            own = integrate(RealField(g, row), p, cfg,
                            sink=lambda t, u: own_snaps.append((t, u.values)))
            outcomes.add(result.outcome)
            assert result.outcome is own.outcome
            assert result.dt == own.dt
            assert result.blowup_time == own.blowup_time
            assert result.blowup_stage == own.blowup_stage
            assert (result.breaking is None) == (own.breaking is None)
            if own.breaking is not None:
                assert result.breaking.to_dict() == own.breaking.to_dict()
            assert result.state.t == own.state.t
            assert result.state.step_count == own.state.step_count
            assert result.state.min_slope_history == own.state.min_slope_history
            assert np.array_equal(result.state.u.values, own.state.u.values)
            assert np.array_equal(result.state.u_hat, own.state.u_hat)
            assert [t for t, _ in snaps] == [t for t, _ in own_snaps]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(snaps, own_snaps))
        assert Outcome.BLOWUP in outcomes
        assert (Outcome.BREAKING in outcomes) == (on_breaking == "halt")

    def test_rows_need_one_dt(self):
        g = make_grid(32)
        u0s = [RealField(g, a * np.sin(g.x)) for a in (0.1, 5.0)]
        with pytest.raises(ParameterError, match="different time steps"):
            integrate_batch(u0s, make_params("fch", 1.0), SolverConfig(t_end=0.1))
        with pytest.raises(ParameterError, match="at least one row"):
            integrate_batch([], make_params("fch", 1.0), SolverConfig(t_end=0.1, dt=0.01))

    def test_started_rows_share_one_time(self):
        g = make_grid(32)
        p, cfg = make_params("fch", 1.0), SolverConfig(t_end=0.1, dt=0.01)
        starts = [integrate(RealField(g, 0.3 * np.sin(g.x)), p, replace(cfg, t_end=t)).state
                  for t in (0.02, 0.03)]
        with pytest.raises(ParameterError, match="one start time"):
            integrate_batch(starts, p, cfg)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        g = make_grid(64)
        u = smooth_field(g, rng)
        state = SimulationState(
            t=0.7315, u=u, step_count=421,
            min_slope_history=[(0.0, -1.0), (0.5, -2.5), (0.7315, -3.25)],
            u_hat=coeffs_of(u.values),
        )
        path = tmp_path / "state.fwck"
        checkpoint_write(state, path)
        back = checkpoint_read(path)
        assert back.t == state.t
        assert back.step_count == state.step_count
        assert np.array_equal(back.u.values, state.u.values)
        assert back.min_slope_history == state.min_slope_history
        assert back.u.grid == g

    def test_stores_stepped_spectrum(self, tmp_path):
        g = make_grid(32)
        res = integrate(RealField(g, 0.3 * np.sin(g.x)), make_params("fch", 1.0),
                        SolverConfig(t_end=0.1, dt=0.01))
        path = tmp_path / "state.fwck"
        checkpoint_write(res.state, path)
        back = checkpoint_read(path)
        assert back.u_hat.dtype == np.complex128 and back.u_hat.shape == (17,)
        assert np.array_equal(back.u_hat, res.state.u_hat)
        assert np.array_equal(back.u.values, res.state.u.values)

    def test_state_without_spectrum_is_refused(self, tmp_path, rng):
        # the transform of the values is not what a run steps (the run
        # dealiases it first), so resuming from it would leave the trajectory
        path = tmp_path / "state.fwck"
        with pytest.raises(ParameterError, match="stepped spectrum"):
            checkpoint_write(SimulationState(t=0.0, u=smooth_field(make_grid(32), rng)), path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("what", CHECKPOINT_FIELDS)
    def test_nonfinite_number_refused(self, tmp_path, what, value):
        g = make_grid(32)
        res = integrate(RealField(g, 0.3 * np.sin(g.x)), make_params("fch", 1.0),
                        SolverConfig(t_end=0.05, dt=0.01))
        path = tmp_path / "state.fwck"
        checkpoint_write(res.state, path)
        poison_checkpoint(path, what, value)
        with pytest.raises(CheckpointError, match=f"non-finite number in its {what}$"):
            checkpoint_read(path)

    def test_version_1_refused(self, tmp_path, rng):
        import struct
        import zlib

        # a version-1 file: the same header, no spectrum after the values
        g = make_grid(32)
        path = tmp_path / "state.fwck"
        u = smooth_field(g, rng)
        checkpoint_write(SimulationState(t=0.0, u=u, u_hat=coeffs_of(u.values)), path)
        blob = bytearray(path.read_bytes())[: -4 - 16 * 17]
        blob[4:8] = struct.pack("<I", 1)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 1, expected 2"):
            checkpoint_read(path)

    def test_truncated(self, tmp_path, rng):
        g = make_grid(32)
        u = smooth_field(g, rng)
        state = SimulationState(t=0.0, u=u, u_hat=coeffs_of(u.values))
        path = tmp_path / "state.fwck"
        checkpoint_write(state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            checkpoint_read(path)

    def test_corrupted_crc(self, tmp_path, rng):
        g = make_grid(32)
        u = smooth_field(g, rng)
        state = SimulationState(t=0.0, u=u, u_hat=coeffs_of(u.values))
        path = tmp_path / "state.fwck"
        checkpoint_write(state, path)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            checkpoint_read(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "state.fwck"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(CheckpointError):
            checkpoint_read(path)

    def test_version_mismatch(self, tmp_path, rng):
        import struct
        import zlib

        g = make_grid(32)
        u = smooth_field(g, rng)
        state = SimulationState(t=0.0, u=u, u_hat=coeffs_of(u.values))
        path = tmp_path / "state.fwck"
        checkpoint_write(state, path)
        blob = bytearray(path.read_bytes())[:-4]
        blob[4:8] = struct.pack("<I", 99)  # bump format version
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_read(path)


class TestResume:
    def test_split_equals_straight(self, tmp_path):
        g = make_grid(64)
        u0 = RealField(g, 0.4 * np.sin(g.x))
        p = make_params("fch", 1.0)
        dt = 1.0 / 128

        straight = integrate(u0, p, SolverConfig(t_end=1.0, dt=dt))

        first = integrate(u0, p, SolverConfig(t_end=0.5, dt=dt))
        path = tmp_path / "mid.fwck"
        checkpoint_write(first.state, path)
        resumed = integrate(checkpoint_read(path), p, SolverConfig(t_end=1.0, dt=dt))

        assert resumed.state.t == straight.state.t
        assert resumed.state.step_count == straight.state.step_count
        assert np.array_equal(resumed.state.u.values, straight.state.u.values)
        assert resumed.state.min_slope_history == straight.state.min_slope_history

    def test_resume_off_the_stride_keeps_the_snapshot_times(self):
        g = make_grid(32)
        u0 = RealField(g, 0.3 * np.sin(g.x))
        p, cfg = make_params("fch", 1.0), SolverConfig(t_end=0.5, dt=0.01, snapshot_every=0.1)
        straight, resumed = {}, {}
        integrate(u0, p, cfg, sink=lambda t, u: straight.setdefault(t, u.values.tobytes()))
        start = integrate(u0, p, replace(cfg, t_end=0.15)).state
        integrate(start, p, cfg, sink=lambda t, u: resumed.setdefault(t, u.values.tobytes()))
        assert min(resumed) == start.t
        later = {t: snap for t, snap in straight.items() if t > start.t}
        assert len(later) == 4
        assert {t: snap for t, snap in resumed.items() if t > start.t} == later

    def test_resuming_twice_from_one_state(self):
        g = make_grid(32)
        u0 = RealField(g, 0.3 * np.sin(g.x))
        p, cfg = make_params("fch", 1.0), SolverConfig(t_end=0.04, dt=0.01)
        start = integrate(u0, p, replace(cfg, t_end=0.02)).state
        before = list(start.min_slope_history)
        first = integrate(start, p, cfg)
        second = integrate(start, p, cfg)
        assert start.min_slope_history == before
        for result in (first, second):
            ts = [t for t, _ in result.state.min_slope_history]
            assert all(a < b for a, b in zip(ts, ts[1:]))
        assert second.state.min_slope_history == first.state.min_slope_history


_SPLIT_STEPS = 12
_SPLIT_DT = 1.0 / 64
_SPLIT_CASES = ("fch", "fkdv")  # one kind per scheme


def _split_run(kind, amplitude, steps, start=None, sink=None):
    g = make_grid(32)
    cfg = SolverConfig(t_end=steps * _SPLIT_DT, dt=_SPLIT_DT, snapshot_every=_SPLIT_DT)
    u0 = RealField(g, amplitude * np.sin(g.x) + 0.5 * amplitude * np.cos(3 * g.x))
    return integrate(start or u0, make_params(kind, 1.0), cfg, sink=sink)


class TestResumeProperty:
    @pytest.mark.parametrize("kind", sorted(_SPLIT_CASES))
    @settings(max_examples=15, deadline=None)
    @given(split=st.integers(0, _SPLIT_STEPS), amplitude=st.floats(0.05, 0.5))
    def test_split_at_any_step_equals_straight(self, kind, split, amplitude):
        straight_snaps, resumed_snaps = {}, {}
        straight = _split_run(kind, amplitude, _SPLIT_STEPS,
                              sink=lambda t, u: straight_snaps.setdefault(t, u.values.tobytes()))
        first = _split_run(kind, amplitude, split)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "split.fwck")
            checkpoint_write(first.state, path)
            start = checkpoint_read(path)
        resumed = _split_run(kind, amplitude, _SPLIT_STEPS, start=start,
                             sink=lambda t, u: resumed_snaps.setdefault(t, u.values.tobytes()))
        assert resumed.state.t == straight.state.t
        assert resumed.state.step_count == straight.state.step_count == _SPLIT_STEPS
        assert resumed.state.u.values.tobytes() == straight.state.u.values.tobytes()
        assert resumed.state.u_hat.tobytes() == straight.state.u_hat.tobytes()
        assert resumed.state.min_slope_history == straight.state.min_slope_history
        assert len(resumed_snaps) == _SPLIT_STEPS - split + 1
        for t, snap in resumed_snaps.items():
            assert snap == straight_snaps[t]

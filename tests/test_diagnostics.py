import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracwave import (
    BlowUpError,
    Coefficients,
    ParameterError,
    RealField,
    SampleSpec,
    SolverConfig,
    apply_A,
    apply_B,
    apply_f,
    commutator_estimate_sample,
    continuous_dependence_experiment,
    convergence_study,
    integrate,
    kato_lipschitz_sample,
    make_params,
    measure_phase_speed,
    random_band_limited,
    sobolev_norm,
)
from fracwave import diagnostics
from fracwave.diagnostics import (
    _BATCH_ELEMENTS,
    LipschitzKind,
    StudyKind,
    _Fields,
    _sample_report,
)
from fracwave.models import ModelKind
from fracwave.operators import lambda_pow
from fracwave.spectral import require_finite
from fracwave.timestepper import Outcome, resolve_dt
from conftest import make_grid
from oracles import masked_product


def spec(n=64, samples=20, band=10, seed=3, amplitude=1.0):
    return SampleSpec(
        n_samples=samples, grid=make_grid(n), band_limit=band,
        amplitude=amplitude, seed=seed,
    )


class TestSampleSpec:
    def test_band_guard(self):
        with pytest.raises(ParameterError):
            SampleSpec(n_samples=10, grid=make_grid(64), band_limit=30)

    def test_counts(self):
        with pytest.raises(ParameterError):
            SampleSpec(n_samples=0, grid=make_grid(64), band_limit=10)
        with pytest.raises(ParameterError):
            SampleSpec(n_samples=5, grid=make_grid(64), band_limit=10, amplitude=0.0)


class TestRandomBandLimited:
    def test_seeded_reproducible(self):
        g = make_grid(64)
        a = random_band_limited(g, 10, np.random.default_rng(42))
        b = random_band_limited(g, 10, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_band_support_and_zero_mean(self):
        g = make_grid(64)
        u = random_band_limited(g, 8, np.random.default_rng(0))
        c = np.fft.rfft(u.values) / 64
        modes = g.modes.astype(int)
        assert np.abs(c[np.abs(modes) > 8]).max() < 1e-15
        assert abs(c[0]) < 1e-15


class TestCommutatorEstimate:
    def test_hypothesis_validation(self):
        sp = spec()
        with pytest.raises(ParameterError, match="m > 0"):
            commutator_estimate_sample(0.0, 2.0, 3.0, 1.0, sp)
        with pytest.raises(ParameterError, match="s >= 0"):
            commutator_estimate_sample(1.0, -0.5, 3.0, 1.0, sp)
        with pytest.raises(ParameterError, match="3/2"):
            commutator_estimate_sample(1.0, 0.25, 3.0, 1.0, sp)
        with pytest.raises(ParameterError, match="sigma"):
            commutator_estimate_sample(2.0, 2.0, 3.0, 1.0, sp)

    def test_report_shape(self):
        sp = spec()
        r = commutator_estimate_sample(1.0, 2.0, 3.0, 1.0, sp)
        assert len(r.ratios) + r.skipped == sp.n_samples
        assert r.sup_ratio == max(r.ratios)
        assert np.isfinite(r.sup_ratio)
        assert all(x >= 0 for x in r.ratios)
        d = r.to_dict()
        assert d["estimate"] == "commutator"
        assert d["spec"]["seed"] == sp.seed

    def test_constant_f_commutes(self):
        # [Lam^m, const] g = 0: the bracket of a constant multiplier field
        g = make_grid(64)
        f = RealField(g, np.full(64, 2.3))
        w = random_band_limited(g, 10, np.random.default_rng(5))
        lam_w = lambda_pow(w, 1.5, 1.0)
        bracket = masked_product(g, f.values, lam_w.values) - lambda_pow(
            RealField(g, masked_product(g, f.values, w.values)), 1.5, 1.0
        ).values
        assert np.abs(bracket).max() < 1e-12

    def test_scale_invariance(self):
        # both sides homogeneous of degree one in f and in g
        a = commutator_estimate_sample(1.0, 2.0, 3.0, 1.0, spec(amplitude=1.0))
        b = commutator_estimate_sample(1.0, 2.0, 3.0, 1.0, spec(amplitude=2.0))
        assert np.allclose(a.ratios, b.ratios, rtol=1e-12)

    def test_reproducible(self):
        a = commutator_estimate_sample(1.0, 2.0, 3.0, 1.0, spec())
        b = commutator_estimate_sample(1.0, 2.0, 3.0, 1.0, spec())
        assert a.ratios == b.ratios

    def test_refinement_stable(self):
        r1 = commutator_estimate_sample(1.0, 2.0, 3.0, 1.0, spec(n=64, samples=50))
        r2 = commutator_estimate_sample(1.0, 2.0, 3.0, 1.0, spec(n=128, samples=50))
        lo, hi = sorted((r1.sup_ratio, r2.sup_ratio))
        assert hi / lo < 2.0

    def test_zero_denominators_skipped_and_counted(self):
        # both norms scale with the amplitude, so their product falls under
        # the zero-denominator floor
        r = commutator_estimate_sample(1.0, 2.0, 3.0, 1.0, spec(amplitude=1e-14))
        assert r.ratios == []
        assert r.skipped == 20
        assert r.sup_ratio == 0.0


class TestKatoLipschitz:
    def test_index_validation(self):
        with pytest.raises(ParameterError, match="2 nu"):
            kato_lipschitz_sample("a-lip", 2.0, 1.0, spec())

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            kato_lipschitz_sample("q-lip", 3.0, 1.0, spec())

    @pytest.mark.parametrize("which", ["a-lip", "b-bound", "b-lip", "f-lip-x", "f-lip-y"])
    def test_finite_ratios(self, which):
        r = kato_lipschitz_sample(which, 2.6, 1.0, spec())
        assert len(r.ratios) + r.skipped == 20
        assert np.isfinite(r.sup_ratio)
        assert r.sup_ratio > 0

    @pytest.mark.parametrize("which", ["f-lip-x", "a-lip", "b-lip", "f-lip-y"])
    def test_zero_denominators_skipped_and_counted(self, which):
        # a degenerate ball radius drives every ||u - v|| under the
        # zero-denominator floor; such samples are skipped, not divided
        r = kato_lipschitz_sample(which, 2.6, 1.0, spec(amplitude=1e-14))
        assert r.ratios == []
        assert r.skipped == 20
        assert r.sup_ratio == 0.0

    def test_f_lip_ratio_closed_form(self):
        # v = 0, u = sin x, nu = 1, s = 3: ||f(u)||_2 / ||u||_2 = 1/2
        g = make_grid(64)
        u = RealField(g, np.sin(g.x))
        num = sobolev_norm(apply_f(u, 1.0), 2.0)
        denom = sobolev_norm(u, 2.0)
        assert num / denom == pytest.approx(0.5, rel=1e-12)

    def test_reproducible(self):
        a = kato_lipschitz_sample("a-lip", 2.6, 1.0, spec())
        b = kato_lipschitz_sample("a-lip", 2.6, 1.0, spec())
        assert a.ratios == b.ratios


SAMPLERS = {
    "commutator": lambda sp: commutator_estimate_sample(1.0, 2.0, 3.0, 1.0, sp),
    **{which: (lambda sp, which=which: kato_lipschitz_sample(which, 2.6, 1.0, sp))
       for which in ("a-lip", "b-bound", "b-lip", "f-lip-x", "f-lip-y")},
}


def reference_report(name, sp):
    """(ratios, skipped) of SAMPLERS[name] drawn one sample at a time with
    the field-level operators, in the documented draw order."""
    rng = np.random.default_rng(sp.seed)
    g, band, nu = sp.grid, sp.band_limit, 1.0

    def scaled(index, target):
        u = random_band_limited(g, band, rng)
        return RealField(g, u.values * (target / sobolev_norm(u, index)))

    def diff(a, b, index):
        return sobolev_norm(RealField(g, a.values - b.values), index)

    def one_draw():
        if name == "commutator":
            m, s, sigma = 1.0, 2.0, 3.0
            f = scaled(sigma, sp.amplitude)
            h = scaled(s + m - 1.0, sp.amplitude)
            bracket = masked_product(g, f.values, lambda_pow(h, m, nu).values) - lambda_pow(
                RealField(g, masked_product(g, f.values, h.values)), m, nu).values
            return (sobolev_norm(RealField(g, bracket), s),
                    sobolev_norm(f, sigma) * sobolev_norm(h, s + m - 1.0))
        s = 2.6
        u = scaled(s, sp.amplitude * rng.uniform(0.2, 1.0))  # radius before phases
        if name == "b-bound":
            w = scaled(s - 1.0, 1.0)
            return sobolev_norm(apply_B(u, w, nu), s - 1.0), sobolev_norm(w, s - 1.0)
        v = scaled(s, sp.amplitude * rng.uniform(0.2, 1.0))
        if name == "a-lip":
            z = scaled(s, 1.0)
            return (diff(apply_A(u, z, nu), apply_A(v, z, nu), s - 1.0),
                    diff(u, v, s - 1.0) * sobolev_norm(z, s))
        if name == "b-lip":
            w = scaled(s - 1.0, 1.0)
            return (diff(apply_B(u, w, nu), apply_B(v, w, nu), s - 1.0),
                    diff(u, v, s) * sobolev_norm(w, s - 1.0))
        index = s - 1.0 if name == "f-lip-x" else s
        return diff(apply_f(u, nu), apply_f(v, nu), index), diff(u, v, index)

    ratios, skipped = [], 0
    for _ in range(sp.n_samples):
        num, denom = one_draw()
        if denom < 1e-13:
            skipped += 1
        else:
            ratios.append(num / denom)
    return ratios, skipped


class TestChunkedDraws:
    # N = 32 puts 128 samples in a chunk, so 259 samples make two whole
    # chunks and a partial one
    @pytest.mark.parametrize("name", list(SAMPLERS))
    def test_equals_one_row_per_chunk(self, name, monkeypatch):
        sp = spec(n=32, samples=2 * (_BATCH_ELEMENTS // 32) + 3, band=8, seed=17)
        report = SAMPLERS[name](sp)
        monkeypatch.setattr(diagnostics, "_chunk_rows", lambda grid: 1)
        one_by_one = SAMPLERS[name](sp)
        assert report.skipped == one_by_one.skipped
        assert report.ratios == one_by_one.ratios

    @pytest.mark.parametrize("name", list(SAMPLERS))
    def test_equals_field_level_reference(self, name):
        # the probes stay on the half spectrum between multipliers, the
        # field-level operators go through grid values: round-off apart
        sp = spec(n=32, samples=2 * (_BATCH_ELEMENTS // 32) + 3, band=8, seed=17)
        report = SAMPLERS[name](sp)
        ratios, skipped = reference_report(name, sp)
        assert report.skipped == skipped
        assert np.allclose(report.ratios, ratios, rtol=1e-10, atol=0)

    def test_a_failing_chunk_raises_the_first_failing_samples_error(self):
        # sample 0 fails only the second check and sample 1 the first; a
        # chunk runs each check on all its rows, but the error raised must
        # be sample 0's, as when the samples are evaluated one at a time
        sp = spec(n=32, samples=3, band=8, seed=2)
        stream = np.random.default_rng(sp.seed).uniform(size=sp.n_samples).tolist()

        def draw(rng, rows):
            checks = np.zeros((2, rows, 32))
            for line, x in enumerate(rng.uniform(size=rows).tolist()):
                sample = stream.index(x)
                if sample == 0:
                    checks[1, line, 5] = np.inf
                if sample == 1:
                    checks[0, line, 3] = np.inf
            for values in checks:
                require_finite(values)
            return np.ones(rows), np.ones(rows)

        with pytest.raises(BlowUpError, match="grid index 5$"):
            _sample_report("probe", {}, sp, draw)

    def test_a_norm_past_the_double_range_raises(self):
        g = make_grid(32)
        half = np.full(17, 1e308, dtype=complex)
        with np.errstate(over="ignore"), pytest.raises(BlowUpError, match="^H.2 norm overflows$"):
            _Fields(g, 8).norm(half, 2.0)

    def test_a_ratio_that_is_not_finite_raises(self):
        def draw(rng, rows):
            return np.full(rows, 1e300), np.full(rows, 1e-10)

        with np.errstate(over="ignore"), pytest.raises(BlowUpError, match="^probe ratio overflows$"):
            _sample_report("probe", {}, spec(n=32, samples=3, band=8), draw)


class TestSequentialDraws:
    # the samples-doubled refinement compares a report with its own
    # extension: the first k draws of a 2k-sample set are the k-sample set
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4) | st.just(130))
    @example(seed=5, k=130)
    def test_k_samples_are_a_prefix_of_2k(self, seed, k):
        sp = spec(n=32, samples=k, band=8, seed=seed)
        for name, sample in SAMPLERS.items():
            short = sample(sp).ratios
            long = sample(replace(sp, n_samples=2 * k)).ratios
            assert len(short) == k, name
            assert long[:k] == short, name


class TestContinuousDependence:
    def test_delta_validation(self):
        g = make_grid(32)
        u0 = RealField(g, 0.1 * np.sin(g.x))
        cfg = SolverConfig(t_end=0.1)
        with pytest.raises(ParameterError):
            continuous_dependence_experiment(u0, [0.0], 2, make_params("fch", 1.0), cfg, 3.0)

    @pytest.mark.parametrize("n_pairs", [0, -2])
    def test_pairs_must_be_positive(self, n_pairs):
        g = make_grid(32)
        u0 = RealField(g, 0.1 * np.sin(g.x))
        cfg = SolverConfig(t_end=0.1, dt=0.05)
        with pytest.raises(ParameterError, match="at least one pair"):
            continuous_dependence_experiment(u0, [1e-3], n_pairs, make_params("fch", 1.0), cfg, 3.0)

    def test_pairs_across_chunks_match_one_at_a_time(self):
        # N = 32 puts the base and 127 pairs in a chunk; compare every pair
        # of three chunks with its own integrate run
        g = make_grid(32)
        u0 = RealField(g, 0.3 * np.sin(g.x))
        p = make_params("fch", 1.0)
        cfg = SolverConfig(t_end=0.03, dt=0.01)
        s, delta, band, seed, n_pairs = 3.0, 1e-3, 5, 8, 2 * (_BATCH_ELEMENTS // 32) + 3
        (report,) = continuous_dependence_experiment(
            u0, [delta], n_pairs, p, cfg, s, seed=seed
        )
        run_cfg = replace(cfg, snapshot_every=0.01)
        base = []
        integrate(u0, p, run_cfg, sink=lambda t, u: base.append(u))
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(n_pairs):
            w = random_band_limited(g, band, rng)
            v0 = RealField(g, u0.values + w.values * (delta / sobolev_norm(w, s - 1.0)))
            d0 = sobolev_norm(RealField(g, v0.values - u0.values), s - 1.0)
            gaps = []
            integrate(v0, p, run_cfg, sink=lambda t, u: gaps.append(sobolev_norm(
                RealField(g, u.values - base[len(gaps)].values), s - 1.0)))
            expected.append(max(gaps) / d0)
        assert report.censored == 0
        assert report.g_values == expected

    def test_equilibria_translate_g_is_one(self):
        # constant datum, constant perturbation: both trajectories constant
        g = make_grid(32)
        p = make_params("fch", 1.0)
        cfg = SolverConfig(t_end=1.0, dt=0.05)
        c0, delta = 0.4, 1e-3
        r1 = integrate(RealField(g, np.full(32, c0)), p, cfg)
        r2 = integrate(RealField(g, np.full(32, c0 + delta)), p, cfg)
        d0 = sobolev_norm(RealField(g, np.full(32, delta)), 2.0)
        dT = sobolev_norm(RealField(g, r2.state.u.values - r1.state.u.values), 2.0)
        assert dT / d0 == pytest.approx(1.0, rel=1e-12)

    def test_small_experiment(self):
        g = make_grid(64)
        u0 = RealField(g, 0.2 * np.sin(g.x))
        p = make_params("fch", 1.0)
        cfg = SolverConfig(t_end=0.5, dt="auto")
        reports = continuous_dependence_experiment(u0, (1e-2, 1e-3), 3, p, cfg, s=3.0, seed=9)
        for r in reports:
            assert r.censored == 0
            assert len(r.g_values) == 3
            # t=0 is included, so G is 1 up to the initial dealias round-trip
            assert all(np.isfinite(gv) and gv >= 1.0 - 1e-10 for gv in r.g_values)
        ratio = reports[0].max_g / reports[1].max_g
        assert 0.5 < ratio < 2.0

    @pytest.mark.parametrize("deltas", [(1e-3,), (1e-2, 1e-3, 1e-4)])
    def test_g_matches_stored_trajectories(self, deltas):
        # G from the whole stored trajectories: sup over t of the
        # H^{s-1} gap over d0, with the experiment's draws and time grid;
        # every delta scales the same seeded directions
        g = make_grid(32)
        u0 = RealField(g, 0.3 * np.sin(g.x) + 0.1 * np.cos(2 * g.x))
        p = make_params("fch", 1.0)
        cfg = SolverConfig(t_end=0.2, dt="auto")
        s, band, seed = 3.0, 5, 4
        reports = continuous_dependence_experiment(
            u0, deltas, 3, p, cfg, s, seed=seed
        )
        dt, _ = resolve_dt(u0, p, cfg, cfg.t_end)
        run_cfg = replace(cfg, dt=dt, snapshot_every=dt)

        def trajectory(v0):
            fields = []
            integrate(v0, p, run_cfg, sink=lambda t, u: fields.append(u))
            return fields

        def norm_of_difference(a, b):
            return sobolev_norm(RealField(g, a.values - b.values), s - 1.0)

        base = trajectory(u0)
        rng = np.random.default_rng(seed)
        directions = [random_band_limited(g, band, rng) for _ in range(3)]
        assert [r.delta for r in reports] == list(deltas)
        for delta, report in zip(deltas, reports):
            expected = []
            for w in directions:
                w_values = w.values * (delta / sobolev_norm(w, s - 1.0))
                v0 = RealField(g, u0.values + w_values)
                d0 = norm_of_difference(v0, u0)
                other = trajectory(v0)
                assert len(other) == len(base) > 2
                expected.append(max(norm_of_difference(b, a) / d0
                                    for a, b in zip(base, other)))
            assert report.censored == 0
            assert report.g_values == expected

    def test_base_that_halts_censors_every_pair(self):
        # the base crosses the slope threshold and halts before t_end while
        # some pairs complete on their own: with no base left to compare
        # with, every pair is censored
        g = make_grid(32)
        u0 = RealField(g, 0.5 * np.sin(g.x))
        p = make_params("fch", 1.0)
        cfg = SolverConfig(t_end=0.3, dt=0.01, breaking_slope_threshold=0.53,
                           tail_fraction_threshold=1e-30)
        base = integrate(u0, p, cfg)
        assert base.outcome is Outcome.BREAKING and base.state.t < 0.29
        s, delta, band, seed, n_pairs = 3.0, 0.1, 5, 3, 8
        rng = np.random.default_rng(seed)
        completed = 0
        for _ in range(n_pairs):
            w = random_band_limited(g, band, rng)
            v0 = RealField(g, u0.values + w.values * (delta / sobolev_norm(w, s - 1.0)))
            completed += integrate(v0, p, cfg).outcome is Outcome.COMPLETED
        assert completed > 0
        (report,) = continuous_dependence_experiment(
            u0, [delta], n_pairs, p, cfg, s, seed=seed
        )
        assert report.censored == n_pairs and report.g_values == []

    def test_peak_memory_does_not_grow_with_steps(self):
        # no trajectory is stored: 360 more steps at N=1024 hold no more
        # fields (8 KB each); the rows' slope histories grow by a few
        # hundred bytes a step
        g = make_grid(1024)
        u0 = RealField(g, 0.2 * np.sin(g.x))
        p = make_params("fch", 1.0)

        def peak(steps):
            cfg = SolverConfig(t_end=steps * 1e-4, dt=1e-4)
            tracemalloc.start()
            try:
                continuous_dependence_experiment(u0, [1e-2, 1e-3], 1, p, cfg, 3.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(40)  # the first call builds what later calls take from caches
        assert peak(400) - peak(40) < 2**20

    def test_reproducible(self):
        g = make_grid(64)
        u0 = RealField(g, 0.2 * np.sin(g.x))
        p = make_params("fch", 1.0)
        cfg = SolverConfig(t_end=0.25, dt="auto")
        (a,) = continuous_dependence_experiment(u0, [1e-3], 2, p, cfg, s=3.0, seed=1)
        (b,) = continuous_dependence_experiment(u0, [1e-3], 2, p, cfg, s=3.0, seed=1)
        assert a.g_values == b.g_values


def gaussian_bump(grid):
    return 0.3 * np.exp(-((grid.x - grid.length / 2.0) ** 2) / (2.0 * 0.5**2))


class TestConvergenceStudy:
    def test_spatial_advection(self):
        model = make_params(
            "linearized", 1.0, Coefficients(c_adv=1.0, c_nl=0.0, c_disp=0.0, c_evo=0.0)
        )
        cfg = SolverConfig(t_end=1.0, dt=1e-3, dealias=False)
        res = convergence_study(
            "spatial", model, cfg, lambda grid: np.exp(np.sin(grid.x)),
        )
        errors = dict((int(n), e) for n, e in res.rows)
        assert errors[64] < 1e-10
        assert errors[16] > errors[64]

    def test_temporal_order_four(self):
        model = make_params("fbbm", 1.0)
        cfg = SolverConfig(t_end=0.5, dt=0.02)
        res = convergence_study(
            "temporal", model, cfg,
            lambda grid: 0.3 * np.sin(grid.x) + 0.1 * np.cos(2 * grid.x),
            n_points=32,
        )
        assert res.fitted_order == pytest.approx(4.0, abs=0.3)

    def test_box_size_decreasing(self):
        model = make_params("fch", 1.0)
        cfg = SolverConfig(t_end=0.5, dt=0.01)
        res = convergence_study("box-size", model, cfg, gaussian_bump, n_points=64)
        errors = [e for _, e in res.rows]
        assert errors[1] < errors[0]

    def test_kind_strings(self):
        # every member of the three named choices, by value, name and alias,
        # in any case and with blanks around; one bad name each
        spellings = {
            ModelKind.FCH: ["fch", " FCH "],
            ModelKind.FKDV: ["fkdv", "FKdV"],
            ModelKind.FBBM: ["fbbm"],
            ModelKind.LINEARIZED_FCH:
                ["linearized", "linearized_fch", "linearized-fch", "Linearized-FCH"],
            LipschitzKind.A_LIP: ["a-lip", "a_lip", "A-LIP"],
            LipschitzKind.B_BOUND: ["b-bound", "b_bound"],
            LipschitzKind.B_LIP: ["b-lip", "B_Lip"],
            LipschitzKind.F_LIP_X: ["f-lip-x", "f_lip_x"],
            LipschitzKind.F_LIP_Y: ["f-lip-y", " F-LIP-Y "],
            StudyKind.SPATIAL: ["spatial", "Spatial"],
            StudyKind.TEMPORAL: ["temporal", " TEMPORAL"],
            StudyKind.BOX_SIZE: ["box-size", "box_size", "box", "BOX"],
        }
        for kind in (ModelKind, LipschitzKind, StudyKind):
            assert set(kind) <= set(spellings)
        for member, texts in spellings.items():
            for text in texts:
                assert type(member).from_string(text) is member
        for kind, text, what in [(ModelKind, "ch", "model kind"),
                                 (LipschitzKind, "a-lipx", "Lipschitz probe"),
                                 (StudyKind, "banana", "study kind")]:
            with pytest.raises(ParameterError, match=f"unknown {what} '{text}'"):
                kind.from_string(text)


class TestMeasurePhaseSpeed:
    def test_recovers_translation_speed(self):
        g = make_grid(64)
        c = 0.77
        times = np.linspace(0.0, 2.0, 11)
        fields = [RealField(g, np.sin(g.x - c * t)) for t in times]
        assert measure_phase_speed(times, fields, 1) == pytest.approx(c, abs=1e-12)
        assert measure_phase_speed(times, fields, -1) == pytest.approx(c, abs=1e-12)

    def test_needs_populated_mode(self):
        g = make_grid(64)
        fields = [RealField.zeros(g), RealField.zeros(g)]
        with pytest.raises(ParameterError):
            measure_phase_speed([0.0, 1.0], fields, 1)

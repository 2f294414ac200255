"""Numerical probes of the analytic estimates behind well-posedness.

None of the constants in the commutator and Lipschitz estimates have
published values, so nothing here asserts a number.  The testable
surrogate is: measured sup ratios over seeded random sample sets are
finite, scale-invariant where the estimate is homogeneous, and stable
(within a factor two) under refinement of the grid or the sample count.

All samplers draw band-limited random fields: independent uniform phases
under a |k|^-2 amplitude envelope, rescaled to a requested Sobolev norm.
A sample whose denominator is below 1e-13 is counted in
``skipped_zero_denominator`` and never divided.  Draws are sequential from
one generator seeded with ``spec.seed``, so every report is bit-reproducible
from (spec, parameters) and an n-sample report's ratios are a prefix of the
2n-sample report's with the same seed.

Draws are evaluated as array programs, ``max(1, 4096 // N)`` samples (or
dependence rows) at a time: a chunk takes its doubles in one
``rng.uniform`` call laid out in the sequential draw order and runs every
operator on (rows, N/2+1) half spectra.  As each row of a transform equals
that row's own, a report is bit-identical however it is chunked, and so is
G to one pair at a time.  Operator values, draws, differences, norms and
ratios are checked finite (``BlowUpError``); a chunk whose draw raises is
drawn again a row at a time, so the error is the first failing sample's
first error.  The ratios match the field-level operators to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import BlowUpError, NamedChoice, ParameterError
from .operators import OperatorPlan, as_order
from .spectral import (
    Grid,
    RealField,
    _fit_line,
    fit_phase_speed,
    half_coeffs_of,
    half_values_of,
    require_finite,
    sobolev_norms,
    sobolev_weight,
)

if TYPE_CHECKING:  # the probes run without the solver; its functions load where used
    from .models import ModelParams
    from .timestepper import SolverConfig

_ZERO_DENOM = 1e-13


@dataclass(frozen=True)
class SampleSpec:
    """How to draw a random sample set: grid, band, scale, count, seed."""

    n_samples: int
    grid: Grid
    band_limit: int
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ParameterError("n_samples must be >= 1")
        if self.band_limit < 1 or 3 * self.band_limit > self.grid.n_points:
            raise ParameterError(
                f"band_limit must lie in [1, N/3] = [1, {self.grid.n_points // 3}] "
                f"to stay dealias-safe, got {self.band_limit}"
            )
        if not (np.isfinite(self.amplitude) and self.amplitude > 0):
            raise ParameterError(f"amplitude must be positive, got {self.amplitude}")
        _check_seed(self.seed)

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "grid": {"L": self.grid.length, "N": self.grid.n_points},
            "band_limit": self.band_limit,
            "amplitude": self.amplitude,
            "seed": self.seed,
        }


@dataclass
class DiagnosticsReport:
    estimate: str
    ratios: list
    skipped: int
    spec: SampleSpec
    params: dict

    @property
    def sup_ratio(self) -> float:
        return max(self.ratios) if self.ratios else 0.0

    @property
    def mean_ratio(self) -> float:
        return float(np.mean(self.ratios)) if self.ratios else 0.0

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "params": self.params,
            "spec": self.spec.to_dict(),
            "n_ratios": len(self.ratios),
            "skipped_zero_denominator": self.skipped,
            "sup_ratio": self.sup_ratio,
            "mean_ratio": self.mean_ratio,
            "ratios": list(self.ratios),
        }


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")


def random_band_limited(grid: Grid, band_limit: int, rng) -> RealField:
    """One smooth random field: uniform phases, |k|^-2 envelope, zero mean."""
    _check_band(grid, band_limit)
    phases = rng.uniform(0.0, 2.0 * np.pi, band_limit)
    return RealField(grid, half_values_of(_band_limited(grid, phases), grid.n_points))


def _check_band(grid: Grid, band_limit: int) -> None:
    if band_limit < 1 or 2 * band_limit >= grid.n_points:
        raise ParameterError(f"band_limit {band_limit} does not fit grid N={grid.n_points}")


def _band_limited(grid: Grid, phases: np.ndarray) -> np.ndarray:
    """Half spectra of the fields of ``random_band_limited`` with the given
    phases, shape (..., band) -> (..., N/2+1)."""
    coeffs = np.zeros(phases.shape[:-1] + (grid.n_points // 2 + 1,), dtype=np.complex128)
    idx = np.arange(1, phases.shape[-1] + 1)
    coeffs[..., idx] = np.abs(grid.k[idx]) ** -2.0 * np.exp(1j * phases)
    return coeffs


# A chunk of draws holds about this many grid values per field: enough rows
# to amortize numpy's per-call cost, few enough to keep the peak memory of
# a report that of one field at a time.
_BATCH_ELEMENTS = 4096


def _chunk_rows(grid: Grid) -> int:
    return max(1, _BATCH_ELEMENTS // grid.n_points)


class _Fields:
    """Seeded random fields on one grid, a chunk of rows at a time.

    ``draw`` takes a chunk's doubles in one ``rng.uniform`` call whose
    per-column bounds lay out the sequential draw order, so the stream is
    the one ``random_band_limited`` and ``rng.uniform(0.2, 1.0)`` would
    consume field by field.  Fields are half spectra.
    """

    def __init__(self, grid: Grid, band: int):
        _check_band(grid, band)
        self.grid, self.band = grid, band
        self._weights = {}

    def draw(self, rng, rows: int, layout) -> list:
        """One block of doubles per entry of ``layout``, in order: (rows, 1)
        ball radii U(0.2, 1) for "radius", (rows, band) phases U(0, 2 pi)
        for "phases"."""
        bounds = {"radius": (0.2, 1.0, 1), "phases": (0.0, 2.0 * np.pi, self.band)}
        low, high, widths = zip(*(bounds[entry] for entry in layout))
        draws = rng.uniform(np.repeat(low, widths), np.repeat(high, widths),
                            (rows, sum(widths)))
        return np.split(draws, np.cumsum(widths)[:-1], axis=1)

    def norm(self, half: np.ndarray, s: float) -> np.ndarray:
        weight = self._weights.get(s)
        if weight is None:
            weight = self._weights[s] = sobolev_weight(self.grid, s)
        norms = sobolev_norms(self.grid, half, weight)
        if not np.isfinite(norms).all():
            raise BlowUpError(f"H^{s:g} norm overflows")
        return norms

    def diff_norm(self, a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
        """Norms of a - b: half spectra, or grid values if ``a`` is real."""
        diff = require_finite(a - b)
        return self.norm(diff if np.iscomplexobj(diff) else half_coeffs_of(diff), s)

    def scaled(self, phases: np.ndarray, s: float, target) -> np.ndarray:
        """Fields rescaled to H^s norm ``target``, a number or one per row."""
        u = _band_limited(self.grid, phases)
        return require_finite(u * (target / self.norm(u, s))[..., None])


def _draw_chunk(draw, rng, rows: int):
    """``draw(rng, rows)``.  When it raises ``BlowUpError``, the chunk is
    drawn again a row at a time from the same point of the stream, so the
    error raised is that of the first failing row's first failing check,
    as in a field-at-a-time evaluation."""
    before = rng.bit_generator.state
    try:
        return draw(rng, rows)
    except BlowUpError:
        rng.bit_generator.state = before
        for _ in range(rows):
            draw(rng, 1)
        raise


def _sample_report(estimate, params, spec: SampleSpec, draw) -> DiagnosticsReport:
    """Ratios of ``spec.n_samples`` draws on one seeded generator, taken a
    chunk of ``rows`` at a time by ``draw(rng, rows) -> (num, denom)``
    arrays; a round-off denominator is skipped, and a ratio that is not
    finite raises ``BlowUpError``."""
    rng = np.random.default_rng(spec.seed)
    rows = _chunk_rows(spec.grid)
    ratios, skipped = [], 0
    for done in range(0, spec.n_samples, rows):
        num, denom = _draw_chunk(draw, rng, min(rows, spec.n_samples - done))
        skip = denom < _ZERO_DENOM
        skipped += int(skip.sum())
        chunk = num[~skip] / denom[~skip]
        if not np.isfinite(chunk).all():
            raise BlowUpError(f"{estimate} ratio overflows")
        ratios.extend(chunk.tolist())
    return DiagnosticsReport(estimate, ratios, skipped, spec, params)


# -- commutator estimate ---------------------------------------------------

def commutator_estimate_sample(
    m: float, s: float, sigma: float, nu, spec: SampleSpec
) -> DiagnosticsReport:
    """Sample ||[Lam^m, f] g||_s / (||f||_sigma ||g||_{s+m-1}).

    Hypotheses m > 0, s >= 0, 3/2 < s + m <= sigma are validated before
    any computation.
    """
    nu = as_order(nu)
    for holds, need in ((m > 0, f"m > 0, got m={m}"), (s >= 0, f"s >= 0, got s={s}"),
                        (s + m > 1.5, f"s + m > 3/2, got s + m = {s + m}"),
                        (s + m <= sigma, f"s + m <= sigma, got {s + m} > {sigma}")):
        if not holds:
            raise ParameterError(f"commutator estimate needs {need}")
    fields, ops = _Fields(spec.grid, spec.band_limit), OperatorPlan(spec.grid, nu.value)

    def draw(rng, rows):
        f_phases, g_phases = fields.draw(rng, rows, ("phases", "phases"))
        f = fields.scaled(f_phases, sigma, spec.amplitude)
        g = fields.scaled(g_phases, s + m - 1.0, spec.amplitude)
        comm, _ = ops.commutator(ops.lambda_symbol(m), half_values_of(f, spec.grid.n_points), g)
        return fields.norm(comm, s), fields.norm(f, sigma) * fields.norm(g, s + m - 1.0)

    return _sample_report("commutator", {"m": m, "s": s, "sigma": sigma, "nu": nu.value},
                          spec, draw)


# -- Lipschitz / boundedness constants of the quasi-linear pieces ----------

class LipschitzKind(NamedChoice, what="Lipschitz probe"):
    A_LIP = "a-lip"
    B_BOUND = "b-bound"
    B_LIP = "b-lip"
    F_LIP_X = "f-lip-x"
    F_LIP_Y = "f-lip-y"


def kato_lipschitz_sample(which, s: float, nu, spec: SampleSpec) -> DiagnosticsReport:
    """Sample the constants behind the A/B/f hypotheses.

    a-lip    ||(A(u)-A(v)) z||_{s-1} / (||u-v||_{s-1} ||z||_s)
    b-bound  ||B(u) w||_{s-1} / ||w||_{s-1}
    b-lip    ||(B(u)-B(v)) w||_{s-1} / (||u-v||_s ||w||_{s-1})
    f-lip-x  ||f(u)-f(v)||_{s-1} / ||u-v||_{s-1}
    f-lip-y  ||f(u)-f(v)||_s / ||u-v||_s

    u and v are drawn inside the H^s ball of radius ``spec.amplitude``
    (rescaled draws); the index constraint s > 2 nu + 1/2 is validated.
    """
    nu = as_order(nu)
    if isinstance(which, str):
        which = LipschitzKind.from_string(which)
    if not s > 2.0 * nu.value + 0.5:
        raise ParameterError(
            f"Lipschitz probes need s > 2 nu + 1/2 = {2 * nu.value + 0.5}, got s={s}"
        )
    fields, ops = _Fields(spec.grid, spec.band_limit), OperatorPlan(spec.grid, nu.value)
    # every report's numbers rest on this draw order: u, v (not for b-bound),
    # then z or w; each ball field's radius comes before its phases
    layout = ("radius", "phases") + {
        LipschitzKind.B_BOUND: ("phases",),
        LipschitzKind.A_LIP: ("radius", "phases", "phases"),
        LipschitzKind.B_LIP: ("radius", "phases", "phases"),
    }.get(which, ("radius", "phases"))
    A, B, f = ops.apply_A, ops.apply_B, ops.apply_f

    def draw(rng, rows):
        blocks = fields.draw(rng, rows, layout)
        u = fields.scaled(blocks[1], s, spec.amplitude * blocks[0][:, 0])
        if which is LipschitzKind.B_BOUND:
            w = fields.scaled(blocks[2], s - 1.0, 1.0)
            return fields.norm(B(u, w), s - 1.0), fields.norm(w, s - 1.0)
        v = fields.scaled(blocks[3], s, spec.amplitude * blocks[2][:, 0])
        if which is LipschitzKind.A_LIP:
            z = fields.scaled(blocks[4], s, 1.0)
            return (fields.diff_norm(A(u, z), A(v, z), s - 1.0),
                    fields.diff_norm(u, v, s - 1.0) * fields.norm(z, s))
        if which is LipschitzKind.B_LIP:
            w = fields.scaled(blocks[4], s - 1.0, 1.0)
            return (fields.diff_norm(B(u, w), B(v, w), s - 1.0),
                    fields.diff_norm(u, v, s) * fields.norm(w, s - 1.0))
        index = s - 1.0 if which is LipschitzKind.F_LIP_X else s
        return fields.diff_norm(f(u), f(v), index), fields.diff_norm(u, v, index)

    return _sample_report(f"kato-{which.value}", {"which": which.value, "s": s, "nu": nu.value},
                          spec, draw)


# -- continuous dependence on initial data ---------------------------------

@dataclass
class DependenceReport:
    delta: float
    g_values: list
    censored: int
    n_pairs: int
    norm_index: float

    @property
    def max_g(self) -> float:
        return max(self.g_values) if self.g_values else float("nan")

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "n_pairs": self.n_pairs,
            "censored": self.censored,
            # null when every pair is censored: JSON has no NaN
            "max_g": self.max_g if self.g_values else None,
            "g_values": list(self.g_values),
            "norm_index": self.norm_index,
        }


def continuous_dependence_experiment(
    u0: RealField,
    deltas,
    n_pairs: int,
    model: ModelParams,
    config: SolverConfig,
    s: float,
    seed: int = 0,
) -> list:
    """Growth of perturbations: G = sup_{t<=T} ||u1-u2||_{s-1} at t over t=0,
    one report per entry of the sequence ``deltas``, in order.

    Each pair is (u0, u0 + delta * p) with p a random field of unit
    H^{s-1} norm, band-limited to max(2, N // 6), half the band the 2/3
    rule keeps, so a dealiased run steps all of the perturbation that d0
    measures; every delta scales the same seeded directions.
    A chunk of directions, under every delta, goes through
    ``integrate_batch`` behind the base u0 as row 0.  Every step is a
    snapshot, so each one holds the live base and pairs, and the gaps are
    taken as they arrive: no trajectory is stored.  A pair is censored
    (reported, not hidden) when its d0 is round-off, and then not stepped,
    or when it or the base breaks or blows up before t_end.  A draw that
    fails a finiteness check raises for the first direction that fails
    under some delta.
    """
    for delta in deltas:
        if not (np.isfinite(delta) and delta > 0):
            raise ParameterError(f"perturbation scale must be positive, got {delta}")
    if len(deltas) == 0:
        raise ParameterError("dependence needs at least one delta")
    if n_pairs < 1:
        raise ParameterError(f"dependence needs at least one pair, got {n_pairs}")
    _check_seed(seed)
    from .timestepper import Outcome, integrate_batch, resolve_dt

    grid = u0.grid
    # Fix dt once from the unperturbed data so all trajectories share a
    # time grid.
    dt, _ = resolve_dt(u0, model, config, config.t_end)
    run_cfg = replace(config, dt=dt, snapshot_every=dt)
    fields = _Fields(grid, max(2, grid.n_points // 6))
    scales = np.asarray(deltas, dtype=float)[:, None]

    def draw(rng, rows):
        """(delta, direction) rows of perturbed data, scaled on the grid, and their d0."""
        (phases,) = fields.draw(rng, rows, ("phases",))
        p = require_finite(half_values_of(_band_limited(grid, phases), grid.n_points))
        p = require_finite(p * (scales / fields.norm(half_coeffs_of(p), s - 1.0))[..., None])
        perturbed0 = require_finite(u0.values + p).reshape(-1, grid.n_points)
        return perturbed0, fields.diff_norm(perturbed0, u0.values, s - 1.0)

    reports = [DependenceReport(delta, [], 0, n_pairs, s - 1.0) for delta in deltas]
    rng = np.random.default_rng(seed)
    chunk = max(1, (_chunk_rows(grid) - 1) // len(deltas))
    for done in range(0, n_pairs, chunk):
        perturbed0, d0 = _draw_chunk(draw, rng, min(chunk, n_pairs - done))
        owner = np.repeat(np.arange(len(deltas)), len(d0) // len(deltas))
        run = ~(d0 < _ZERO_DENOM)
        for j in owner[~run].tolist():
            reports[j].censored += 1
        if not run.any():
            continue
        d0, owner = d0[run], owner[run]
        sup_gap = np.full(len(d0), -np.inf)

        def sink(t, rows, values):
            if rows[0] == 0:  # the base is live: gaps of the pairs to it
                pairs = rows[1:] - 1
                gaps = fields.diff_norm(values[1:], values[0], s - 1.0)
                sup_gap[pairs] = np.maximum(sup_gap[pairs], gaps)

        base, *results = integrate_batch(
            [u0] + [RealField(grid, v) for v in perturbed0[run]], model, run_cfg, sink)
        for result, j, g in zip(results, owner.tolist(), (sup_gap / d0).tolist()):
            if result.outcome is Outcome.COMPLETED and base.outcome is Outcome.COMPLETED:
                reports[j].g_values.append(g)
            else:
                reports[j].censored += 1
    return reports


# -- convergence studies ----------------------------------------------------

class StudyKind(NamedChoice, what="study kind"):
    SPATIAL = "spatial"
    TEMPORAL = "temporal"
    BOX_SIZE = "box-size"
    BOX = "box-size"  # alias


@dataclass
class ConvergenceResult:
    kind: StudyKind
    rows: list  # (resolution, error) pairs
    fitted_order: float | None
    reference: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "rows": [{"resolution": r, "error": e} for r, e in self.rows],
            "fitted_order": self.fitted_order,
            "reference": self.reference,
        }


def _final_field(initial, grid, model, config) -> RealField:
    from .timestepper import Outcome, integrate

    u0 = RealField(grid, initial(grid))
    result = integrate(u0, model, config, sink=None)
    if result.outcome is not Outcome.COMPLETED:
        raise ParameterError(
            f"convergence run on N={grid.n_points}, L={grid.length} ended in "
            f"{result.outcome.value}; refine the setup"
        )
    return result.state.u


# the spatial study's grids; the temporal study halves dt this many times
_SPATIAL_NS = (16, 32, 64, 128)
_DT_HALVINGS = 3


def convergence_study(
    kind,
    model: ModelParams,
    config: SolverConfig,
    initial,
    *,
    length: float = 2.0 * np.pi,
    n_points: int = 64,
) -> ConvergenceResult:
    """Self-convergence tables against a refined reference run.

    ``initial`` is a builder mapping a Grid to a value array, so the same
    datum can be realized on every resolution (and every box size).
    SPATIAL doubles N from 16 to 128 at fixed dt; TEMPORAL halves dt three
    times at fixed N and fits the observed order; BOX_SIZE doubles the
    (length, n_points) box twice at fixed spacing, against 8 times it, for
    localized data, quantifying the periodic-box stand-in for the real line.
    """
    if isinstance(kind, str):
        kind = StudyKind.from_string(kind)
    from .timestepper import AUTO, resolve_dt

    # dt is fixed once, from the datum on the SPATIAL reference grid or on
    # the (length, n_points) grid
    base = Grid(length, n_points)
    datum = Grid(length, 4 * max(_SPATIAL_NS)) if kind is StudyKind.SPATIAL else base
    if config.dt == AUTO:
        dt, _ = resolve_dt(RealField(datum, initial(datum)), model, config, config.t_end)
    elif kind is StudyKind.TEMPORAL:
        # snap so every halved run lands exactly on t_end
        dt = config.t_end / max(1, round(config.t_end / float(config.dt)))
    else:
        dt = config.dt
    ref_grid, ref_cfg = datum, replace(config, dt=dt)

    # each case: (resolution, grid, config, the window of the reference's
    # values it is compared on)
    if kind is StudyKind.SPATIAL:
        # grids nest: coarse points are every stride-th fine point
        cases = [(float(n), Grid(length, n), ref_cfg, slice(None, None, datum.n_points // n))
                 for n in _SPATIAL_NS]
        reference = {"N": datum.n_points, "dt": dt}
    elif kind is StudyKind.TEMPORAL:
        cases = [(dt / 2**i, base, replace(config, dt=dt / 2**i), slice(None))
                 for i in range(_DT_HALVINGS + 1)]
        ref_cfg = replace(config, dt=dt / 2 ** (_DT_HALVINGS + 2))
        reference = {"N": n_points, "dt": ref_cfg.dt}
    else:  # BOX_SIZE: fixed spacing, growing box, compared on the middle
        ref_grid = Grid(8 * length, 8 * n_points)
        cases = [(scale * length, Grid(scale * length, scale * n_points), ref_cfg,
                  slice((8 - scale) * n_points // 2, (8 + scale) * n_points // 2))
                 for scale in (1, 2, 4)]
        reference = {"L": ref_grid.length, "dt": dt}

    ref = _final_field(initial, ref_grid, model, ref_cfg).values
    rows = []
    for resolution, grid, case_cfg, window in cases:
        u = _final_field(initial, grid, model, case_cfg).values
        rows.append((resolution, float(np.abs(u - ref[window]).max())))
    order = None
    if kind is StudyKind.TEMPORAL:
        log_dt = np.log([r[0] for r in rows])
        log_err = np.log([max(r[1], 1e-300) for r in rows])
        order = _fit_line(log_dt, log_err)[0]
    return ConvergenceResult(kind, rows, order, reference)


# -- phase-speed measurement -------------------------------------------------

def measure_phase_speed(times, fields, mode: int) -> float:
    """Phase speed of one Fourier mode from a snapshot series of fields;
    see ``fit_phase_speed``.  Modes -m and m travel together."""
    coeffs = [half_coeffs_of(f.values)[abs(mode)] for f in fields]
    return fit_phase_speed(times, coeffs, fields[0].grid if fields else None, abs(mode))

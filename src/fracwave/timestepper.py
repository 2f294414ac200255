"""Time integration, wave-breaking detection, and checkpointing.

Every run steps through one ``StepPlan``, built once per (grid, model,
dt, dealias).  The plan holds the half-spectrum evaluator of the model
(``models.make_rhs``) and, for fKdV, the integrating-factor exponentials;
the state stays a dealiased half spectrum for the whole run, and grid
values are synthesized only for the snapshot sink, a breaking report and
the returned state.

The plan, its steps and their finiteness checks take one half spectrum
(N/2+1,) or a batch (M, N/2+1) alike.  ``integrate_batch`` steps M
trajectories that share a grid and dt as one array program and returns
one result per row, equal bit for bit to that row's own run;
``integrate`` (which also resumes from a checkpoint) is its one-row call.

A step pays for no check beyond its update's: a non-finite stage always
reaches the update, and only when that trips are the stages scanned, in
order, so the error still names the first non-finite stage.  The per-step
breaking slope, min u_x, is read off the next step's stage 1, whose
inverse transform already holds u_x.

The model decides which of two schemes steps the plan's state
(``_scheme``); no option chooses it.  Classical RK4 (``rk4_step``) suits
fCH and fBBM, whose linearized phase speed stays bounded as k grows (it
tends to c_disp/c_evo), so the stiffness is only advective.  fKdV has no
evolution-side smoothing and its dispersive phase grows like
|k|^(2 nu + 1); the integrating-factor RK4 (``ifrk4_step``) removes that
linear part exactly and steps only the nonlinearity.  RK4 is that scheme
with an empty linear part; it is written out without the unit factors.

Breaking detection is deliberately conjunctive: a steep slope alone can
be an under-resolved (aliased) front, so the detector also requires a
visible spectral tail before it reports physical wave breaking.
"""

from __future__ import annotations

import enum
import math
import struct
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .atomic import write_atomic
from .errors import BlowUpError, CheckpointError, ConfigError, ParameterError
from .models import ModelKind, ModelParams, dispersion_speed, make_rhs
from .spectral import (
    Grid,
    RealField,
    _fit_line,
    coeffs_of,
    first_min,
    sobolev_norms,
    sobolev_weight,
    values_of,
)

AUTO = "auto"
_EPS = np.finfo(np.float64).eps


@dataclass
class SolverConfig:
    t_end: float
    dt: float | str = AUTO
    cfl: float = 0.5
    snapshot_every: float | None = None
    dealias: bool = True
    breaking_slope_threshold: float = 100.0
    tail_fraction_threshold: float = 1e-4
    on_breaking: str = "halt"  # or "warn"

    def __post_init__(self):
        # a NaN threshold would compare False everywhere and silently
        # disable its check, so non-finite numbers are refused outright
        for key in ("t_end", "dt", "cfl", "snapshot_every",
                    "breaking_slope_threshold", "tail_fraction_threshold"):
            value = getattr(self, key)
            if isinstance(value, (int, float)) and not np.isfinite(value):
                raise ParameterError(f"{key} must be finite, got {value}")
        if not self.t_end >= 0:
            raise ParameterError(f"t_end must be >= 0, got {self.t_end}")
        if self.dt != AUTO:
            self.dt = float(self.dt)
            if not (np.isfinite(self.dt) and self.dt > 0):
                raise ParameterError(f"dt must be positive or 'auto', got {self.dt}")
        if not (0 < self.cfl <= 1):
            raise ParameterError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.snapshot_every is not None and self.snapshot_every <= 0:
            raise ParameterError("snapshot_every must be positive when given")
        if self.breaking_slope_threshold <= 0 or self.tail_fraction_threshold <= 0:
            raise ParameterError("breaking thresholds must be positive")
        if not (0 < self.tail_fraction_threshold < 1):
            raise ParameterError("tail_fraction_threshold must lie in (0, 1)")
        if self.on_breaking not in ("halt", "warn"):
            raise ParameterError(
                f"on_breaking must be 'halt' or 'warn', got {self.on_breaking!r}"
            )


@dataclass
class SimulationState:
    """A point of a trajectory.  ``u_hat`` is the half spectrum that was
    stepped (see ``StepPlan``), when known; ``u`` holds its grid values."""

    t: float
    u: RealField
    step_count: int = 0
    min_slope_history: list = field(default_factory=list)
    u_hat: np.ndarray | None = None


@dataclass
class BreakingReport:
    t: float
    min_slope: float
    location: float
    tail_fraction: float
    estimated_breaking_time: float | None

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "min_slope": self.min_slope,
            "location": self.location,
            "tail_fraction": self.tail_fraction,
            "estimated_breaking_time": self.estimated_breaking_time,
        }


class Outcome(enum.Enum):
    COMPLETED = "completed"
    BREAKING = "breaking"
    BLOWUP = "blowup"


@dataclass
class SimulationResult:
    state: SimulationState  # last good state
    outcome: Outcome
    dt: float
    breaking: BreakingReport | None = None
    blowup_time: float | None = None
    blowup_stage: int | None = None


# -- the step plan ---------------------------------------------------------

def _checked(arr: np.ndarray, t: float, stage: int) -> np.ndarray:
    # one reduction per stage; the indexed scan runs only when it trips
    # (a finite array whose sum or its modulus overflows passes the scan)
    if not math.isfinite(abs(arr.sum())):
        finite = np.isfinite(arr)
        if not finite.all():
            raise BlowUpError(
                f"non-finite value in stage {stage} at t={t:.6g}",
                index=int(np.argmin(finite)),
                t=t,
                stage=stage,
            )
    return arr


def _checked_update(u_hat: np.ndarray, t: float, stages) -> np.ndarray:
    # 2 sum |u_hat_k| bounds every grid value of a half spectrum; requiring
    # twice that to be finite leaves the inverse transform's partial sums
    # headroom, so the values later built from u_hat are finite too
    # (row by row for a batch: its largest row sum trips exactly when some
    # row's own check would).  Only the update is checked: every stage
    # enters it with a finite nonzero weight, and a NaN or infinity never
    # cancels to a finite number, so a non-finite stage always trips here;
    # the stages are then scanned in order, and the first non-finite one
    # names the error, as a check after each stage would have.
    sums = np.abs(u_hat).sum(axis=-1)
    if not math.isfinite(4.0 * (sums if u_hat.ndim == 1 else sums.max())):
        for stage, k in enumerate(stages, 1):
            _checked(k, t, stage)
        finite = np.isfinite(u_hat)
        raise BlowUpError(
            f"non-finite or overflowing update at t={t:.6g}",
            index=int(np.argmin(finite)) if not finite.all() else None,
            t=t,
            stage=5,
        )
    return u_hat


def _scheme(model: ModelParams) -> str:
    """The scheme that steps ``model``: "ifrk4" for fKdV, whose dispersive
    phase is unbounded in k, "rk4" for the kinds that keep it bounded."""
    return "ifrk4" if model.kind is ModelKind.FKDV else "rk4"


class StepPlan:
    """Everything one run's steps need, built once per (grid, model, dt,
    dealias).

    The state is the half spectrum ``u_hat`` (see ``models.SpectralRHS``),
    kept dealiased by construction when ``dealias`` is set.  For fKdV
    (IFRK4) the linear symbol Lin is left out of ``rhs`` and the factors
    exp(dt/2 Lin) and exp(dt Lin) are precomputed; for the other kinds
    (RK4) ``rhs`` is the whole right-hand side.
    """

    def __init__(self, grid: Grid, model: ModelParams, dt: float, *, dealias: bool = True):
        if not (np.isfinite(dt) and dt > 0):
            raise ParameterError(f"dt must be positive, got {dt}")
        exact_linear = _scheme(model) == "ifrk4"
        self.dt = dt
        self.rhs = make_rhs(grid, model, dealias, linear=not exact_linear)
        if exact_linear:
            self.e_half = np.exp(0.5 * dt * self.rhs.linear_symbol)
            self.e_full = self.e_half * self.e_half
            self._step = ifrk4_step
        else:
            self._step = rk4_step

    def step(self, u_hat: np.ndarray, t: float, k1: np.ndarray | None = None) -> np.ndarray:
        """u_hat one step of dt later; ``k1``, when given, is its stage 1,
        ``rhs(u_hat)``.  Raises ``BlowUpError`` carrying t and the stage
        (1-4, or 5 for the update) at the first non-finite value."""
        return self._step(self, u_hat, t, k1)


def rk4_step(plan: StepPlan, u_hat: np.ndarray, t: float,
             k1: np.ndarray | None = None) -> np.ndarray:
    """One classical Runge-Kutta step of u_hat_t = plan.rhs(u_hat); ``k1``
    is stage 1 when already evaluated."""
    f, dt = plan.rhs, plan.dt
    k1 = f(u_hat) if k1 is None else k1
    k2 = f(u_hat + 0.5 * dt * k1)
    k3 = f(u_hat + 0.5 * dt * k2)
    k4 = f(u_hat + dt * k3)
    new = u_hat + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return _checked_update(new, t, (k1, k2, k3, k4))


def ifrk4_step(plan: StepPlan, u_hat: np.ndarray, t: float,
               k1: np.ndarray | None = None) -> np.ndarray:
    """One integrating-factor RK4 step (Kassam & Trefethen 2005) of
    u_hat_t = Lin u_hat + plan.rhs(u_hat), Lin exact through the plan's
    factors; ``k1`` as for ``rk4_step``."""
    f, dt, e_half, e_full = plan.rhs, plan.dt, plan.e_half, plan.e_full
    k1 = f(u_hat) if k1 is None else k1
    k2 = f(e_half * (u_hat + 0.5 * dt * k1))
    k3 = f(e_half * u_hat + 0.5 * dt * k2)
    k4 = f(e_full * u_hat + dt * e_half * k3)
    new = e_full * u_hat + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return _checked_update(new, t, (k1, k2, k3, k4))


def auto_dt(u: RealField, model: ModelParams, cfl: float) -> float:
    """CFL-style step size: cfl * dx / v_max on the grid of ``u``.

    v_max combines the fastest linear phase speed on the grid with the
    amplitude of u (nonlinear advection).  fKdV is stepped with the
    integrating factor, so its exactly-handled linear symbol is excluded
    and only advection remains.
    """
    grid = u.grid
    if _scheme(model) == "ifrk4":
        v_lin = abs(model.coefficients.c_adv)
    else:
        v_lin = float(np.abs(dispersion_speed(grid.k, model)).max())
    v_max = max(v_lin, float(np.abs(u.values).max()))
    if v_max == 0.0:
        return cfl * grid.spacing
    return cfl * grid.spacing / v_max


# -- breaking detection ---------------------------------------------------

def _slope_stats(grid: Grid, u_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min u_x and where it sits, along the last axis of half spectra (one
    (N/2+1,) or a batch (M, N/2+1)).  A stepped state's min u_x comes from
    its next step's stage 1 (``SpectralRHS.with_slope``) bit for bit; this
    transform serves the start and final states and the location."""
    ux = values_of(grid._ik * u_hat, grid.n_points)
    least, i = first_min(ux)
    return least, grid.x[i]


def _tail_fraction(grid: Grid, u_hat: np.ndarray) -> float:
    weight = sobolev_weight(grid, 0.0)
    tail = np.abs(grid.modes) > grid.n_points // 3 / 2  # past half the kept band
    tail_norm, norm = sobolev_norms(grid, u_hat, np.stack([weight * tail, weight]))
    return float((tail_norm / norm) ** 2) if norm else 0.0


def _fit_breaking_time(history, threshold: float) -> float | None:
    """Extrapolate T from min u_x ~ -C/(T - t): fit -1/min_slope linearly."""
    pts = [(t, m) for t, m in history if m <= -threshold / 4.0]
    if len(pts) < 3:
        return None
    pts = pts[-16:]
    slope, intercept = _fit_line([p[0] for p in pts], [-1.0 / p[1] for p in pts])
    if not -math.inf < slope < 0:  # not finite when the times are too close for doubles
        return None
    return float(-intercept / slope)


def detect_breaking(state: SimulationState, config: SolverConfig) -> BreakingReport | None:
    """Report wave breaking when the slope threshold and the spectral-tail
    resolution guard are both exceeded; otherwise None.  The breaking time
    is fitted to the slope history, with (t, min slope) added unless the
    history already ends at t."""
    grid, u_hat = state.u.grid, _spectrum_of(state)
    min_slope, location = map(float, _slope_stats(grid, u_hat))
    if min_slope > -config.breaking_slope_threshold:
        return None
    tail = _tail_fraction(grid, u_hat)
    if tail <= config.tail_fraction_threshold:
        return None
    history = state.min_slope_history
    if not history or history[-1][0] < state.t:
        history = history + [(state.t, min_slope)]
    return BreakingReport(
        t=state.t,
        min_slope=min_slope,
        location=location,
        tail_fraction=tail,
        estimated_breaking_time=_fit_breaking_time(history, config.breaking_slope_threshold),
    )


# -- driver ---------------------------------------------------------------

def resolve_dt(
    u0: RealField, model: ModelParams, config: SolverConfig, span: float
) -> tuple[float, int]:
    """Pick (dt, n_steps) for a time span.

    Explicit dt is honored exactly (the final step may overshoot t_end by
    less than one dt); AUTO snaps the CFL estimate so the last step lands
    exactly on t_end.  A dt, explicit or auto, below eps * t_end is a
    ``ConfigError`` on the setting it comes from.
    """
    if span <= 0:
        return 0.0, 0
    auto = config.dt == AUTO
    dt = auto_dt(u0, model, config.cfl) if auto else config.dt
    # A step sets t to t + dt, which rounds back to t once dt is below half
    # an ulp of t.  Every t up to t_end advances when dt >= eps * t_end, an
    # ulp of t_end or more; below that the steps might never reach t_end.
    if not dt >= _EPS * config.t_end:
        key = "solver.cfl" if auto else "solver.dt"
        raise ConfigError(
            f"dt = {dt:g} (from {key}) is below eps * t_end = {_EPS * config.t_end:g}, "
            f"where t + dt rounds to t: t_end / dt is not a finite number of steps",
            key=key,
        )
    if auto:
        n = max(1, math.ceil(span / dt - 1e-12))
        return span / n, n
    return dt, max(1, math.ceil(span / dt - 1e-9))


def _spectrum_of(state: SimulationState) -> np.ndarray:
    return state.u_hat if state.u_hat is not None else coeffs_of(state.u.values)


def _start_spectrum(grid: Grid, values: np.ndarray, dealias: bool) -> np.ndarray:
    u_hat = coeffs_of(values)
    if dealias:
        # keep the evolved band clean from the start
        u_hat = grid.dealias_keep * u_hat
    return u_hat


def _snapshot_stride(config: SolverConfig, dt: float) -> int | None:
    # a cadence too long to count in steps leaves the first and last states only
    ratio = config.snapshot_every / dt if config.snapshot_every is not None and dt > 0 else math.inf
    return max(1, int(round(ratio))) if math.isfinite(ratio) else None


def _as_state(start) -> SimulationState:
    return start if isinstance(start, SimulationState) else SimulationState(t=0.0, u=start)


def integrate(start, model: ModelParams, config: SolverConfig, sink=None) -> SimulationResult:
    """Advance the initial-value problem to t_end from ``start``: a field,
    which starts at t = 0, or a ``SimulationState`` (a checkpoint, say).

    ``sink(t, field)`` is called at the snapshot cadence (plus the first
    and last states); it never sees a non-finite field.  Returns a result
    whose outcome is COMPLETED, BREAKING (detector fired and the config
    says halt) or BLOWUP (non-finite value appeared; the state in the
    result is the last good one).

    This is the one-row call of ``integrate_batch``.  A start state's
    stored spectrum is stepped as is, so a resumed trajectory is
    bit-identical to an uninterrupted one when dt is explicit; a state
    without one steps like its field started fresh.
    """
    start = _as_state(start)
    row_sink = None
    if sink is not None:
        def row_sink(t, rows, values):
            sink(t, RealField(start.u.grid, values[0]))
    return integrate_batch([start], model, config, row_sink)[0]


def integrate_batch(starts, model: ModelParams, config: SolverConfig, sink=None) -> list:
    """Advance the initial-value problems of ``starts``, all on one grid,
    together as one (M, N/2+1) array program; returns one
    ``SimulationResult`` per row.

    A start is a field, at t = 0, or a ``SimulationState``; the rows share
    one start time, and a start without a stored spectrum steps like a
    fresh field.  Each row's result (outcome, state, slope history,
    breaking report, blow-up time and stage) is bit-identical to that
    row's own run, and so are its snapshots: ``sink(t, rows, values)``
    gets the indices of the rows due a snapshot at t and their grid
    values, shape (len(rows), N).  The rows must resolve to one dt, so
    with ``dt: auto`` they need equal max|u|.

    Every step goes through one ``StepPlan``; grid values are synthesized
    only for the sink, a breaking report and the returned states.  Each
    step evaluates its stage 1 first, which also gives the state's min
    slope; the state's slope history, breaking check and snapshot then
    come before the rest of the step, so a state is reported before any
    blow-up of its step (only the final state, which no step follows,
    transforms for its slope).  A step that raises ``BlowUpError`` is taken
    again row by row, which freezes each failing row with its own t and
    stage while the others go on; a row whose slope crosses the threshold
    goes through ``detect_breaking`` alone until it reports, and halts
    alone.
    """
    if not starts:
        raise ParameterError("integrate_batch needs at least one row")
    # each row appends to its own copy of the start's slope history, so
    # the start state can be resumed from again; a stored spectrum is
    # stepped as is, so a resume is bit-exact
    starts = [replace(s, min_slope_history=list(s.min_slope_history))
              for s in map(_as_state, starts)]
    grid = starts[0].u.grid
    if any(s.u.grid != grid or s.t != starts[0].t for s in starts):
        raise ParameterError("batched rows must share one grid and one start time")
    for s in starts:
        if s.u_hat is None:
            s.u_hat = _start_spectrum(grid, s.u.values, config.dealias)
            s.u = RealField(grid, values_of(s.u_hat, grid.n_points))
    u_hat = np.stack([s.u_hat for s in starts])
    n, t = grid.n_points, starts[0].t
    steps = {resolve_dt(s.u, model, config, config.t_end - t) for s in starts}
    if len(steps) > 1:
        raise ParameterError("batched rows resolve to different time steps; set dt")
    ((dt, n_steps),) = steps
    plan = StepPlan(grid, model, dt, dealias=config.dealias) if n_steps else None
    stride = _snapshot_stride(config, dt)
    # snapshots fall on the trajectory's own step grid, so a resumed run
    # takes them at the times of the straight run
    step0 = starts[0].step_count

    histories = [s.min_slope_history for s in starts]
    for history, slope in zip(histories, _slope_stats(grid, u_hat)[0].tolist()):
        if not history or history[-1][0] < t:
            history.append((t, slope))
    if sink is not None:
        sink(t, np.arange(len(starts)), np.stack([s.u.values for s in starts]))

    live = list(range(len(starts)))  # row of each line of u_hat
    results: list = [None] * len(starts)
    breaking: list = [None] * len(starts)
    done = 0

    def current(k: int) -> SimulationState:
        start = starts[live[k]]
        if not done:
            return start
        return SimulationState(t=t, u=RealField(grid, values_of(u_hat[k], n)),
                               step_count=start.step_count + done,
                               min_slope_history=histories[live[k]], u_hat=u_hat[k])

    def keep(lines) -> None:
        nonlocal u_hat, live
        if len(lines) < len(live):
            u_hat, live = u_hat[lines], [live[k] for k in lines]

    def settle(slopes, due: bool) -> list:
        """Slope history, breaking check and snapshot of the state after
        ``done`` steps, given each live row's min slope; returns the lines
        that go on."""
        halted = {}  # line -> its BREAKING result
        for k, (row, slope) in enumerate(zip(live, slopes)):
            histories[row].append((t, slope))
            if slope <= -config.breaking_slope_threshold and breaking[row] is None:
                state = current(k)
                report = detect_breaking(state, config)
                if report is not None:
                    breaking[row] = report
                    if config.on_breaking == "halt":
                        halted[k] = SimulationResult(
                            state=state, outcome=Outcome.BREAKING, dt=dt, breaking=report
                        )
        # a halting row gets its last snapshot whether or not one is due
        if sink is not None and (due or halted):
            lines = np.arange(len(live)) if due else np.fromiter(halted, int)
            sink(t, np.asarray(live)[lines], values_of(u_hat[lines], n))
        for k, result in halted.items():
            results[live[k]] = result
        return [k for k in range(len(live)) if k not in halted]

    for i in range(n_steps):
        # stage 1 also gives the state's min slope: the state is settled
        # before its step is checked, so its report, halt and snapshot come
        # before any blow-up of that step.  A lone row steps without the
        # batch axis: the same numbers at less per-call cost.
        if len(live) == 1:
            k1, slope = plan.rhs.with_slope(u_hat[0])
            k1, slopes = k1[None], [slope.tolist()]
        else:
            k1, slopes = plan.rhs.with_slope(u_hat)
            slopes = slopes.tolist()
        if i:
            lines = settle(slopes, stride is not None and (step0 + i) % stride == 0)
            if len(lines) < len(live):
                keep(lines)
                if not live:
                    break
                k1 = k1[lines]
        try:
            if len(live) == 1:
                new_hat = plan.step(u_hat[0], t, k1[0])[None]
            else:
                new_hat = plan.step(u_hat, t, k1)
        except BlowUpError:
            stepped = []
            for k, row in enumerate(live):
                try:
                    stepped.append((k, plan.step(u_hat[k], t, k1[k])))
                except BlowUpError as err:
                    results[row] = SimulationResult(
                        state=current(k), outcome=Outcome.BLOWUP, dt=dt,
                        breaking=breaking[row], blowup_time=err.t, blowup_stage=err.stage,
                    )
            keep([k for k, _ in stepped])
            if not live:
                break
            new_hat = np.stack([h for _, h in stepped])
        u_hat, t, done = new_hat, t + dt, done + 1
    if live and n_steps:  # the final state: no stage 1 follows it
        keep(settle(_slope_stats(grid, u_hat)[0].tolist(), True))
    for k, row in enumerate(live):
        results[row] = SimulationResult(
            state=current(k), outcome=Outcome.COMPLETED, dt=dt, breaking=breaking[row]
        )
    return results


# -- checkpointing --------------------------------------------------------
#
# Fixed binary layout, little-endian throughout:
#   magic "FWCK" | version u32 | N u32 | pad u32 | L f64 | t f64
#   | step_count u64 | n_history u64 | history (t, min_slope) f64 pairs
#   | u values N x f64 | u_hat (N/2 + 1) x c128 | crc32 u32 of everything
#   before it
#
# Version 2 added u_hat, the stepped half spectrum: resuming from it keeps
# the trajectory bit-identical.  Version 1 files are refused.  Only a state
# that carries its stepped spectrum is written, and a file holding a
# non-finite number is refused on reading.

_MAGIC = b"FWCK"
_VERSION = 2
_HEADER = struct.Struct("<4sIIIddQQ")


def checkpoint_write(state: SimulationState, path) -> None:
    if state.u_hat is None:
        # the transform of the values is not what a run steps (that is
        # dealiased first), so a resume from it would leave the trajectory
        raise ParameterError("a checkpoint needs the state's stepped spectrum u_hat")
    grid = state.u.grid
    hist = np.asarray(state.min_slope_history, dtype=np.float64).reshape(-1, 2)
    payload = _HEADER.pack(
        _MAGIC,
        _VERSION,
        grid.n_points,
        0,
        grid.length,
        state.t,
        state.step_count,
        hist.shape[0],
    )
    payload += hist.astype("<f8").tobytes()
    payload += state.u.values.astype("<f8").tobytes()
    payload += state.u_hat.astype("<c16").tobytes()
    payload += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    write_atomic(path, payload)


def checkpoint_read(path) -> SimulationState:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err.strerror}") from None
    if len(blob) < _HEADER.size + 4:
        raise CheckpointError(f"checkpoint {path} is truncated ({len(blob)} bytes)")
    body, (crc_stored,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"checkpoint {path} failed its CRC32 check")
    magic, version, n, _pad, length, t, step_count, n_hist = _HEADER.unpack_from(body)
    if magic != _MAGIC:
        raise CheckpointError(f"checkpoint {path} has bad magic {magic!r}")
    if version != _VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, expected {_VERSION}"
        )
    half = n // 2 + 1
    expected = _HEADER.size + 8 * (2 * n_hist + n) + 16 * half
    if len(body) != expected:
        raise CheckpointError(
            f"checkpoint {path} has {len(body)} payload bytes, expected {expected}"
        )
    offset = _HEADER.size
    hist = np.frombuffer(body, dtype="<f8", count=2 * n_hist, offset=offset)
    offset += 16 * n_hist
    values = np.frombuffer(body, dtype="<f8", count=n, offset=offset)
    offset += 8 * n
    u_hat = np.frombuffer(body, dtype="<c16", count=half, offset=offset).astype(np.complex128)
    for what, numbers in (("t", t), ("slope history", hist), ("values", values),
                          ("spectrum", u_hat)):
        if not np.isfinite(numbers).all():
            raise CheckpointError(f"checkpoint {path} holds a non-finite number in its {what}")
    grid = Grid(length=length, n_points=n)
    history = [(float(a), float(b)) for a, b in hist.reshape(-1, 2)]
    return SimulationState(
        t=t,
        u=RealField(grid, values),
        step_count=step_count,
        min_slope_history=history,
        u_hat=u_hat,
    )

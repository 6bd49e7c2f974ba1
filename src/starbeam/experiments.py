"""Experiment driver: convergence traces, parameter sweeps and
phase-difference trajectories, all emitted as CSV files with fixed headers;
the per-epoch timing probe of acceptance criterion 10; and the gradient
cross-check behind ``starbeam grad-check``.

Every experiment kind solves each (scheme, grid point, channel sample) cell
once through run_scheme, and records its rate and wall-clock seconds; a
sweep_mn experiment thus also gives each scheme's runtime against (M, N).

Determinism: a master seed and the cell coordinates (scheme, grid index,
sample index) fully determine every value but the seconds. Channels are
keyed by (grid index, sample index) only, so schemes are compared on
identical channel draws.
"""
from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import conventional_ris_baseline, pga_oracle, random_phase_baseline
from .channels import ChannelConfig, desk_scenario, default_scenario, generate_channels
from .constraints import normalize_amplitudes, normalize_power
from .errors import ConfigurationError, Kind, check_fields, is_int, is_real
from .gradients import GradientBundle, wsr_finite_diff, wsr_gradients
from .model import BeamformingState, ChannelSet, SystemConfig
from .training import (
    MODE_COUPLED,
    MODE_INDEPENDENT,
    Solution,
    TrainConfig,
    run_gml,
)

SCHEME_GML_INDEPENDENT = "gml_independent"
SCHEME_GML_COUPLED = "gml_coupled"
SCHEME_RANDOM_PHASE = "random_phase"
SCHEME_CONVENTIONAL_RIS = "conventional_ris"
SCHEME_PGA_ORACLE = "pga_oracle"
# The training mode each scheme runs in: run_scheme sets it on the
# TrainConfig it is handed, whatever that config's mode.
SCHEME_MODE = {
    SCHEME_GML_INDEPENDENT: MODE_INDEPENDENT,
    SCHEME_GML_COUPLED: MODE_COUPLED,
    SCHEME_RANDOM_PHASE: MODE_INDEPENDENT,
    SCHEME_CONVENTIONAL_RIS: MODE_INDEPENDENT,
    SCHEME_PGA_ORACLE: MODE_INDEPENDENT,
}
SCHEMES = tuple(SCHEME_MODE)

KIND_CONVERGENCE = "convergence"
KIND_SWEEP_N = "sweep_n"
KIND_SWEEP_PMAX = "sweep_pmax"
KIND_SWEEP_MN = "sweep_mn"
KIND_PHASE_TRACE = "phase_trace"
KINDS = (
    KIND_CONVERGENCE,
    KIND_SWEEP_N,
    KIND_SWEEP_PMAX,
    KIND_SWEEP_MN,
    KIND_PHASE_TRACE,
)
_ONE_POINT_KINDS = (KIND_CONVERGENCE, KIND_PHASE_TRACE)

CONVERGENCE_HEADER = ["epoch", "wsr_best", "wsr_current", "penalty", "rho"]
SWEEP_HEADER = ["scheme", "grid_value", "sample", "wsr_final", "seconds"]

def desk_train(mode: str = MODE_INDEPENDENT, seed: int = 0,
               n_epochs: int = 300) -> TrainConfig:
    """Desk-scale training profile.

    Differences from the full-scale defaults: 300 epochs, the phase
    network updates every epoch, and the penalty curriculum spans
    0.3 -> 3000. At this scale the full-scale cadence (updates every 5
    epochs) leaves the phase network too few steps to lock all elements
    onto the coupled set, and the full-scale penalty endpoints cross over
    the rate term too late.
    """
    return TrainConfig(
        n_epochs=n_epochs,
        n2=1,
        mode=mode,
        rho_min=0.3,
        rho_max=3000.0,
        seed=seed,
    )


def paper_train(mode: str = MODE_INDEPENDENT, seed: int = 0) -> TrainConfig:
    """Full-scale training profile (the published operating point)."""
    return TrainConfig(mode=mode, seed=seed)


def _grid_point(kind: str, value) -> tuple[dict, object]:
    """The SystemConfig fields one grid value sets, and its label in the
    CSVs: N for sweep_n, p_max in watts for sweep_pmax, M and N for
    sweep_mn (label "MxN"), none for the one-point kinds (label 0). A
    value its kind cannot solve raises ConfigurationError naming grid."""
    if kind in _ONE_POINT_KINDS:
        return {}, 0
    if kind == KIND_SWEEP_N:
        if is_int(value):
            return {"N": int(value)}, value
        what = "an element count N, an integer >= 1"
    elif kind == KIND_SWEEP_PMAX:
        if is_real(value) and value > 0:
            return {"p_max": float(value)}, value
        what = "a transmit power p_max in watts, finite and > 0"
    else:
        if isinstance(value, tuple) and len(value) == 2 and all(map(is_int, value)):
            return {"M": int(value[0]), "N": int(value[1])}, f"{value[0]}x{value[1]}"
        what = "an (M, N) pair of integers >= 1"
    raise ConfigurationError(
        f"each grid value of a {kind} experiment must be {what}; got {value!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: which schemes, over which grid, how many channel
    samples per grid point, where to write CSVs (out_dir "" is the working
    directory). Every field is checked when the spec is built; an invalid
    one raises ConfigurationError naming it.

    Every kind reads every field but grid: sweep_n takes element counts N,
    sweep_pmax transmit powers in watts, sweep_mn (M, N) pairs; convergence
    and phase_trace solve one point and take no grid. phase_trace rejects
    pga_oracle, which records no phase trace.
    """

    kind: str
    schemes: tuple[str, ...] = (SCHEME_GML_INDEPENDENT,)
    grid: tuple = (None,)
    sample_count: int = 20
    out_dir: str = "results"
    master_seed: int = 0
    desk_scale: bool = True
    n_epochs: int | None = None  # None -> 300 desk, 500 paper

    # the kind of each field; which grid values a kind takes is checked
    # by _grid_point
    FIELD_KINDS = {
        "kind": Kind.choice(*KINDS), "schemes": Kind.choice(*SCHEMES).listed(),
        "grid": Kind.LIST, "sample_count": Kind.COUNT, "out_dir": Kind.TEXT,
        "master_seed": Kind.SEED, "desk_scale": Kind.FLAG,
        "n_epochs": Kind.COUNT.or_none(),
    }

    def __post_init__(self) -> None:
        check_fields(self, self.FIELD_KINDS)
        # lists (as read from JSON) become tuples, (M, N) grid pairs included
        if self.kind == KIND_SWEEP_MN:
            object.__setattr__(self, "grid", tuple(
                tuple(g) if isinstance(g, (list, np.ndarray)) else g
                for g in self.grid))
        if self.kind == KIND_PHASE_TRACE and SCHEME_PGA_ORACLE in self.schemes:
            raise ConfigurationError(
                f"schemes of a phase_trace experiment cannot include "
                f"{SCHEME_PGA_ORACLE}, which records no phase trace")
        if self.kind in _ONE_POINT_KINDS:
            if len(self.grid) != 1 or self.grid[0] is not None:
                raise ConfigurationError(
                    f"grid must be left unset for kind '{self.kind}', which "
                    f"solves one point; got {self.grid!r}")
        elif not self.grid:
            raise ConfigurationError(f"grid of a {self.kind} experiment must be non-empty")
        for value in self.grid:
            _grid_point(self.kind, value)


@dataclass
class CellRecord:
    """Result of one (scheme, grid point, sample) cell."""

    scheme: str
    grid_value: object
    sample: int
    wsr_final: float
    seconds: float
    error: str | None = None


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    records: list[CellRecord] = field(default_factory=list)
    csv_paths: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        """The error of each failed cell, in record order."""
        return [r.error for r in self.records if r.error is not None]


@dataclass
class TimingResult:
    median_s_per_epoch: float


@dataclass
class GradCheckReport:
    n_instances: int
    max_rel_err: float
    max_abs_err_small: float
    passed: bool


def _derive_seed(master: int, *tags: int) -> int:
    seq = np.random.SeedSequence([master, *tags])
    return int(seq.generate_state(1)[0])


_SCHEME_TAG = {name: i + 1 for i, name in enumerate(SCHEMES)}
_CHANNEL_TAG = 0


def scale_configs(
    paper_scale: bool, n_epochs: int | None = None,
) -> tuple[SystemConfig, ChannelConfig, TrainConfig]:
    """The configs of the published scale (default_scenario, paper_train)
    or the desk scale (desk_scenario, desk_train), independent mode, seed
    0. n_epochs replaces the epoch count; None keeps the scale's."""
    if paper_scale:
        sys_cfg, ch_cfg = default_scenario()
        train = paper_train()
    else:
        sys_cfg, ch_cfg = desk_scenario()
        train = desk_train()
    if n_epochs is not None:
        train = replace(train, n_epochs=n_epochs)
    return sys_cfg, ch_cfg, train


def run_scheme(
    scheme: str,
    sys_cfg: SystemConfig,
    ch: ChannelSet,
    train: TrainConfig,
) -> Solution:
    """Dispatch one scheme on one prepared instance, in the scheme's own
    training mode (SCHEME_MODE), which replaces train.mode; the other
    fields of train apply as given."""
    Kind.choice(*SCHEMES).check("scheme", scheme)
    train = replace(train, mode=SCHEME_MODE[scheme])
    if scheme == SCHEME_RANDOM_PHASE:
        return random_phase_baseline(sys_cfg, ch, train)
    if scheme == SCHEME_CONVENTIONAL_RIS:
        return conventional_ris_baseline(sys_cfg, ch, train)
    if scheme == SCHEME_PGA_ORACLE:
        return pga_oracle(sys_cfg, ch, steps=train.n_epochs, seed=train.seed)
    return run_gml(sys_cfg, ch, train)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute every (scheme, grid point, sample) cell and write CSVs.

    Per-cell failures are recorded, not fatal; callers should treat a
    non-empty failure list as a nonzero-exit condition.
    """
    os.makedirs(spec.out_dir or os.curdir, exist_ok=True)
    report = ExperimentReport(spec)
    base_sys, ch_cfg, base_train = scale_configs(
        not spec.desk_scale, spec.n_epochs
    )

    for gi, gval in enumerate(spec.grid):
        fields, label = _grid_point(spec.kind, gval)
        sys_cfg = replace(base_sys, **fields)
        for sample in range(spec.sample_count):
            ch_rng = np.random.default_rng(
                _derive_seed(spec.master_seed, _CHANNEL_TAG, gi, sample)
            )
            ch = generate_channels(sys_cfg, ch_cfg, ch_rng)
            for scheme in spec.schemes:
                train = replace(base_train, seed=_derive_seed(
                    spec.master_seed, _SCHEME_TAG[scheme], gi, sample))
                started = time.perf_counter()
                try:
                    sol = run_scheme(scheme, sys_cfg, ch, train)
                except Exception as err:  # recorded, not fatal
                    report.records.append(CellRecord(
                        scheme, label, sample, float("nan"),
                        time.perf_counter() - started,
                        error=f"{scheme}/grid={label}/sample={sample}: {err}",
                    ))
                    continue
                report.records.append(CellRecord(
                    scheme=scheme,
                    grid_value=label,
                    sample=sample,
                    wsr_final=sol.wsr_opt,
                    seconds=time.perf_counter() - started,
                ))
                if spec.kind == KIND_CONVERGENCE:
                    path = os.path.join(spec.out_dir,
                                        f"convergence_{scheme}_s{sample}.csv")
                    write_convergence_csv(path, sol.traces)
                    report.csv_paths.append(path)
                if spec.kind == KIND_PHASE_TRACE:
                    _write_phase_trace_csv(report, spec, scheme, sample,
                                           sol.traces["phase_diff"])

    _write_sweep_csv(report, spec)
    if spec.kind in (KIND_SWEEP_N, KIND_SWEEP_PMAX, KIND_SWEEP_MN):
        _write_aggregate_csv(report, spec)
    return report


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_convergence_csv(path: str, traces: dict[str, np.ndarray]) -> None:
    """One row per epoch: the epoch index and the traces named in
    CONVERGENCE_HEADER, printed with repr (lossless)."""
    rows = [[e] + [repr(float(traces[key][e])) for key in CONVERGENCE_HEADER[1:]]
            for e in range(len(traces["wsr_best"]))]
    _write_csv(path, CONVERGENCE_HEADER, rows)


def _write_phase_trace_csv(report, spec, scheme, sample, trace: np.ndarray) -> None:
    n = trace.shape[1]
    header = ["epoch"] + [f"elem_{i}" for i in range(n)]
    rows = [[e] + [repr(float(v)) for v in trace[e]] for e in range(trace.shape[0])]
    path = os.path.join(spec.out_dir, f"phase_trace_{scheme}_s{sample}.csv")
    _write_csv(path, header, rows)
    report.csv_paths.append(path)


def _write_sweep_csv(report: ExperimentReport, spec: ExperimentSpec) -> None:
    name = "summary.csv" if spec.kind == KIND_CONVERGENCE else f"{spec.kind}.csv"
    rows = [
        [r.scheme, r.grid_value, r.sample, repr(float(r.wsr_final)),
         repr(float(r.seconds))]
        for r in report.records
    ]
    path = os.path.join(spec.out_dir, name)
    _write_csv(path, SWEEP_HEADER, rows)
    report.csv_paths.append(path)


def _write_aggregate_csv(report: ExperimentReport, spec: ExperimentSpec) -> None:
    groups: dict[tuple, list[float]] = {}
    for r in report.records:
        if r.error is None:
            groups.setdefault((r.scheme, r.grid_value), []).append(r.wsr_final)
    rows = []
    for (scheme, gval), vals in groups.items():
        arr = np.asarray(vals)
        rows.append([scheme, gval, len(arr), repr(float(arr.mean())),
                     repr(float(arr.std(ddof=0)))])
    path = os.path.join(spec.out_dir, f"{spec.kind}_aggregate.csv")
    _write_csv(path, ["scheme", "grid_value", "n", "wsr_mean", "wsr_std"], rows)
    report.csv_paths.append(path)


# --- timing ----------------------------------------------------------------


def timing_probe(sys_cfg: SystemConfig, train: TrainConfig,
                 repetitions: int = 5) -> TimingResult:
    """Median wall-clock seconds per epoch of run_gml over timed
    repetitions, after one discarded warm-up run, on ChannelConfig()
    channels drawn from train.seed."""
    if not is_int(repetitions, 3):
        raise ConfigurationError(
            f"repetitions must be >= 3 and an integer; got {repetitions!r}")
    ch = generate_channels(sys_cfg, ChannelConfig(), np.random.default_rng(train.seed))
    run_gml(sys_cfg, ch, train)  # warm-up, excluded
    per_epoch = []
    for _ in range(repetitions):
        started = time.perf_counter()
        run_gml(sys_cfg, ch, train)
        per_epoch.append((time.perf_counter() - started) / train.n_epochs)
    return TimingResult(float(np.median(per_epoch)))


# --- gradient cross-check ---------------------------------------------------


def random_gradient_instance(
    seed: int,
) -> tuple[SystemConfig, ChannelSet, BeamformingState]:
    """Unit-scale random instance (M <= 8, N <= 16, K <= 4) for the
    finite-difference cross-check; the noise floor is matched to the mean
    receive power so the SINRs are O(1) and the comparison is well
    conditioned. After the sizes and weights, one standard-normal draw
    gives the real and imaginary parts of G, h and W, one uniform draw the
    amplitudes and one the phases, (t half, r half) each: the stream of
    drawing each block alone, in that order."""
    Kind.SEED.check("seed", seed)
    r = np.random.default_rng(seed)
    m = int(r.integers(2, 9))
    n = int(r.integers(2, 17))
    k = int(r.integers(1, 5))
    cfg = SystemConfig(M=m, N=n, K=k, p_max=float(k), noise_power=m * n / 2.0,
                       weights=r.uniform(0.5, 2.0, k))
    z = r.standard_normal(2 * (n * m + k * n + m * k))
    g = z[: 2 * n * m].reshape(2, n, m)
    h = z[2 * n * m : 2 * (n * m + k * n)].reshape(2, k, n)
    w = z[2 * (n * m + k * n) :].reshape(2, m, k)
    ch = ChannelSet((g[0] + 1j * g[1]) / np.sqrt(2), (h[0] + 1j * h[1]) / np.sqrt(2))
    W = normalize_power(w[0] + 1j * w[1], cfg.p_max)
    bt, br = normalize_amplitudes(*r.uniform(0.3, 1.0, (2, n)))
    state = BeamformingState(W, bt, br, *r.uniform(0, 2 * np.pi, (2, n)))
    return cfg, ch, state


def gradient_errors(
    analytic: GradientBundle, reference: GradientBundle,
) -> tuple[float, float]:
    """(max relative error, max absolute error on small coordinates);
    coordinates with |reference| < GRAD_CHECK_SMALL_CUT are compared
    absolutely."""
    a = np.concatenate([
        analytic.grad_w.real.ravel(), analytic.grad_w.imag.ravel(),
        analytic.grad_beta, analytic.grad_theta,
    ])
    f = np.concatenate([
        reference.grad_w.real.ravel(), reference.grad_w.imag.ravel(),
        reference.grad_beta, reference.grad_theta,
    ])
    small = np.abs(f) < GRAD_CHECK_SMALL_CUT
    err = np.abs(a - f)
    max_rel = float(np.max(err[~small] / np.abs(f[~small]), initial=0.0))
    return max_rel, float(np.max(err[small], initial=0.0))


# The cross-check runs central differences at 1e-4 rather than the 1e-6
# library default: for these unit-scale objectives 1e-4 balances roundoff
# against truncation, while at 1e-6 the roundoff floor alone exceeds the
# tolerance on the smallest gradient coordinates. A coordinate whose
# reference is below GRAD_CHECK_SMALL_CUT is compared absolutely.
GRAD_CHECK_STEP = 1e-4
GRAD_CHECK_SMALL_CUT = 1e-10
GRAD_CHECK_REL_TOL = 1e-6
GRAD_CHECK_ABS_TOL = 1e-9
GRAD_CHECK_INSTANCES = 50
GRAD_CHECK_SEED_BASE = 1000


def grad_check_command(
    n_instances: int = GRAD_CHECK_INSTANCES,
    seed_base: int = GRAD_CHECK_SEED_BASE,
    verbose: bool = True,
) -> GradCheckReport:
    """Run the analytic-vs-central-difference suite; passes when every
    instance meets max relative error < GRAD_CHECK_REL_TOL (absolute <
    GRAD_CHECK_ABS_TOL on the small coordinates). A check over no instance
    would pass without checking anything, so n_instances must be >= 1;
    instance i draws from seed seed_base + i, so seed_base must be >= 0."""
    Kind.COUNT.check("n_instances", n_instances)
    Kind.SEED.check("seed_base", seed_base)
    Kind.FLAG.check("verbose", verbose)
    worst_rel = 0.0
    worst_abs = 0.0
    for i in range(n_instances):
        cfg, ch, state = random_gradient_instance(seed_base + i)
        analytic = wsr_gradients(cfg, ch, state)
        fd = wsr_finite_diff(cfg, ch, state, GRAD_CHECK_STEP)
        rel, ab = gradient_errors(analytic, fd)
        worst_rel = max(worst_rel, rel)
        worst_abs = max(worst_abs, ab)
    report = GradCheckReport(
        n_instances=n_instances,
        max_rel_err=worst_rel,
        max_abs_err_small=worst_abs,
        passed=worst_rel < GRAD_CHECK_REL_TOL and worst_abs < GRAD_CHECK_ABS_TOL,
    )
    if verbose:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"[{status}] gradient cross-check over {n_instances} instances: "
            f"max rel err {worst_rel:.3e} (tol {GRAD_CHECK_REL_TOL:g}), "
            f"max abs err on small coords {worst_abs:.3e} (tol {GRAD_CHECK_ABS_TOL:g})"
        )
    return report


def sign_test_p_value(wins: int, n: int) -> float:
    """One-sided sign test: probability of >= wins successes out of n
    fair coin flips, for integers 0 <= wins <= n."""
    Kind.SEED.check("n", n)
    if not (is_int(wins, 0) and wins <= n):
        raise ConfigurationError(f"wins must be an integer in [0, n]; got {wins!r}")
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0**n

"""The benchmark's three workloads.

Each workload has a fixed list of operations ("ops") that one *pass* runs,
one op at a time. The inputs come only from the workload seed. ``setup``
is what a user waits for before the first op (import, scenario, input
draws); ``run_pass`` runs the op list and returns one ``Outcome`` per op;
``check`` verifies one op's output. Every op of a pass is repeatable, so
later passes are compared bitwise with the first.

Why these workloads (see README.md for the layer -> metric mapping):

* desk_battery -- the shape of the Tier-1 acceptance battery and of every
  sweep: tiny matrices, so Python dispatch, the gradient bundle, Adam and
  PGA's line search dominate. Batching draws should show here.
* paper_solve -- paper scale, where the 120.5k-parameter AN and TN make
  Adam and MLP backward dominate. Nothing to batch.
* gradcheck -- pure SINR / WSR evaluation and finite differences, no
  networks: model and gradient changes show here, network changes must not.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import partial

POWER_REL_TOL = 1e-9
AMPLITUDE_TOL = 1e-12
COUPLED_TOL = 1e-9  # residual threshold of Solution.feasible_coupled
WSR_REL_TOL = 1e-12  # reported rate vs the rate re-evaluated at the state
GRAD_REL_TOL = 1e-6
GRAD_ABS_TOL = 1e-9


@dataclass
class Outcome:
    """One op: what ran, how long it took, and what it returned."""

    label: str
    seconds: float
    output: object = None
    error: str | None = None
    call: partial | None = None  # repeats the op
    errors: list[str] = field(default_factory=list)
    refs: tuple[float, ...] = ()  # reference probes just before and after

    @property
    def speed(self) -> float:
        """Machine speed around the op."""
        return speed(self.refs)


def speed(refs) -> float:
    """Machine speed from reference probe times: nominal over their mean."""
    return REF_NOMINAL_S * len(refs) / sum(refs)


# The nominal time of one reference probe: op times are scaled to a
# machine on which a probe takes this long. An idle core of a 2-vCPU Xeon
# VM takes about 180 us; while the sibling hyperthread is busy, up to 2x
# longer.
REF_NOMINAL_S = 180e-6
_REF = {}


def reference_probe() -> float:
    """Time a fixed piece of work that does not touch the program: small
    complex products and reductions driven from Python, the mix that
    dominates the ops. Ops are timed between two probes, so a phase in
    which the shared host runs this process slower (another tenant on the
    sibling hyperthread) slows the probes alike and is divided out."""
    import numpy as np

    if not _REF:
        r = np.random.default_rng(0)
        _REF["a"] = r.standard_normal((8, 8)) + 1j * r.standard_normal((8, 8))
        _REF["x"] = r.standard_normal(8) + 1j * r.standard_normal(8)
    a, x = _REF["a"], _REF["x"]
    t0 = time.perf_counter()
    for _ in range(60):
        y = a @ x
        x = y / math.sqrt(float(np.vdot(y, y).real))
    return time.perf_counter() - t0


PROBING = True  # off in traced passes


def run_op(label: str, fn, *args, **kwargs) -> Outcome:
    """Run one op between two reference probes and time it."""
    refs = (reference_probe(),) if PROBING else ()
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as err:
        return Outcome(label, time.perf_counter() - t0, error=repr(err), refs=refs)
    seconds = time.perf_counter() - t0
    if PROBING:
        refs += (reference_probe(),)
    return Outcome(label, seconds, out, call=partial(fn, *args, **kwargs), refs=refs)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if hasattr(p, "tobytes") else repr(p).encode())
    return h.hexdigest()


def _seed_int(*tags: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(list(tags)).generate_state(1)[0])


def check_solution(sys_cfg, ch, sol, coupled: bool) -> list[str]:
    """Output checks of one solve: finite rate, power and amplitude
    feasibility, the rate re-evaluated at the returned state, and the
    coupled-phase constraint on coupled solves."""
    import numpy as np
    from starbeam import model
    from starbeam.constraints import coupling_residual

    errors = []
    n = sys_cfg.N
    if not math.isfinite(sol.wsr_opt):
        return [f"non-finite WSR {sol.wsr_opt}"]
    power = float(np.vdot(sol.W_opt, sol.W_opt).real)
    power_err = abs(power - sys_cfg.p_max) / sys_cfg.p_max
    if not power_err < POWER_REL_TOL:
        errors.append(f"power relative error {power_err:.3e}")
    bt, br = sol.beta_opt[:n], sol.beta_opt[n:]
    amp_err = float(np.max(np.abs(bt**2 + br**2 - 1.0)))
    if not amp_err < AMPLITUDE_TOL:
        errors.append(f"amplitude error {amp_err:.3e}")
    state = model.BeamformingState(sol.W_opt, bt, br, sol.theta_opt[:n], sol.theta_opt[n:])
    rate = model.evaluate_wsr(sys_cfg, ch, state)
    if not abs(rate - sol.wsr_opt) <= WSR_REL_TOL * abs(rate):
        errors.append(f"reported WSR {sol.wsr_opt!r} but the state gives {rate!r}")
    if coupled:
        residual = float(np.max(coupling_residual(sol.theta_opt[:n], sol.theta_opt[n:])))
        if not (sol.feasible_coupled and residual < COUPLED_TOL):
            errors.append(
                f"coupled solve infeasible: feasible_coupled={sol.feasible_coupled}, "
                f"residual {residual:.3e}"
            )
    return errors


def solution_digest(sol) -> str:
    return _digest(sol.W_opt, sol.beta_opt, sol.theta_opt, sol.wsr_opt,
                   sol.residual_pre_projection, sol.feasible_coupled)


def solve_quality(outcomes, mode_of) -> dict:
    """Mean reported WSR per mode and the largest coupled pre-projection
    residual (criterion 5's quantity; reported, never filtered)."""
    ind = [o.output.wsr_opt for o in outcomes if o.output is not None and mode_of(o) == "independent"]
    cpl = [o.output for o in outcomes if o.output is not None and mode_of(o) == "coupled"]
    return {
        "wsr_ind_mean": (sum(ind) / len(ind) if ind else float("nan"), "bit/s/Hz"),
        "wsr_cpl_mean": (sum(s.wsr_opt for s in cpl) / len(cpl) if cpl else float("nan"),
                         "bit/s/Hz"),
        "cpl_residual_max": (max((s.residual_pre_projection for s in cpl), default=float("nan")),
                             "1"),
    }


class Workload:
    """Defaults shared by the workloads."""

    name = ""

    def pass_checks(self, outcomes: list[Outcome]) -> None:
        """Checks on a whole pass, appended to the ops' errors."""

    def close(self) -> None:
        """Remove what the workload wrote."""


class DeskBattery(Workload):
    """run_experiment over draws x {gml_independent, gml_coupled,
    pga_oracle} at desk scale; one op is one experiment cell.

    random_phase is left out: it runs a strict subset of
    gml_independent's path. Three groups of equal size keep the median op
    inside one group. The channels are drawn inside run_experiment, so
    they count in wall_s, not in setup_s.
    """

    name = "desk_battery"
    SCHEMES = ("gml_independent", "gml_coupled", "pga_oracle")

    def __init__(self, seed: int, out_dir: str, draws: int = 3, epochs: int = 300):
        self.seed, self.out_dir, self.draws, self.epochs = seed, out_dir, draws, epochs
        self._tmp = None
        self._cells: list[Outcome] = []

    def setup(self) -> None:
        from starbeam import ExperimentSpec, desk_scenario

        self.sys_cfg, _ = desk_scenario()
        self.spec = ExperimentSpec(
            kind="sweep_n", schemes=self.SCHEMES, grid=(self.sys_cfg.N,),
            sample_count=self.draws, out_dir="", master_seed=self.seed,
            desk_scale=True, n_epochs=self.epochs,
        )

    def _capture(self, run_scheme):
        """Wrap experiments.run_scheme, the binding run_experiment calls,
        to time each cell and keep its Solution for the checks."""
        cells = self._cells
        per_draw = len(self.SCHEMES)

        def capture(scheme, sys_cfg, ch, train):
            cell = run_op(f"{scheme}/draw{len(cells) // per_draw}",
                          run_scheme, scheme, sys_cfg, ch, train)
            cells.append(cell)
            if cell.error is not None:
                raise RuntimeError(cell.error)
            return cell.output

        return capture

    def run_pass(self) -> list[Outcome]:
        from starbeam import experiments

        if self._tmp is None:
            os.makedirs(self.out_dir, exist_ok=True)
            self._tmp = tempfile.mkdtemp(prefix="desk_battery-", dir=self.out_dir)
        self._cells = []
        original = experiments.run_scheme
        experiments.run_scheme = self._capture(original)
        try:
            report = experiments.run_experiment(replace(self.spec, out_dir=self._tmp))
        finally:
            experiments.run_scheme = original
        self._report = report
        return self._cells

    def pass_checks(self, cells: list[Outcome]) -> None:
        """The pass's records and CSV agree with the captured cells."""
        records = self._report.records
        if len(records) != len(cells):
            cells[0].errors.append(f"{len(records)} records for {len(cells)} cells")
        for cell, rec in zip(cells, records):
            if rec.error is not None:
                cell.errors.append(rec.error)
            elif cell.output is not None and rec.wsr_final != cell.output.wsr_opt:
                cell.errors.append("recorded WSR differs from the solution's")
        csv_path = os.path.join(self._tmp, "sweep_n.csv")
        if not os.path.isfile(csv_path):
            cells[0].errors.append("sweep_n.csv was not written")
        else:
            with open(csv_path, encoding="ascii") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != len(cells):
                cells[0].errors.append(f"sweep_n.csv has {rows} rows for {len(cells)} cells")

    def check(self, o: Outcome) -> list[str]:
        scheme, sys_cfg, ch, _ = o.call.args
        return check_solution(sys_cfg, ch, o.output, scheme == "gml_coupled")

    def digest(self, output) -> str:
        return solution_digest(output)

    def quality(self, outcomes) -> dict:
        mode = {"gml_independent": "independent", "gml_coupled": "coupled"}
        q = solve_quality(outcomes, lambda o: mode.get(o.label.split("/")[0]))
        pga = [o.output.wsr_opt for o in outcomes
               if o.output is not None and o.label.startswith("pga_oracle")]
        q["wsr_pga_mean"] = (sum(pga) / len(pga) if pga else float("nan"), "bit/s/Hz")
        return q

    def close(self) -> None:
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None


class PaperSolve(Workload):
    """run_gml in both modes at paper scale (M=64, N=100, K=4) with the
    paper_train cadence (AN and TN update every 5 epochs); one op is one
    solve. The channel draws are part of setup."""

    name = "paper_solve"

    def __init__(self, seed: int, out_dir: str, draws: int = 3, epochs: int = 50):
        if epochs % 5:
            raise ValueError("paper_solve epochs must be a multiple of 5")
        self.seed, self.draws, self.epochs = seed, draws, epochs

    def setup(self) -> None:
        import numpy as np
        from starbeam import channels, default_scenario, paper_train

        self.sys_cfg, ch_cfg = default_scenario()
        self.channels = [
            channels.generate_channels(self.sys_cfg, ch_cfg,
                                       np.random.default_rng([self.seed, d]))
            for d in range(self.draws)
        ]
        self.trains = [
            {mode: replace(paper_train(mode=mode, seed=_seed_int(self.seed, d)),
                           n_epochs=self.epochs)
             for mode in ("independent", "coupled")}
            for d in range(self.draws)
        ]

    def run_pass(self) -> list[Outcome]:
        from starbeam import training

        return [run_op(f"{mode}/draw{d}", training.run_gml, self.sys_cfg, ch, train)
                for d, ch in enumerate(self.channels)
                for mode, train in self.trains[d].items()]

    def check(self, o: Outcome) -> list[str]:
        sys_cfg, ch, train = o.call.args
        return check_solution(sys_cfg, ch, o.output, train.mode == "coupled")

    def digest(self, output) -> str:
        return solution_digest(output)

    def quality(self, outcomes) -> dict:
        return solve_quality(outcomes, lambda o: o.label.split("/")[0])


class GradCheck(Workload):
    """grad_check_command on one seeded random instance per op (M <= 8,
    N <= 16, K <= 4, shapes drawn per instance).

    The check recomputes the analytic gradients and the command's
    central-difference reference from the public functions, requires the
    command's report to match them exactly, and requires each gradient
    block within GRAD_REL_TOL relative (norm-wise) and coordinates whose
    reference is below 1e-10 within GRAD_ABS_TOL absolute. The command's
    own verdict, per-coordinate relative error < 1e-6, also fails on
    correct gradients for ~1.7% of random instances (the error falls as
    step^2, so it is the reference's truncation error); those verdicts are
    counted and reported as fd_false_alarms, not as failed ops.
    """

    name = "gradcheck"

    def __init__(self, seed: int, out_dir: str, instances: int = 250):
        self.seed, self.instances = seed, instances

    def setup(self) -> None:
        from starbeam import experiments

        self.seed_base = experiments.GRAD_CHECK_SEED_BASE + self.seed * self.instances

    def run_pass(self) -> list[Outcome]:
        from starbeam import experiments

        return [run_op(f"instance{i}", experiments.grad_check_command, 1, self.seed_base + i,
                       verbose=False)
                for i in range(self.instances)]

    def check(self, o: Outcome) -> list[str]:
        import numpy as np
        from starbeam import experiments, gradients, model

        rep = o.output
        cfg, ch, state = experiments.random_gradient_instance(o.call.args[1])
        analytic = gradients.wsr_gradients(cfg, ch, state)
        ref = gradients.finite_diff_gradient(
            lambda st: model.evaluate_wsr(cfg, ch, st), state,
            step=experiments.GRAD_CHECK_STEP,
        )
        rel, small_abs = experiments.gradient_errors(analytic, ref)
        errors = []
        if (rep.n_instances, rep.max_rel_err, rep.max_abs_err_small) != (1, rel, small_abs):
            errors.append(f"report ({rep.max_rel_err!r}, {rep.max_abs_err_small!r}) "
                          f"differs from the recomputed ({rel!r}, {small_abs!r})")
        for block in ("grad_w", "grad_beta", "grad_theta"):
            a, f = getattr(analytic, block), getattr(ref, block)
            block_rel = float(np.linalg.norm(a - f) / np.linalg.norm(f))
            if not block_rel < GRAD_REL_TOL:
                errors.append(f"{block} relative error {block_rel:.3e}")
        if not small_abs < GRAD_ABS_TOL:
            errors.append(f"small-coordinate absolute error {small_abs:.3e}")
        return errors

    def digest(self, output) -> str:
        return _digest(output.max_rel_err, output.max_abs_err_small, output.passed)

    def quality(self, outcomes) -> dict:
        reps = [o.output for o in outcomes if o.output is not None]
        return {
            "grad_rel_err_max": (max((r.max_rel_err for r in reps), default=float("nan")), "1"),
            "fd_false_alarms": (float(sum(not r.passed for r in reps)), "count"),
        }


WORKLOADS = {w.name: w for w in (DeskBattery, PaperSolve, GradCheck)}


def make(name: str, seed: int, out_dir: str, **sizes):
    return WORKLOADS[name](seed, out_dir, **sizes)

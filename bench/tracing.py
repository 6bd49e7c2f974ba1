"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``starbeam`` module at every
module namespace that binds them, so nothing in the program changes. A
function bound under several names gets a single wrapper installed at each
of them, so every call makes exactly one span whichever name reached it; a
wrapped function that calls another wrapped function (``grad_wsr_*`` calls
``wsr_gradients``) makes a parent span and one child span. A binding that a
later version of the program no longer has is recorded as absent.

Spans are kept in memory as parallel arrays (name, parent, start, end) with
a sparse map of per-span details, written out once at the end of the run.
Self times leave out the wrapper's own cost around child spans, which
``Tracer.calibrate`` measures.
"""
from __future__ import annotations

import gzip
import importlib
import time
from array import array

# (module, attribute, span name). Attribute "Cls.meth" wraps a method.
BINDINGS = (
    ("channels", "generate_channels", "channels.generate_channels"),
    ("experiments", "generate_channels", "channels.generate_channels"),
    ("model", "evaluate_wsr", "model.evaluate_wsr"),
    ("training", "evaluate_wsr", "model.evaluate_wsr"),
    ("baselines", "evaluate_wsr", "model.evaluate_wsr"),
    ("experiments", "evaluate_wsr", "model.evaluate_wsr"),
    ("gradients", "wsr_gradients", "gradients.wsr_gradients"),
    ("training", "wsr_gradients", "gradients.wsr_gradients"),
    ("baselines", "wsr_gradients", "gradients.wsr_gradients"),
    ("experiments", "wsr_gradients", "gradients.wsr_gradients"),
    ("training", "grad_wsr_precoder", "gradients.grad_wsr_precoder"),
    ("training", "grad_wsr_amplitudes", "gradients.grad_wsr_amplitudes"),
    ("training", "grad_wsr_phases", "gradients.grad_wsr_phases"),
    ("gradients", "finite_diff_gradient", "gradients.finite_diff_gradient"),
    ("experiments", "finite_diff_gradient", "gradients.finite_diff_gradient"),
    ("networks", "Mlp.forward_with_cache", "networks.forward"),
    ("networks", "mlp_backward", "networks.mlp_backward"),
    ("training", "mlp_backward", "networks.mlp_backward"),
    ("networks", "adam_step", "networks.adam_step"),
    ("training", "adam_step", "networks.adam_step"),
    ("training", "init_networks", "training.init_networks"),
    ("constraints", "project_coupled_phases", "constraints.project_coupled_phases"),
    ("training", "project_coupled_phases", "constraints.project_coupled_phases"),
    ("constraints", "normalize_amplitudes", "constraints.normalize_amplitudes"),
    ("training", "normalize_amplitudes", "constraints.normalize_amplitudes"),
    ("baselines", "normalize_amplitudes", "constraints.normalize_amplitudes"),
    ("experiments", "normalize_amplitudes", "constraints.normalize_amplitudes"),
    ("training", "run_meta_loop", "training.run_meta_loop"),
    ("baselines", "run_meta_loop", "training.run_meta_loop"),
    ("baselines", "pga_oracle", "baselines.pga_oracle"),
    ("experiments", "pga_oracle", "baselines.pga_oracle"),
    ("experiments", "run_scheme", "experiments.run_scheme"),
    ("experiments", "run_experiment", "experiments.run_experiment"),
    ("experiments", "grad_check_command", "experiments.grad_check_command"),
)

NETS = ("pn", "an", "tn")
MODES = ("independent", "coupled")

# Adam reads parameters, gradients and both moments and writes parameters
# and both moments: 7 float64 arrays of the parameter count per step.
ADAM_ARRAYS_MOVED = 7

_LOOKUP_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class NetRegistry:
    """Names the network a parameter set belongs to (pn, an or tn).

    The three networks of a run are registered when ``init_networks``
    returns; each Adam step moves the label to the new parameter arrays.
    Labels follow array identity, so an and tn, which have equal shapes,
    stay apart. The arrays are held so their identities cannot be reused.
    """

    def __init__(self) -> None:
        self._labels: dict[int, tuple[str, object]] = {}

    def reset(self, nets) -> None:
        self._labels.clear()
        for label in NETS:
            w1 = getattr(nets, label).w1
            self._labels[id(w1)] = (label, w1)

    def label(self, w1) -> str:
        entry = self._labels.get(id(w1))
        return entry[0] if entry is not None and entry[1] is w1 else "other"

    def move(self, old_w1, new_w1) -> None:
        entry = self._labels.pop(id(old_w1), None)
        if entry is not None and entry[1] is old_w1:
            self._labels[id(new_w1)] = (entry[0], new_w1)


def _params_size(params) -> int:
    return int(sum(v.size for v in params.values()))


# Post-call hooks: (tracer, args, kwargs, result) -> detail kept with the span.
def _hook_init_networks(tr, args, kwargs, result):
    tr.nets.reset(result)


def _hook_forward(tr, args, kwargs, result):
    return tr.nets.label(args[0].w1)


def _hook_backward(tr, args, kwargs, result):
    return tr.nets.label(_arg(args, kwargs, 0, "net").w1)


def _hook_adam(tr, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    label = tr.nets.label(params["w1"])
    tr.nets.move(params["w1"], result[0]["w1"])
    return label, _params_size(params)


def _hook_meta_loop(tr, args, kwargs, result):
    train = _arg(args, kwargs, 2, "train")
    return train.mode, train.n_epochs


def _hook_shape(tr, args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    return cfg.M, cfg.N, cfg.K


def _hook_value(tr, args, kwargs, result):
    return float(result)


def _hook_pga(tr, args, kwargs, result):
    return result.traces["wsr_best"]


HOOKS = {
    "training.init_networks": _hook_init_networks,
    "networks.forward": _hook_forward,
    "networks.mlp_backward": _hook_backward,
    "networks.adam_step": _hook_adam,
    "training.run_meta_loop": _hook_meta_loop,
    "gradients.wsr_gradients": _hook_shape,
    "model.evaluate_wsr": _hook_value,
    "baselines.pga_oracle": _hook_pga,
}


class Tracer:
    """Installs span wrappers on the program and keeps the spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.detail: dict[int, object] = {}
        self._stack = [-1]
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.nets = NetRegistry()
        self.wrapper_cost = 0.0  # set by calibrate()

    def __len__(self) -> int:
        return len(self.name)

    def install(self) -> None:
        """Wrap every binding that exists; record the missing ones."""
        self.absent = []
        for module, attr, span in BINDINGS:
            owner = importlib.import_module(f"starbeam.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                continue
            cached = self._wrappers.get(id(fn))
            if cached is None or cached[0] is not fn:
                cached = (fn, self._wrap(fn, span))
                self._wrappers[id(fn)] = cached
            self._installed.append((owner, leaf, fn))
            setattr(owner, leaf, cached[1])

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, fn = self._installed.pop()
            setattr(owner, leaf, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calibrate(self, calls: int = 2000, rounds: int = 7) -> float:
        """Time the wrapper's own work outside the span it records (array
        appends, stack push and pop, a hook call), per call, median of
        `rounds`. Each span's parent has this much extra self time per
        direct child; per_layer_metrics subtracts it."""
        probe = Tracer()
        inner = probe._wrap(_noop, "calibration", _hook_value)
        clock = time.perf_counter
        costs = []
        for _ in range(rounds):
            t0 = clock()
            for _ in range(calls):
                _noop()
            bare = clock() - t0
            first = len(probe)
            t0 = clock()
            for _ in range(calls):
                inner()
            wrapped = clock() - t0
            inside = sum(probe.end[i] - probe.start[i] for i in range(first, len(probe)))
            costs.append((wrapped - inside - bare) / calls)
        costs.sort()
        self.wrapper_cost = max(costs[len(costs) // 2], 0.0)
        return self.wrapper_cost

    def _wrap(self, fn, span: str, hook=None):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        hook = hook or HOOKS.get(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, detail, clock = self._stack, self.detail, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                try:
                    value = hook(tracer, args, kwargs, result)
                except _LOOKUP_ERRORS:
                    value = None
                if value is not None:
                    detail[idx] = value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write(self, path: str) -> None:
        """Write every span as gzip CSV: index, name, parent, start and end
        in microseconds from the first span, and the span's detail."""
        t_origin = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("index,name,parent,start_us,end_us,detail\n")
            for i in range(len(self)):
                d = self.detail.get(i)
                d = "" if d is None or hasattr(d, "shape") else str(d).replace(",", ";")
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{(self.start[i] - t_origin) * 1e6:.3f},"
                    f"{(self.end[i] - t_origin) * 1e6:.3f},{d}\n"
                )


def _noop():
    return 0.0


class _Stat:
    __slots__ = ("calls", "total", "self_total")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0


def per_layer_metrics(tr: Tracer, traced_ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans: {name: (value, unit)} and the
    names of metrics whose layer was never called (reported as 0)."""
    n = len(tr)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    # Children's time, plus the wrapper's own cost around each child,
    # which would otherwise count as the parent's self time.
    child = [0.0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i] + tr.wrapper_cost

    names = tr.names
    nid = {name: i for i, name in enumerate(names)}
    meta_id = nid.get("training.run_meta_loop", -2)
    pga_id = nid.get("baselines.pga_oracle", -2)
    # Nearest enclosing run_meta_loop / pga_oracle span of every span;
    # a parent always has a smaller index than its children.
    owner = [-1] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            owner[i] = p if tr.name[p] in (meta_id, pga_id) else owner[p]

    stats: dict[tuple[str, object], _Stat] = {}
    epochs = {m: 0 for m in MODES}
    meta_time = {m: 0.0 for m in MODES}
    grads_in_loop = 0
    pga = {}  # pga span -> [gradient calls, evaluate calls, first rate]
    cmacs = []
    adam_size = {}

    def stat(key):
        s = stats.get(key)
        if s is None:
            s = stats[key] = _Stat()
        return s

    for i in range(n):
        name = names[tr.name[i]]
        d = tr.detail.get(i)
        key = None
        if name in ("networks.forward", "networks.mlp_backward"):
            key = d
        elif name == "networks.adam_step" and d is not None:
            key = d[0]
            adam_size[key] = d[1]
        elif name == "training.run_meta_loop" and d is not None:
            key = d[0]
            if key in epochs:
                epochs[key] += d[1]
                meta_time[key] += dur[i]
        for k in {None, key}:
            s = stat((name, k))
            s.calls += 1
            s.total += dur[i]
            s.self_total += max(dur[i] - child[i], 0.0)

        o = owner[i]
        if name == "gradients.wsr_gradients":
            if d is not None:
                m, nn, kk = d
                cmacs.append(4 * m * nn * kk + 2 * m * kk * kk + 2 * nn * kk * kk)
            if o >= 0 and tr.name[o] == meta_id:
                grads_in_loop += 1
            elif o >= 0:
                pga.setdefault(o, [0, 0, None])[0] += 1
        elif name == "model.evaluate_wsr" and o >= 0 and tr.name[o] == pga_id:
            rec = pga.setdefault(o, [0, 0, None])
            rec[1] += 1
            if rec[2] is None:
                rec[2] = d

    def get(name, key=None):
        return stats.get((name, key))

    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(metric, value, unit):
        if value is None:
            absent.append(metric)
            value = 0.0
        out[metric] = (float(value), unit)

    def per_call(name, scale, key=None):
        s = get(name, key)
        return s.total / s.calls * scale if s and s.calls else None

    put("channels.generate_channels.us_per_call",
        per_call("channels.generate_channels", 1e6), "us")
    put("model.evaluate_wsr.us_per_call", per_call("model.evaluate_wsr", 1e6), "us")
    ev = get("model.evaluate_wsr")
    put("model.evaluate_wsr.calls_per_op",
        ev.calls / traced_ops if ev and traced_ops else None, "count")
    put("gradients.wsr_gradients.us_per_call",
        per_call("gradients.wsr_gradients", 1e6), "us")
    n_epochs = sum(epochs.values())
    put("gradients.wsr_gradients.calls_per_epoch",
        grads_in_loop / n_epochs if n_epochs else None, "count")
    put("gradients.wsr_gradients.cmacs_computed",
        sum(cmacs) / len(cmacs) if cmacs else None, "count")
    put("gradients.finite_diff_gradient.ms_per_call",
        per_call("gradients.finite_diff_gradient", 1e3), "ms")
    for op in ("forward", "mlp_backward", "adam_step"):
        for net in NETS:
            put(f"networks.{op}.us_per_call.{net}",
                per_call(f"networks.{op}", 1e6, net), "us")
    for net in NETS:
        moved = ADAM_ARRAYS_MOVED * 8 * adam_size[net] if net in adam_size else None
        put(f"networks.adam_step.bytes_computed.{net}", moved, "B")
        us = per_call("networks.adam_step", 1e6, net)
        put(f"networks.adam_step.gbps_computed.{net}",
            moved / us / 1e3 if moved and us else None, "GB/s")
    put("constraints.project_coupled_phases.us_per_call",
        per_call("constraints.project_coupled_phases", 1e6), "us")
    put("constraints.normalize_amplitudes.us_per_call",
        per_call("constraints.normalize_amplitudes", 1e6), "us")
    for mode in MODES:
        put(f"training.run_meta_loop.ms_per_epoch.{mode}",
            meta_time[mode] / epochs[mode] * 1e3 if epochs[mode] else None, "ms")
    meta = get("training.run_meta_loop")
    put("training.run_meta_loop.self_share",
        meta.self_total / meta.total if meta and meta.total else None, "1")

    pga_span = get("baselines.pga_oracle")
    steps = accepted = candidates = 0
    for idx, (n_grad, n_eval, first_rate) in pga.items():
        steps += n_grad - 1  # one bundle sizes the steps, then one per step
        candidates += n_eval - 1  # the first evaluation is the start point
        trace = tr.detail.get(idx)
        if trace is not None and first_rate is not None:
            prev = first_rate
            for rate in trace:
                accepted += rate > prev
                prev = rate
    put("baselines.pga_oracle.ms_per_step",
        pga_span.total / steps * 1e3 if pga_span and steps > 0 else None, "ms")
    put("baselines.pga_oracle.accept_ratio",
        accepted / candidates if candidates > 0 else None, "1")
    rx = get("experiments.run_experiment")
    put("experiments.run_experiment.self_ms",
        rx.self_total / rx.calls * 1e3 if rx and rx.calls else None, "ms")
    return out, absent

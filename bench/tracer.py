"""Out-of-program tracing for the fleet benchmark.

Wrappers are installed from outside at the names the callers look up (for a
function imported with ``from .x import f`` that is every module binding of
``f``; for a method it is the class attribute), so ``src/`` is never edited.

Two kinds of wrapper:

- *span* wrappers, around the coarse calls (a run, a fit, a GA search, a
  bisection, a sweep): each call is kept in memory as a span with name, layer,
  start, end, parent span, run id, self time and the ledger charges made
  while it was open;
- *hot* wrappers, around calls made up to hundreds of thousands of times per
  run (one-row predictions, SGD steps, design-space helpers, oracle calls):
  only their count and busy time are kept, and their duration is charged to
  the enclosing span as child time, so self times stay exact.

Ledger charges are attributed to the innermost open span. The calibration
ledger that ``pipeline._percentile_bounds`` returns is told apart from the run
ledger by identity, so the run-ledger charges of all spans of one run sum to
that run's ledger totals.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time
from collections import Counter, defaultdict

LAYERS = (
    "pipeline", "device_world", "surrogate", "nn", "search",
    "design_space", "proxy_reuse", "learn_to_optimize",
)


class _Frame:
    __slots__ = ("name", "layer", "start", "child_s", "span")

    def __init__(self, name, layer, start, span):
        self.name = name
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.span = span


class Tracer:
    """Spans and counters for one benchmark process; nothing is written until
    ``write`` is called."""

    def __init__(self):
        self.run_id = ""
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.layer_busy: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.calibration_ledgers: set[int] = set()
        self._stack: list[_Frame] = []
        self._open: Counter = Counter()  # open frames per name and per layer
        self._root_span = 0  # index of the first span of the open run
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _innermost_span(self) -> dict | None:
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame.span
        return None

    def _enter(self, name: str, layer: str, keep: bool) -> _Frame:
        span = None
        if keep:
            parent = self._innermost_span()
            span = {
                "id": len(self.spans), "name": name, "layer": layer, "run": self.run_id,
                "parent": None if parent is None else parent["id"],
                "start": 0.0, "end": 0.0, "self_s": 0.0, "charges": Counter(),
            }
            self.spans.append(span)
        self._open[name] += 1
        self._open["layer:" + layer] += 1
        if not self._stack:
            self._root_span = len(self.spans) - (span is not None)
        frame = _Frame(name, layer, time.perf_counter(), span)
        if span is not None:
            span["start"] = frame.start
        self._stack.append(frame)
        return frame

    def _exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        self._open[frame.name] -= 1
        self._open["layer:" + frame.layer] -= 1
        self.calls[frame.name] += 1
        if self._open[frame.name] == 0:
            self.busy[frame.name] += duration
        if self._open["layer:" + frame.layer] == 0:
            self.layer_busy[frame.layer] += duration
        self_s = duration - frame.child_s
        self.layer_self[frame.layer] += self_s
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.span is not None:
            frame.span["end"] = end
            frame.span["self_s"] = self_s
        if not self._stack:
            self._close_run()

    def _close_run(self) -> None:
        """Key the closed run's charges by ledger role. Ledger ids can be reused
        once a run's ledgers are freed, so this happens before the next run."""
        for span in self.spans[self._root_span:]:
            span["charges"] = Counter({
                ("calibration" if ledger_id in self.calibration_ledgers else "run", metric): n
                for (ledger_id, metric), n in span["charges"].items()
            })
        self.calibration_ledgers.clear()

    def charge(self, ledger, metric: str) -> None:
        span = self._innermost_span()
        if span is not None:
            span["charges"][(id(ledger), metric)] += 1

    # -- installing -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_name(self, modules, attr: str, name: str, layer: str, *, keep: bool,
                  before=None, after=None) -> None:
        """Replace every module binding of the function ``attr`` (as found in
        ``modules[0]``) with one traced wrapper."""
        original = getattr(modules[0], attr)
        wrapper = self._wrapper(original, name, layer, keep, before, after)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._set(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str, layer: str, *, after=None) -> None:
        """Replace a method with a hot wrapper: counts and busy time, no span."""
        self._set(cls, attr, self._wrapper(getattr(cls, attr), name, layer, False, None, after))

    def _wrapper(self, fn, name, layer, keep, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not keep and not tracer._stack:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer._enter(name, layer, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def run_charges(self, run_id: str) -> Counter:
        """Run-ledger charges per metric, summed over the self charges of every
        span of one run."""
        total: Counter = Counter()
        for span in self.spans:
            if span["run"] == run_id:
                for (role, metric), n in span["charges"].items():
                    if role == "run":
                        total[metric] += n
        return total

    def write(self, path) -> None:
        """One JSON line per span, times relative to the first span's start."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as f:
            for span in self.spans:
                row = {k: v for k, v in span.items() if k != "charges"}
                row["start"] = round(span["start"] - origin, 6)
                row["end"] = round(span["end"] - origin, 6)
                for role in ("run", "calibration"):
                    row[f"{role}_ledger"] = {
                        metric: n for (r, metric), n in sorted(span["charges"].items())
                        if r == role
                    }
                f.write(json.dumps(row, sort_keys=True) + "\n")


def _binder(fn):
    """Map a call's (args, kwargs) to fn's parameters by name, defaults filled."""
    signature = inspect.signature(fn)

    def bind(args, kwargs) -> inspect.BoundArguments:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound

    return bind


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install(tracer: Tracer, fleetopt) -> None:
    """Wrap each layer's public calls (see bench/README.md for the table)."""
    cli, pipeline = fleetopt.cli, fleetopt.pipeline
    design_space, device_world = fleetopt.design_space, fleetopt.device_world
    surrogate, nn, search = fleetopt.surrogate, fleetopt.nn, fleetopt.search
    proxy_reuse, l2o = fleetopt.proxy_reuse, fleetopt.learn_to_optimize
    everywhere = (design_space, device_world, surrogate, nn, search, proxy_reuse, l2o,
                  pipeline, cli, fleetopt.scenario)
    counts = tracer.counts

    # pipeline
    def after_run(args, kwargs, report):
        counts["pipeline.flagged_infeasible"] += report.infeasible_count

    def after_bounds(args, kwargs, result):
        tracer.calibration_ledgers.add(id(result[1]))

    def after_export(args, kwargs, written):
        counts["pipeline.export.files"] += len(written)
        counts["pipeline.export.bytes"] += sum(os.path.getsize(p) for p in written)

    tracer.wrap_name([cli], "run_scenario", "pipeline.run", "pipeline", keep=True, after=after_run)
    tracer.wrap_name([pipeline], "_percentile_bounds", "pipeline.bounds", "pipeline", keep=True,
                     after=after_bounds)
    tracer.wrap_name([pipeline], "export_report", "pipeline.export", "pipeline", keep=True,
                     after=after_export)
    tracer.wrap_name([pipeline], "load_model", "pipeline.load", "pipeline", keep=True)
    tracer.wrap_name([pipeline], "load_optimizer", "pipeline.load", "pipeline", keep=True)

    # device_world
    tracer.wrap_name([pipeline], "generate_fleet", "device_world.fleet", "device_world", keep=True)
    for metric in ("latency", "energy", "accuracy"):
        tracer.wrap_method(device_world.Oracle, metric, f"device_world.oracle.{metric}",
                           "device_world")
    ledger_cls = device_world.MeasurementLedger
    charge, charge_accuracy = ledger_cls.charge, ledger_cls.charge_accuracy

    def traced_charge(ledger, device_id, metric):
        charge(ledger, device_id, metric)
        tracer.charge(ledger, metric)

    def traced_charge_accuracy(ledger):
        charge_accuracy(ledger)
        tracer.charge(ledger, "accuracy")

    tracer._set(ledger_cls, "charge", traced_charge)
    tracer._set(ledger_cls, "charge_accuracy", traced_charge_accuracy)

    # surrogate
    fit_call = _binder(surrogate.fit)

    def after_fit(args, kwargs, model):
        call = fit_call(args, kwargs).arguments
        rows, hyper = len(call["inputs"]), call["hyper"]
        counts["surrogate.fit.rows"] += rows
        if not model.constant_warning:  # a constant predictor takes no steps
            batches = math.ceil(rows / min(hyper.batch_size, rows))
            counts["surrogate.fit.steps"] += hyper.epochs * batches

    tracer.wrap_name([surrogate], "fit", "surrogate.fit", "surrogate", keep=True, after=after_fit)
    for attr in ("train_accuracy_predictor", "train_device_specific_predictor",
                 "train_stage1", "iterative_fit"):
        tracer.wrap_name([pipeline], attr, f"surrogate.{attr}", "surrogate", keep=True)

    def after_predict(args, kwargs, values):
        counts["surrogate.predict.rows"] += len(values)

    tracer.wrap_method(surrogate.MlpRegressor, "predict_batch", "surrogate.predict", "surrogate",
                       after=after_predict)

    # nn
    tracer.wrap_method(nn.MomentumSgd, "step", "nn.step", "nn")

    # search
    ga_call = _binder(search.evolutionary_search)

    def before_ga(args, kwargs):
        call = ga_call(args, kwargs)
        objective, params = call.arguments["objective"], call.arguments["params"]

        def counted(x):
            counts["search.ga.evals"] += 1
            return objective(x)

        call.arguments["objective"] = counted
        counts["search.ga.budget"] += params.population * params.generations
        return call.args, call.kwargs

    tracer.wrap_name([search, proxy_reuse, l2o], "evolutionary_search", "search.ga", "search",
                     keep=True, before=before_ga)

    # design_space
    for attr in ("sample_uniform", "mutate", "crossover", "encode"):
        tracer.wrap_name(everywhere, attr, f"design_space.{attr}", "design_space", keep=False)
    for attr in ("indices_of", "design_at"):
        tracer.wrap_method(design_space.DesignSpace, attr, f"design_space.{attr}", "design_space")

    # proxy_reuse
    def after_gate(args, kwargs, entry):
        counts["proxy_reuse.gate.reused"] += entry is not None

    def after_bisection(args, kwargs, result):
        counts["proxy_reuse.bisection.measurements"] += result.measurements

    def after_grid(args, kwargs, result):
        counts["proxy_reuse.grid2d.measurements"] += result.measurements

    tracer.wrap_name([pipeline], "match_proxy", "proxy_reuse.gate", "proxy_reuse", keep=True,
                     after=after_gate)
    tracer.wrap_name([pipeline], "bisection_optimize", "proxy_reuse.bisection", "proxy_reuse",
                     keep=True, after=after_bisection)
    tracer.wrap_name([pipeline], "grid_optimize_2d", "proxy_reuse.grid2d", "proxy_reuse",
                     keep=True, after=after_grid)
    tracer.wrap_name([proxy_reuse], "solve_inner", "proxy_reuse.inner", "proxy_reuse", keep=True)

    # learn_to_optimize
    method2_call = _binder(l2o.train_method2)

    def after_method2(args, kwargs, net):
        call = method2_call(args, kwargs).arguments
        counts["learn_to_optimize.method2.epochs"] += call["restarts"] * call["hyper"].epochs

    tracer.wrap_name([pipeline], "train_method2", "learn_to_optimize.method2",
                     "learn_to_optimize", keep=True, after=after_method2)
    tracer.wrap_name([l2o], "amortized_batch_gradient", "learn_to_optimize.batch_gradient",
                     "learn_to_optimize", keep=False)
    tracer.wrap_name([pipeline], "constraint_sweep", "learn_to_optimize.sweep",
                     "learn_to_optimize", keep=True)
    tracer.wrap_name([l2o], "infer_design", "learn_to_optimize.infer", "learn_to_optimize",
                     keep=False)


def layer_metrics(tracer: Tracer, pairs: int) -> dict[str, float]:
    """Per-layer figures per client iteration (one training run plus one
    deploy run), averaged over the ``pairs`` traced iterations. The names are
    those of ``per_layer`` in BENCHMARK.json; the two trace.overhead figures
    are added by the caller."""
    c, b, n = tracer.calls, tracer.busy, tracer.counts
    ds_names = [k for k in c if k.startswith("design_space.")]
    oracle = [f"device_world.oracle.{m}" for m in ("latency", "energy", "accuracy")]
    sweeps = c["learn_to_optimize.sweep"]
    inner_ids = {s["id"] for s in tracer.spans if s["name"] == "proxy_reuse.inner"}
    inner_ga = sum(1 for s in tracer.spans if s["name"] == "search.ga" and s["parent"] in inner_ids)
    raw = {
        "surrogate.fit.calls": c["surrogate.fit"],
        "surrogate.fit.rows": n["surrogate.fit.rows"],
        "surrogate.fit.busy_s": b["surrogate.fit"],
        "surrogate.predict.calls": c["surrogate.predict"],
        "surrogate.predict.rows": n["surrogate.predict.rows"],
        "surrogate.predict.busy_s": b["surrogate.predict"],
        "nn.sgd_steps": c["nn.step"],
        "nn.step.busy_s": b["nn.step"],
        "search.ga.calls": c["search.ga"],
        "search.ga.busy_s": b["search.ga"],
        "search.ga.evals": n["search.ga.evals"],
        "design_space.calls": sum(c[k] for k in ds_names),
        "design_space.busy_s": tracer.layer_busy["design_space"],
        "proxy_reuse.gate.calls": c["proxy_reuse.gate"],
        "proxy_reuse.gate.busy_s": b["proxy_reuse.gate"],
        "proxy_reuse.bisection.busy_s": b["proxy_reuse.bisection"],
        "proxy_reuse.bisection.measurements": n["proxy_reuse.bisection.measurements"],
        "proxy_reuse.grid2d.busy_s": b["proxy_reuse.grid2d"],
        "proxy_reuse.grid2d.measurements": n["proxy_reuse.grid2d.measurements"],
        "proxy_reuse.inner.calls": c["proxy_reuse.inner"],
        "learn_to_optimize.method2.busy_s": b["learn_to_optimize.method2"],
        "learn_to_optimize.method2.epochs": n["learn_to_optimize.method2.epochs"],
        "learn_to_optimize.sweep.busy_s": b["learn_to_optimize.sweep"],
        "learn_to_optimize.infer.calls": c["learn_to_optimize.infer"],
        "device_world.fleet.busy_s": b["device_world.fleet"],
        **{f"device_world.oracle.calls.{m}": c[f"device_world.oracle.{m}"]
           for m in ("latency", "energy", "accuracy")},
        "device_world.oracle.busy_s": sum(b[k] for k in oracle),
        "pipeline.run.busy_s": b["pipeline.run"],
        "pipeline.load.busy_s": b["pipeline.load"],
        "pipeline.export.busy_s": b["pipeline.export"],
        "pipeline.export.files": n["pipeline.export.files"],
        "pipeline.export.bytes": n["pipeline.export.bytes"],
        "pipeline.flagged_infeasible": n["pipeline.flagged_infeasible"],
        **{f"{layer}.self_s": tracer.layer_self[layer] for layer in LAYERS},
        "trace.spans": len(tracer.spans),
    }
    out = {k: v / pairs for k, v in raw.items()}
    out["surrogate.fit.steps_per_s"] = _ratio(n["surrogate.fit.steps"], b["surrogate.fit"])
    out["surrogate.predict.rows_per_call"] = _ratio(
        n["surrogate.predict.rows"], c["surrogate.predict"])
    out["search.ga.ms_per_call"] = 1e3 * _ratio(b["search.ga"], c["search.ga"])
    out["search.ga.unique_ratio"] = _ratio(n["search.ga.evals"], n["search.ga.budget"])
    out["proxy_reuse.gate.reuse_ratio"] = _ratio(
        n["proxy_reuse.gate.reused"], c["proxy_reuse.gate"])
    out["proxy_reuse.tcache.hit_ratio"] = (
        1.0 - _ratio(inner_ga, c["proxy_reuse.inner"])
        if c["proxy_reuse.inner"] else 0.0
    )
    out["learn_to_optimize.method2.steps_per_s"] = _ratio(
        c["learn_to_optimize.batch_gradient"], b["learn_to_optimize.method2"])
    out["learn_to_optimize.sweep.ms_per_target"] = 1e3 * _ratio(
        b["learn_to_optimize.sweep"], sweeps)
    return out

"""In-process span tracing for the benchmark's traced run.

The traced run calls ``mvkit.cli.main`` in-process, so every command
executes the same public functions, in the same order, as the CLI does.
Before that, :func:`instrument` replaces the public layer functions listed
in ``TARGETS`` with wrappers that record a span per call, in every mvkit
module that bound them by name. Spans are ``<layer>.<function>``, where the
layer is the mvkit module (``learners`` for the learner subpackage); each
span's parent is the span that was open when it started, and the root of
every command is ``cli.<command>``. Hooks read work counts off the return
values. Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Spans kept in memory, plus counters fed by return-value hooks."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    dispatch_inputs: list = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1, time.perf_counter()))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (summed self time in seconds, call count)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, tuple[float, int]] = {}
        for i, s in enumerate(self.spans):
            t, n = out.get(s.name, (0.0, 0))
            out[s.name] = (t + (s.end - s.start) - child_time[i], n + 1)
        return out

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)


# --- return-value hooks -------------------------------------------------------


def _rows(tr, args, scenario):
    tr.counts["scenario.rows_parsed"] += (
        len(scenario.versions) + len(scenario.datasets) + scenario.runtimes.size
    )


def _greedy(tr, args, result):
    tr.counts["selection.picks"] += len(result.trace)
    tr.counts["selection.candidates"] += len(args[0].candidate_ids)


def _samples(tr, args, samples):
    tr.counts["learners.samples"] += len(samples)


def _tree(tr, args, model):
    tr.counts["learners.tree_nodes"] += len(model.nodes)
    tr.counts["learners.tree_depth"] = max(tr.counts["learners.tree_depth"], model.depth)


def _regtree(tr, args, model):
    tr.counts["learners.regtree_nodes"] += len(model.nodes)


def _rules(tr, args, model):
    tr.counts["learners.rules"] += len(model.rules)
    tr.counts["learners.rule_conditions"] += sum(len(r.conditions) for r in model.rules)


def _dumps(tr, args, text):
    tr.counts["modelio.model_bytes"] += len(text.encode("utf-8"))


def _compiled(tr, args, spec):
    tr.counts["dispatch.nodes"] += len(spec.nodes)
    tr.counts["dispatch.depth"] = max(tr.counts["dispatch.depth"], spec.depth)


def _simulated(tr, args, result):
    n = len(result.outcomes)
    tr.counts["simulate.datasets"] += n
    if result.selector_kind == "ppm":
        tr.counts["simulate.ppm_datasets"] += n
        tr.counts["simulate.ppm_oracle_weighted"] += n * result.fraction_of_full_oracle
    if result.selector_kind == "dispatcher":
        tr.dispatch_inputs.append((args[1], [d.features for d in args[0].datasets]))


def _rendered(tr, args, text):
    tr.counts["report.bytes"] += len(text.encode("utf-8"))


# (module, function, hook). Only coarse, per-command functions are wrapped;
# per-decision calls such as eval_dispatcher are timed separately.
TARGETS = (
    ("mvkit.scenario", "load_scenario", _rows),
    ("mvkit.scenario", "validate_scenario", None),
    ("mvkit.scenario", "speedups", None),
    ("mvkit.scenario", "save_scenario", None),
    ("mvkit.synthgen", "generate", None),
    ("mvkit.synthgen", "generate_test", None),
    ("mvkit.synthgen", "save_ground_truth", None),
    ("mvkit.selection", "greedy_select", _greedy),
    ("mvkit.selection", "evaluate_set", None),
    ("mvkit.learners.samples", "make_dc_labels", _samples),
    ("mvkit.learners.samples", "make_ppm_samples", _samples),
    ("mvkit.learners.trees", "train_tree_classifier", _tree),
    ("mvkit.learners.trees", "train_regression_tree", _regtree),
    ("mvkit.learners.rules", "train_rule_list", _rules),
    ("mvkit.learners.linear", "train_linear_regression", None),
    ("mvkit.learners.ppm", "train_ppm_models", None),
    ("mvkit.learners.cv", "cross_validate", None),
    ("mvkit.modelio", "dumps", _dumps),
    ("mvkit.modelio", "loads", None),
    ("mvkit.dispatch", "compile_dispatcher", _compiled),
    ("mvkit.dispatch", "serialize", None),
    ("mvkit.dispatch", "deserialize", None),
    ("mvkit.dispatch", "render_template", None),
    ("mvkit.simulate", "simulate", _simulated),
    ("mvkit.report", "render", _rendered),
    ("mvkit.report", "parse", None),
)


def span_name(module: str, function: str) -> str:
    return f"{module.split('.')[1]}.{function}"


@contextmanager
def instrument(tracer: Tracer):
    """Swap every target for its traced wrapper; restore them on exit."""
    importlib.import_module("mvkit.cli")
    swapped: list[tuple[object, str, object]] = []
    try:
        for module, function, hook in TARGETS:
            original = getattr(importlib.import_module(module), function)
            wrapper = tracer.wrap(span_name(module, function), original, hook)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("mvkit"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(swapped):
            setattr(mod, attr, original)


def per_span_cost(calls: int = 20000) -> float:
    """Seconds a traced wrapper adds to one call, measured on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap("bench.noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - bare, 0.0) / calls


# Per-layer metric -> the spans whose self times it sums. Self times never
# double count: learners.cv_s is CV's own work (folds, predictions, scores),
# and the models it trains count under tree_s, regtree_s, rules_s, linreg_s.
SELF_TIME_METRICS = {
    "scenario.load_s": ("scenario.load_scenario",),
    "scenario.validate_s": ("scenario.validate_scenario",),
    "scenario.speedups_s": ("scenario.speedups",),
    "scenario.save_s": ("scenario.save_scenario",),
    "synthgen.generate_s": ("synthgen.generate", "synthgen.generate_test"),
    "selection.greedy_s": ("selection.greedy_select",),
    "selection.evaluate_s": ("selection.evaluate_set",),
    "learners.labels_s": ("learners.make_dc_labels", "learners.make_ppm_samples"),
    "learners.tree_s": ("learners.train_tree_classifier",),
    "learners.regtree_s": ("learners.train_regression_tree",),
    "learners.rules_s": ("learners.train_rule_list",),
    "learners.linreg_s": ("learners.train_linear_regression",),
    "learners.cv_s": ("learners.cross_validate",),
    "modelio.dumps_s": ("modelio.dumps",),
    "modelio.loads_s": ("modelio.loads",),
    "dispatch.compile_s": ("dispatch.compile_dispatcher",),
    "dispatch.serialize_s": ("dispatch.serialize",),
    "dispatch.deserialize_s": ("dispatch.deserialize",),
    "dispatch.render_s": ("dispatch.render_template",),
    "simulate.simulate_s": ("simulate.simulate",),
    "report.render_s": ("report.render",),
}

COUNT_METRICS = (
    "scenario.rows_parsed",
    "selection.picks",
    "selection.candidates",
    "learners.samples",
    "learners.tree_nodes",
    "learners.tree_depth",
    "learners.regtree_nodes",
    "learners.rules",
    "learners.rule_conditions",
    "modelio.model_bytes",
    "dispatch.nodes",
    "dispatch.depth",
    "simulate.datasets",
    "simulate.ppm_fraction_of_full_oracle",
    "report.bytes",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self-time and count metrics of one traced pass."""
    selfs = tracer.self_times()
    out = {
        metric: sum(selfs.get(name, (0.0, 0))[0] for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    c = tracer.counts
    out.update({name: float(c[name]) for name in COUNT_METRICS})
    ppm = c["simulate.ppm_datasets"]
    out["simulate.ppm_fraction_of_full_oracle"] = c["simulate.ppm_oracle_weighted"] / ppm if ppm else 0.0
    load_total = sum(
        s.end - s.start for s in tracer.spans if s.name == "scenario.load_scenario"
    )
    out["scenario.rows_per_s"] = c["scenario.rows_parsed"] / load_total if load_total else 0.0
    datasets = c["simulate.datasets"]
    out["simulate.us_per_dataset"] = out["simulate.simulate_s"] / datasets * 1e6 if datasets else 0.0
    return out


def eval_ns_per_decision(dispatch_inputs, min_seconds: float = 0.2) -> float:
    """Mean ``eval_dispatcher`` cost over the simulated dispatchers' test features."""
    from mvkit.dispatch import eval_dispatcher

    decisions = 0
    start = time.perf_counter()
    while True:
        for spec, features in dispatch_inputs:
            for x in features:
                eval_dispatcher(spec, x)
            decisions += len(features)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds or not decisions:
            return elapsed / decisions * 1e9 if decisions else 0.0

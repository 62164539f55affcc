"""In-memory span recorder for the traced benchmark run.

The tracer wraps the public functions of each dynr layer (module) from the
outside: it rebinds every attribute of every loaded ``dynr`` module that
refers to the function, so calls are seen whichever import path the caller
used (``dynr.verifier.bracket_legs`` and ``dynr.tensor_alg.bracket_legs``
are the same wrapper).  Each call records a span: name, start, end, parent
span and op id.  Counts are recorded at the same boundaries.  Nothing is
written until ``dump`` is called at the end of the run.

A named hook whose function no longer exists is recorded in ``absent``
instead of raising, so a refactor that removes or renames a function leaves
the trace working and says what it could not see.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
import types
from collections import defaultdict

LAYERS = ("lie_core", "tensor_alg", "special_fn", "combinatorics", "rmatrix", "verifier", "cli")

# Functions whose returned dense Tensor3 is counted as computed bytes.
TENSOR3_PRODUCERS = (
    "tensor_alg.bracket_legs",
    "tensor_alg.alt3",
    "tensor_alg.act_diag",
    "rmatrix.eval_dlambda",
    "verifier.cdybe_residual_constant",
    "verifier.cdybe_residual_spectral",
)

# Private functions hooked for counts only (no span).  lambda candidates
# are told apart from spectral draws by the sample box they use.
DRAW_HOOK = "verifier._draw_vector"


class Tracer:
    """Spans and counts for one process; see the module docstring."""

    def __init__(self, lambda_box):
        self.names = []  # span name table; spans refer to names by index
        self._name_ids = {}
        self.spans = []  # [name_id, start, end, parent_index, op]
        self._stack = []
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> counter -> value
        self.maxima = defaultdict(dict)  # op -> name -> largest value seen
        self.op = None
        self.wrapped = []
        self.absent = []
        self._lambda_box = tuple(lambda_box)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, key: str, value: float = 1.0):
        self.counts[self.op][key] += value

    def record_max(self, key: str, value: float):
        seen = self.maxima[self.op]
        seen[key] = max(value, seen.get(key, value))

    def _wrap(self, name: str, fn, on_result=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name_id, 0.0, 0.0, parent, self.op]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of every dynr layer, plus the hooks."""
        layers = {}
        for layer in LAYERS:
            try:
                layers[layer] = importlib.import_module(f"dynr.{layer}")
            except ImportError:
                self.absent.append(f"{layer} (module)")
        modules = [m for n, m in sys.modules.items() if n == "dynr" or n.startswith("dynr.")]
        for layer, mod in layers.items():
            for attr, fn in sorted(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                self._rebind(modules, fn, self._wrap(name, fn, self._result_hook(name)))
                self.wrapped.append(name)
        self._install_draw_hook(modules)
        for name in _NAMED:
            if name not in self.wrapped:
                self.absent.append(name)

    def _install_draw_hook(self, modules):
        layer, attr = DRAW_HOOK.split(".")
        mod = sys.modules.get(f"dynr.{layer}")
        fn = getattr(mod, attr, None) if mod is not None else None
        if not isinstance(fn, types.FunctionType):
            self.absent.append(DRAW_HOOK)
            return
        lambda_box = self._lambda_box

        @functools.wraps(fn)
        def draw(rng, n, box, *args, **kwargs):
            if tuple(box) == lambda_box:
                self.count("verifier.lambda_draws")
            return fn(rng, n, box, *args, **kwargs)

        self._rebind(modules, fn, draw)

    @staticmethod
    def _rebind(modules, fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def _result_hook(self, name: str):
        hooks = []
        if name in TENSOR3_PRODUCERS:
            hooks.append(self._count_tensor3)
        extra = _RESULT_HOOKS.get(name)
        if extra is not None:
            hooks.append(functools.partial(extra, self))
        if not hooks:
            return None

        def on_result(result):
            for hook in hooks:
                hook(result)

        return on_result

    def _count_tensor3(self, result):
        data = getattr(result, "data", None)
        if type(result).__name__ == "Tensor3" and data is not None:
            self.count("tensor_alg.tensor3_bytes_computed", 16 * data.size)

    # -- output ------------------------------------------------------------

    def dump(self, path: str, extra: dict = None):
        """Write everything recorded as gzip-compressed sorted-key JSON."""
        doc = {
            "names": self.names,
            "spans": self.spans,
            "counts": [[op, dict(c)] for op, c in self.counts.items()],
            "maxima": [[op, dict(m)] for op, m in self.maxima.items()],
            "wrapped": self.wrapped,
            "absent": self.absent,
            **(extra or {}),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, sort_keys=True)

    def merge(self, doc: dict):
        """Append a child process's dump, remapping names and parents."""
        remap = [self._name_id(n) for n in doc["names"]]
        offset = len(self.spans)
        for name_id, start, end, parent, op in doc["spans"]:
            self.spans.append(
                [remap[name_id], start, end, parent + offset if parent >= 0 else -1, op]
            )
        for op, counts in doc["counts"]:
            for key, value in counts.items():
                self.counts[op][key] += value
        for op, maxima in doc["maxima"]:
            seen = self.maxima[op]
            for key, value in maxima.items():
                seen[key] = max(value, seen.get(key, value))
        for name in doc["absent"]:
            if name not in self.absent:
                self.absent.append(name)


def self_times(spans) -> list:
    """Per-span self time: duration minus the time covered by child spans.

    Spans nest (one thread, calls return in order), so the children of a
    span never overlap and their durations add up to their coverage.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _on_enumerate(tracer, result):
    tracer.count("combinatorics.subsets_found", len(result))


def _on_sampled_point(tracer, result):
    tracer.count("verifier.accepted_points")


def _on_limit(tracer, result):
    tracer.count("verifier.accepted_points", result.n_samples)


def _on_report(tracer, report):
    if report.passed:
        worst = max((c.max_residual / c.tolerance for c in report.checks), default=0.0)
        tracer.record_max("verifier.worst_tol_ratio", worst)


def _on_pair(tracer, report):
    tracer.count("verifier.accepted_points", report.samples_used)
    _on_report(tracer, report)


_RESULT_HOOKS = {
    "combinatorics.enumerate_closed_subsets": _on_enumerate,
    "verifier.sample_lambda": _on_sampled_point,
    "verifier.sample_spectral_point": _on_sampled_point,
    "verifier.limit_compare": _on_limit,
    "verifier.check_axioms": _on_report,
    "verifier.reduce_pair_check": _on_pair,
}

# Functions the per-layer metrics are defined on; any that is missing after
# install is reported as absent.
_NAMED = (
    "lie_core.build_simple_lie_algebra",
    "lie_core.build_root_system",
    "tensor_alg.bracket_legs",
    "tensor_alg.act_diag",
    "tensor_alg.alt3",
    "special_fn.theta1",
    "special_fn.theta1_dz",
    "special_fn.coth_scaled",
    "special_fn.classical_series",
    "rmatrix.eval_constant",
    "rmatrix.eval_spectral",
    "rmatrix.eval_rmatrix",
    "rmatrix.family_phi",
    "rmatrix.eval_dlambda",
    "rmatrix.pole_margin",
    "verifier.check_axioms",
    "verifier.cdybe_residual_constant",
    "verifier.cdybe_residual_spectral",
    "verifier.sample_lambda",
    "verifier.sample_spectral_point",
    "verifier.limit_compare",
    "verifier.reduce_pair_check",
    "verifier.affine_series_check",
    "combinatorics.enumerate_closed_subsets",
    "combinatorics.find_polarization",
    "combinatorics.is_closed_subset",
    "combinatorics.span_closure",
)


# Per-pass metrics: (name, unit, how, span names or counter).  "self" sums
# span self time, "incl" sums the duration of outermost spans of the group,
# "calls" counts spans, "count" reads a counter.
PASS_METRICS = (
    ("lie_core.build_calls", "count", "calls", ("lie_core.build_simple_lie_algebra",)),
    ("lie_core.pass_build_s", "s", "incl", ("lie_core.build_simple_lie_algebra",)),
    ("tensor_alg.bracket_s", "s", "self", ("tensor_alg.bracket_legs",)),
    ("tensor_alg.bracket_calls", "count", "calls", ("tensor_alg.bracket_legs",)),
    ("tensor_alg.act_diag_s", "s", "self", ("tensor_alg.act_diag",)),
    ("tensor_alg.alt3_s", "s", "self", ("tensor_alg.alt3",)),
    ("tensor_alg.tensor3_bytes_computed", "bytes", "count", "tensor_alg.tensor3_bytes_computed"),
    ("special_fn.theta_calls", "count", "calls", ("special_fn.theta1", "special_fn.theta1_dz")),
    ("special_fn.coth_calls", "count", "calls", ("special_fn.coth_scaled",)),
    ("special_fn.series_s", "s", "incl", ("special_fn.classical_series",)),
    ("rmatrix.eval_s", "s", "self", (
        "rmatrix.eval_constant", "rmatrix.eval_spectral", "rmatrix.eval_rmatrix",
        "rmatrix.family_phi")),
    ("rmatrix.eval_calls", "count", "calls", (
        "rmatrix.eval_constant", "rmatrix.eval_spectral", "rmatrix.family_phi")),
    ("rmatrix.dlambda_s", "s", "self", ("rmatrix.eval_dlambda",)),
    ("rmatrix.dlambda_calls", "count", "calls", ("rmatrix.eval_dlambda",)),
    ("rmatrix.pole_margin_s", "s", "self", ("rmatrix.pole_margin",)),
    ("rmatrix.pole_margin_calls", "count", "calls", ("rmatrix.pole_margin",)),
    ("verifier.check_axioms_s", "s", "incl", ("verifier.check_axioms",)),
    ("verifier.residual_s", "s", "self", (
        "verifier.cdybe_residual_constant", "verifier.cdybe_residual_spectral",
        "verifier.cdybe_residual")),
    ("verifier.residual_calls", "count", "calls", (
        "verifier.cdybe_residual_constant", "verifier.cdybe_residual_spectral")),
    ("verifier.sampler_s", "s", "incl", (
        "verifier.sample_lambda", "verifier.sample_spectral_point")),
    ("verifier.limit_s", "s", "incl", ("verifier.limit_compare",)),
    ("verifier.pair_s", "s", "incl", ("verifier.reduce_pair_check",)),
    ("verifier.series_s", "s", "incl", ("verifier.affine_series_check",)),
    ("combinatorics.enumerate_s", "s", "incl", ("combinatorics.enumerate_closed_subsets",)),
    ("combinatorics.subsets_found", "count", "count", "combinatorics.subsets_found"),
    ("combinatorics.polarize_s", "s", "incl", ("combinatorics.find_polarization",)),
    ("combinatorics.closure_calls", "count", "calls", (
        "combinatorics.is_closed_subset", "combinatorics.span_closure")),
    ("cli.process_s", "s", "count", "cli.process_s"),
    ("cli.main_s", "s", "count", "cli.main_s"),
    ("cli.exit_contract_violations", "count", "count", "cli.exit_contract_violations"),
)

# Measured once, on the traced set-up: cold builds, then the same builds
# reading a warm structure-constant cache.
SETUP_METRICS = (
    ("lie_core.build_s", "s", "setup", "lie_core.build_simple_lie_algebra"),
    ("lie_core.build_cached_s", "s", "setup-cached", "lie_core.build_simple_lie_algebra"),
    ("lie_core.root_system_s", "s", "setup", "lie_core.build_root_system"),
)


def summarize(tracer: Tracer, pass_of_op: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)}: medians over traced passes.

    ``pass_of_op`` maps each traced campaign op id to its pass number; spans
    of other ops (the traced set-up) feed only SETUP_METRICS.
    """
    spans, names = tracer.spans, tracer.names
    selfs = self_times(spans)
    passes = sorted(set(pass_of_op.values()))
    per_pass = {p: defaultdict(float) for p in passes}
    setup = defaultdict(float)
    groups = {}
    for metric, _, how, source in PASS_METRICS:
        if how in ("self", "incl", "calls"):
            for name in source:
                groups.setdefault(name, []).append((metric, how, frozenset(source)))

    for i, (name_id, start, end, parent, op) in enumerate(spans):
        name = names[name_id]
        layer = name.split(".", 1)[0]
        if op in ("setup", "setup-cached"):
            if not _has_ancestor(spans, names, parent, {name}):
                setup[(op, name)] += end - start
            continue
        bucket = per_pass.get(pass_of_op.get(op))
        if bucket is None:
            continue
        bucket[f"{layer}.self_s"] += selfs[i]
        for metric, how, members in groups.get(name, ()):
            if how == "self":
                bucket[metric] += selfs[i]
            elif how == "calls":
                bucket[metric] += 1
            elif not _has_ancestor(spans, names, parent, members):
                bucket[metric] += end - start

    for op, counts in tracer.counts.items():
        bucket = per_pass.get(pass_of_op.get(op))
        if bucket is not None:
            for key, value in counts.items():
                bucket[key] += value
    worst = {p: 0.0 for p in passes}
    for op, maxima in tracer.maxima.items():
        p = pass_of_op.get(op)
        if p in worst:
            worst[p] = max(worst[p], maxima.get("verifier.worst_tol_ratio", 0.0))

    def med(key):
        return statistics.median([per_pass[p].get(key, 0.0) for p in passes])

    out = {}
    for metric, unit, how, source in PASS_METRICS:
        out[metric] = (med(metric if how != "count" else source), unit)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    startup = [per_pass[p]["cli.process_s"] - per_pass[p]["cli.main_s"] for p in passes]
    out["cli.startup_s"] = (statistics.median(startup), "s")
    ratios = []
    for p in passes:
        draws = per_pass[p].get("verifier.lambda_draws", 0.0)
        ratios.append(per_pass[p].get("verifier.accepted_points", 0.0) / draws if draws else 0.0)
    out["verifier.sample_accept_ratio"] = (statistics.median(ratios), "ratio")
    out["verifier.worst_tol_ratio"] = (statistics.median(list(worst.values())), "ratio")
    for metric, unit, op, name in SETUP_METRICS:
        out[metric] = (setup.get((op, name), 0.0), unit)
    return out


def _has_ancestor(spans, names, parent: int, members) -> bool:
    while parent >= 0:
        if names[spans[parent][0]] in members:
            return True
        parent = spans[parent][3]
    return False


def op_profile(tracer: Tracer, op_ids, top: int = 3) -> dict:
    """{op id: [(function, self seconds), ...]} for the heaviest functions."""
    wanted = set(op_ids)
    per_op = defaultdict(lambda: defaultdict(float))
    for (name_id, _, _, _, op), own in zip(tracer.spans, self_times(tracer.spans)):
        if op in wanted:
            per_op[op][tracer.names[name_id]] += own
    return {
        op: sorted(fns.items(), key=lambda kv: -kv[1])[:top] for op, fns in per_op.items()
    }

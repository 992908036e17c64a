"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps the public boundary functions of each cegkit
module in every module namespace that binds them, so calls made through
``from .x import f`` bindings and through lazy in-function imports are
seen too.  Spans (layer, function, start, end, parent, command) stay in
memory until the run ends.  Nothing is installed until :meth:`install`,
and :meth:`uninstall` puts every original back, so untraced commands run
the unmodified program.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable

# layer -> (defining module, boundary functions).  `dot` runs only under
# `build --out` and `fixtures` only in set-up, so neither is wrapped.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "model_io": ("cegkit.model_io", ("load", "load_intervention", "load_query")),
    "event_tree": ("cegkit.event_tree", ("build_event_tree",)),
    "staging": (
        "cegkit.staging",
        (
            "staged_tree_from_document",
            "compute_stages",
            "declared_stages",
            "compute_positions",
        ),
    ),
    "ceg": (
        "cegkit.ceg",
        ("ceg_from_document", "build_ceg", "root_to_sink_paths", "is_fine_cut", "lambda_of"),
    ),
    "intervention": (
        "cegkit.intervention",
        (
            "conditioned_ceg",
            "validate_stochastic",
            "manipulation_from_indicators",
            "singular_manipulation",
            "manipulated_path_probability",
            "record_from_raw",
        ),
    ),
    "causal": (
        "cegkit.causal",
        (
            "brute_force_effect",
            "causal_effect_devent",
            "causal_effect_edge_level",
            "search_backdoor_partition",
            "check_backdoor_partition",
            "backdoor_adjustment",
            "partition_from_selectors",
            "remedial_breakdown",
            "forced_edge_effect",
            "idle_target_mass",
        ),
    ),
}
ROOT_LAYER = "cli"
LAYER_NAMES = (ROOT_LAYER,) + tuple(LAYERS)

COUNTERS = (
    "staging.compute_stages_calls",
    "staging.situations",
    "ceg.enumerations",
    "ceg.paths_enumerated",
    "ceg.path_prob_calls",
    "intervention.conditioned_graphs",
    "causal.candidates_checked",
    "causal.candidate_pass_ratio",
    "causal.comparisons",
)


def _situations(args, kwargs, result) -> dict:
    ptree = args[0] if args else kwargs.get("ptree")
    return {"staging.situations": len(ptree.tree.situations)}


# Work counters read from a boundary's arguments and result: (layer, function)
# -> hook(args, kwargs, result) returning the amounts to add.
WORK_COUNTS: dict[tuple[str, str], Callable] = {
    ("staging", "compute_stages"): lambda a, k, r: {
        "staging.compute_stages_calls": 1, **_situations(a, k, r)},
    ("staging", "declared_stages"): _situations,
    ("ceg", "root_to_sink_paths"): lambda a, k, r: {
        "ceg.enumerations": 1, "ceg.paths_enumerated": len(r.all)},
    ("intervention", "conditioned_ceg"): lambda a, k, r: {"intervention.conditioned_graphs": 1},
    ("causal", "check_backdoor_partition"): lambda a, k, r: {
        "causal.candidates_checked": 1,
        "causal.candidates_passed": int(r.passed),
        "causal.comparisons": len(r.comparisons),
    },
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, layer, fn, start, end, parent, command, error)
        self.counts: dict[int, dict[str, float]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._command = -1
        self._bindings: list[tuple[object, str, object, object]] = []
        self._prepare()

    # -- installation ----------------------------------------------------

    def _prepare(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cegkit" or name.startswith("cegkit."))
        ]
        for layer, (module_name, functions) in LAYERS.items():
            home = sys.modules.get(module_name)
            for fn in functions:
                original = getattr(home, fn, None) if home is not None else None
                if original is None:
                    # tolerate a boundary a later change removed
                    self.missing.append(f"{layer}.{fn}")
                    continue
                wrapper = self._wrap(layer, fn, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))
        ceg_module = sys.modules.get("cegkit.ceg")
        ceg_class = getattr(ceg_module, "Ceg", None)
        original = getattr(ceg_class, "path_probability", None)
        if original is None:
            self.missing.append("ceg.Ceg.path_probability")
        else:
            tracer = self

            def path_probability(graph, path):
                tracer._count("ceg.path_prob_calls", 1)
                return original(graph, path)

            self._bindings.append((ceg_class, "path_probability", original, path_probability))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- recording -------------------------------------------------------

    def _count(self, key: str, amount: float) -> None:
        bucket = self.counts.setdefault(self._command, {})
        bucket[key] = bucket.get(key, 0) + amount

    def _wrap(self, layer: str, fn: str, original: Callable) -> Callable:
        hook = WORK_COUNTS.get((layer, fn))
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(layer, fn, original, hook, args, kwargs)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", fn)
        return wrapper

    def call(self, layer, fn, original, hook, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        error = False
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            error = _is_ceg_error(exc)
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, layer, fn, start, end, parent, self._command, error)
        if hook is not None:
            for key, amount in hook(args, kwargs, result).items():
                self._count(key, amount)
        return result

    def command(self, command_id: int, run: Callable[[], object]):
        """Run one CLI command as the root span of ``command_id``."""
        self._command = command_id
        try:
            return self.call(ROOT_LAYER, "main", run, None, (), {})
        finally:
            self._command = -1

    # -- summaries -------------------------------------------------------

    def per_command(self) -> dict[int, dict[str, float]]:
        """Per-command layer self time, calls, errors and work counters."""
        out: dict[int, dict[str, float]] = {}
        covered = [0.0] * len(self.spans)
        layer_of = [s[1] for s in self.spans]
        for span in self.spans:
            _, _, _, start, end, parent, _, _ = span
            if parent >= 0:
                covered[parent] += end - start
        for span in self.spans:
            span_id, layer, _, start, end, parent, command, error = span
            row = out.setdefault(command, _empty_row())
            row[f"{layer}.self_ms"] += (end - start - covered[span_id]) * 1e3
            row[f"{layer}.calls"] += 1
            if error and (parent < 0 or layer_of[parent] != layer):
                row[f"{layer}.errors"] += 1
        for command, row in out.items():
            counts = self.counts.get(command, {})
            for key in COUNTERS:
                if key != "causal.candidate_pass_ratio":
                    row[key] = counts.get(key, 0)
            checked = counts.get("causal.candidates_checked", 0)
            row["causal.candidate_pass_ratio"] = (
                counts.get("causal.candidates_passed", 0) / checked if checked else None
            )
        return out


def _empty_row() -> dict[str, float]:
    row: dict[str, float] = {}
    for layer in LAYER_NAMES:
        row[f"{layer}.self_ms"] = 0.0
        row[f"{layer}.calls"] = 0
        row[f"{layer}.errors"] = 0
    return row


def _is_ceg_error(exc: BaseException) -> bool:
    errors = sys.modules.get("cegkit.errors")
    base = getattr(errors, "CegError", None)
    return base is not None and isinstance(exc, base)


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    """Median of each key over commands, skipping undefined (None) values."""
    keys = list(_empty_row()) + list(COUNTERS)
    out = {}
    for key in keys:
        values = [r[key] for r in rows if r.get(key) is not None]
        out[key] = statistics.median(values) if values else 0.0
    return out

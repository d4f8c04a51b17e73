"""Per-layer tracing of flexcert from outside the package.

A layer is one flexcert module: ratlinalg, quadsys, series, certify,
rigidity and fileio. The tracer wraps each public module-level function of
those modules in a span that records calls, inclusive time and self time
(inclusive time minus the time of nested spans). A layer's self time is
the sum of its functions' self times, so the time of an unwrapped helper
counts toward the span that called it.

The elementwise vector helpers of ratlinalg (`LEAF_HELPERS`) stay
unwrapped: they are called once per vector entry, so a span each would
cost more than the work it measures, and their time belongs to the
caller's layer.

`certify` and `series` bind ratlinalg functions with `from .ratlinalg
import ...`, so patching only the defining module would leave those calls
untraced. The tracer therefore replaces every binding of a wrapped
function in every loaded flexcert module, and restores all of them when
it is closed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

PACKAGE = "flexcert"
LAYERS = ("ratlinalg", "quadsys", "series", "certify", "rigidity", "fileio")

# functions that get their own per-layer metrics
NAMED = {
    "ratlinalg": ("solve_general", "kernel_basis", "solve_in_span_coefficients"),
    "quadsys": ("bilinear", "evaluate", "validate_and_symmetrize", "linearize", "reduce_degree"),
    "series": ("extend_step", "residual_order"),
    "certify": (
        "canonical_candidates",
        "span_closure_check",
        "span_closure_search",
        "second_order_obstruction_check",
        "replay_certificate",
    ),
    "rigidity": ("build_edge_system", "flexion_nontriviality"),
}

LEAF_HELPERS = frozenset({
    "ratlinalg.scalar",
    "ratlinalg.format_scalar",
    "ratlinalg.vector",
    "ratlinalg.zero_vector",
    "ratlinalg.vec_add",
    "ratlinalg.vec_sub",
    "ratlinalg.vec_scale",
    "ratlinalg.vec_neg",
    "ratlinalg.is_zero_vector",
})


def _coeff_bits(vec) -> int:
    bits = 0
    for x in vec:
        if isinstance(x, Fraction):
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


class Tracer:
    """Context manager that traces the flexcert package while active.

    Create it after flexcert is imported; entering patches, leaving
    restores. Statistics accumulate over every activation. `only`, a set
    of "layer.function" keys, limits wrapping to those functions.
    """

    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.extend_solved = 0
        self.span_hits = 0
        self.candidates = 0
        self.max_coeff_bits = 0
        self.candidate_degrees: list[int] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _observe(self, key: str, result) -> None:
        if key == "series.extend_step" and result is not None:
            self.extend_solved += 1
            self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result))
        elif key == "certify.span_closure_check" and result is not None:
            self.span_hits += 1
        elif key == "certify.canonical_candidates":
            self.candidates += len(result)
            self.candidate_degrees.extend(s.degree for s in result)

    def _wrap(self, key: str, fn):
        self.calls.setdefault(key, 0)
        self.total.setdefault(key, 0.0)
        self.self_time.setdefault(key, 0.0)
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        observe = self._observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[key] += 1
                total[key] += elapsed
                self_time[key] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            observe(key, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _targets(self) -> dict[object, object]:
        """Original function -> traced replacement, for every public
        module-level function of every layer."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                key = f"{layer}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and key not in LEAF_HELPERS
                    and (self.only is None or key in self.only)
                ):
                    targets[obj] = self._wrap(key, obj)
        return targets

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already active")
        targets = self._targets()
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                ):
                    continue
                for name, obj in list(vars(mod).items()):
                    try:
                        replacement = targets.get(obj)
                    except TypeError:  # unhashable module attribute
                        continue
                    if replacement is not None:
                        self._patches.append((mod, name, obj))
                        setattr(mod, name, replacement)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            mod, name, original = self._patches.pop()
            setattr(mod, name, original)
        self._stack.clear()

    # -- results ------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass per-layer metrics: every total is divided by `passes`."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self(layer) / passes
        for layer, fns in NAMED.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = self.calls.get(key, 0) / passes
                out[f"{key}.self_s"] = self.self_time.get(key, 0.0) / passes
                out[f"{key}.total_s"] = self.total.get(key, 0.0) / passes
        extends = self.calls.get("series.extend_step", 0)
        checks = self.calls.get("certify.span_closure_check", 0)
        out["series.extend_step.solved_ratio"] = self.extend_solved / extends if extends else 0.0
        out["certify.span_check_hit_ratio"] = self.span_hits / checks if checks else 0.0
        out["certify.candidates"] = self.candidates / passes
        out["series.max_coeff_bits"] = float(self.max_coeff_bits)
        return out

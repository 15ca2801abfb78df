"""Outside-in span recorder for the solver's layers.

Each hooked function is replaced, at the module attribute its caller
looks up, by a wrapper that records the span (layer, start, end,
parent span, return value). The solver modules bind some helpers at
import (``ur5`` and ``kuka`` import ``minimize``, ``pose_mismatch``,
``prepare_query`` and ``select_candidate`` by name), so those are
patched in the solver modules, not where they are defined. Spans stay
in memory and are folded into per-layer totals after each request. A
layer's self time is its spans' duration minus the time their child
spans cover, so the self times of all layers sum to the traced request
time.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer, module, attribute). Module "" is the package itself.
HOOKS = (
    ("solve_ik", "", "solve_ik"),
    ("iktypes.IKQuery", "iktypes", "IKQuery.__post_init__"),
    ("iktypes.prepare_query", "ur5", "prepare_query"),
    ("iktypes.prepare_query", "kuka", "prepare_query"),
    ("iktypes.select_candidate", "ur5", "select_candidate"),
    ("iktypes.select_candidate", "kuka", "select_candidate"),
    ("ur5.solve_detailed", "ur5", "solve_detailed"),
    ("ur5.reduce", "ur5", "wrist_position"),
    ("ur5.reduce", "ur5", "theta1_candidates"),
    ("ur5.reduce", "ur5", "planar_frame"),
    ("ur5.reduce", "ur5", "make_chain"),
    ("ur5.elbow_optimize", "ur5", "elbow_optimize"),
    ("ur5.fold_variants", "ur5", "fold_variants"),
    ("ur5.recover_angles", "ur5", "recover_angles"),
    ("kuka.solve_detailed", "kuka", "solve_detailed"),
    ("kuka.reduce", "kuka", "wrist_target"),
    ("kuka.reduce", "kuka", "make_chain"),
    ("kuka.seed_candidates_from_chain", "kuka", "seed_candidates_from_chain"),
    ("kuka.recover_candidates", "kuka", "recover_candidates"),
    ("kuka.reference_elbow", "kuka", "reference_elbow"),
    ("fabrik.pre_bend", "fabrik", "pre_bend"),
    ("fabrik.solve", "fabrik", "solve"),
    ("optimizer.minimize", "ur5", "minimize"),
    ("optimizer.minimize", "kuka", "minimize"),
    ("robots.pose_mismatch", "ur5", "pose_mismatch"),
    ("robots.pose_mismatch", "kuka", "pose_mismatch"),
    ("tracking.track", "tracking", "track"),
)
ROOT = "bench.request"  # the benchmark's own span around each request
LAYERS = tuple(dict.fromkeys([ROOT] + [layer for layer, _, _ in HOOKS]))
_SITES = tuple(f"{module}.{attr}".lstrip(".") for _, module, attr in HOOKS)
_LAYER_OF = tuple(layer for layer, _, _ in HOOKS) + (ROOT,)
_ROOT_INDEX = len(HOOKS)


class Tracer:
    """Installs the span wrappers and folds spans into per-layer totals."""

    def __init__(self, pkg, eps_tol: float):
        self.eps_tol = eps_tol
        self.self_s = defaultdict(float)  # layer -> self time over every request
        self.calls = Counter()  # layer -> calls, counted requests only
        self.counts = Counter()  # work counters, counted requests only
        self.absent = []  # hook sites missing from the package
        self._spans = []  # [site, start, end, parent, returned]
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for site, (_, module, attr) in enumerate(HOOKS):
            owner = getattr(pkg, module, None) if module else pkg
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(_SITES[site])
                continue
            self._patches.append((owner, leaf, original, self._wrap(site, original)))

    def _wrap(self, site: int, fn):
        spans, stack = self._spans, self._stack

        def wrapper(*args, **kwargs):
            span = [site, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                span[4] = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            return span[4]

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every present hook site; restore the originals on exit."""
        try:
            for owner, leaf, _, wrapper in self._patches:
                setattr(owner, leaf, wrapper)
            yield self
        finally:
            for owner, leaf, original, _ in self._patches:
                setattr(owner, leaf, original)

    def request(self, fn, *args, count: bool = True):
        """Run one request under the root span and fold its spans.

        Returns (fn's result, traced wall seconds). Calls and work
        counters are folded only when ``count`` is set, so that they
        cover exactly one pass over the inputs.
        """
        out = self._wrap(_ROOT_INDEX, fn)(*args)
        root = self._spans[0]
        self._fold(count)
        return out, root[2] - root[1]

    def _fold(self, count: bool) -> None:
        spans = self._spans
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        for span, self_time in zip(spans, own):
            self.self_s[_LAYER_OF[span[0]]] += self_time
            if count:
                self.calls[_LAYER_OF[span[0]]] += 1
                parent = spans[span[3]] if span[3] >= 0 else None
                self._count(_SITES[span[0]] if span[0] < _ROOT_INDEX else ROOT,
                            span[4], parent and _LAYER_OF[parent[0]])
        spans.clear()

    def _count(self, site: str, out, parent_layer) -> None:
        c = self.counts
        if site == "solve_ik":
            c[f"status.{out.status.value}"] += 1
            c["fabrik.sweeps"] += out.fabrik_iterations
            c["optimizer.iterations"] += out.optimizer_iterations
            c["optimizer.used"] += int(out.optimizer_used)
        elif site == "fabrik.solve":
            c["fabrik.converged"] += int(out.converged)
            if parent_layer == "ur5.solve_detailed":
                c["ur5.branches_reachable"] += 1
        elif site in ("ur5.minimize", "kuka.minimize"):
            c[f"optimizer.{out.status.value}"] += 1
            if site == "kuka.minimize":
                c["kuka.seeds_tried"] += 1
        elif site == "ur5.planar_frame":
            c["ur5.branches"] += len(out.l5d_options)
        elif site == "ur5.recover_angles":
            c["filter.enumerated"] += 1
        elif site == "kuka.recover_candidates":
            c["kuka.candidates"] += len(out)
            c["filter.enumerated"] += len(out)
        elif site in ("ur5.pose_mismatch", "kuka.pose_mismatch"):
            c["filter.admitted"] += int(out <= self.eps_tol)

"""Span tracer that wraps the package's public functions from outside.

Each traced function is replaced, at every module binding inside ``regdeph.*``
that holds the very same function object, by a wrapper that records one span:
name, start, end, parent span and thread.  Spans stay in memory; the caller
aggregates them per pass and writes them out when the run ends.  Nothing under
``src/`` is modified: ``uninstall`` puts every original binding back.

Worker threads (the ``disorder-scan`` thread pool) start with an empty span
stack; their spans take as parent the innermost open span of the thread that
installed the tracer, which is the call that is waiting on the pool.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs wrapped by identity.
TRACED = (
    ("geometry", "apply_disorder"),
    ("bath", "discretize_spectrum"),
    ("bath", "gaussian_peak_modes"),
    ("bath", "spectral_moments"),
    ("core", "spin_structure_factor"),
    ("core", "damping_weight"),
    ("core", "phase_weight"),
    ("core", "pair_factors"),
    ("core", "evolve"),
    ("core", "factor_curves"),
    ("core", "fidelity_curve"),
    ("regimes", "classify"),
    ("regimes", "disorder_average_weights"),
    ("codes", "find_pairing"),
    ("codes", "encode_adjacent"),
    ("codes", "encode_modulated"),
    ("codes", "subdecoherence_residual"),
    ("oracle", "default_truncation"),
    ("oracle", "coherent_vector"),
    ("oracle", "thermal_reduced_density"),
    ("oracle", "check_instance"),
    ("oracle", "default_suite"),
    ("config", "parse_config"),
    ("config", "config_hash"),
    ("config", "build_geometry"),
    ("config", "build_bath"),
    ("config", "build_state"),
    ("cli", "run_command"),
    ("cli", "main"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _shape_counts(name, args, kwargs, result):
    """Exact work counts computed from the arguments (and sizes) of one call."""
    if name == "core.factor_curves":
        times, bath = _arg(args, kwargs, 2, "times"), _arg(args, kwargs, 3, "bath")
        return {"kernel_elems": len(times) * bath.n_modes}
    if name == "core.spin_structure_factor":
        label, k_vecs = _arg(args, kwargs, 0, "label"), _arg(args, kwargs, 1, "k_vecs")
        return {"lm_bytes_max": len(label) * len(k_vecs) * 16}
    if name == "core.pair_factors":
        labels = _arg(args, kwargs, 0, "labels")
        n = len(labels) if hasattr(labels, "__len__") else 0
        return {"pairs": n * (n - 1)}
    if name == "regimes.disorder_average_weights":
        return {"samples": _arg(args, kwargs, 4, "n_samples")}
    if name == "oracle.default_truncation":
        return {"trunc_dim": int(result) + 1}
    if name in ("bath.discretize_spectrum", "bath.gaussian_peak_modes"):
        return {"n_modes": result.n_modes}
    return None


class Tracer:
    """Records spans around the functions in :data:`TRACED` while installed."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, thread)
        self.counts = []         # (name, {quantity: value})
        self._ids = itertools.count(1)
        self._stacks = defaultdict(list)
        self._home = None
        self._restore = []

    def install(self):
        import regdeph  # noqa: F401  (the package must be importable)

        self._home = threading.get_ident()
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "regdeph" or key.startswith("regdeph."))]
        for mod_name, fn_name in TRACED:
            module = sys.modules.get(f"regdeph.{mod_name}")
            if module is None:
                continue
            original = getattr(module, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        spans, counts, stacks, ids = self.spans, self.counts, self._stacks, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks[ident]
            if stack:
                parent = stack[-1]
            else:
                home = stacks.get(self._home)
                parent = home[-1] if ident != self._home and home else None
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, ident))
            extra = _shape_counts(name, args, kwargs, result)
            if extra:
                counts.append((name, extra))
            return result

        return wrapper

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = list(self.spans), list(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans, counts):
    """Per-function calls, busy time, self time and computed counts of one pass.

    Busy time is the sum of span durations; self time subtracts the part of
    each span's interval that its child spans cover (their union, so that
    overlapping children in pool threads are not counted twice).
    """
    children = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(lambda: defaultdict(float))
    for span_id, name, start, end, _, _ in spans:
        covered = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())]
        covered = [(s, e) for s, e in covered if e > s]
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - _union_length(covered)
    for name, extra in counts:
        for key, value in extra.items():
            if key.endswith("_max"):
                out[name][key] = max(out[name][key], value)
            else:
                out[name][key] += value
    return {name: dict(entry) for name, entry in out.items()}


def top_level_cover(spans):
    """Length of the union of the intervals of spans without a parent."""
    return _union_length([(s, e) for _, _, s, e, parent, _ in spans if parent is None])

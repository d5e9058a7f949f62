"""In-memory span tracer for the public functions of ``hadamard_jsr``.

The tracer wraps each function in ``TARGETS`` from outside the library: the
wrapper replaces the function in every ``hadamard_jsr`` module namespace
that holds it by name (``radius`` and ``chains`` both import
``spectral_radius_bracket``, for example), so calls between modules are
recorded too.  ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, and ``op`` the id of the benchmark op that caused
it, or ``SETUP``.  Spans are recorded only while ``op`` is not None, so
checks made by the benchmark itself stay out of the trace.

The per-layer metrics are averages per timed op, so that they do not grow
with the length of the timed window; set-up spans only feed
``instances.generate_instance.setup_self_s``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from time import perf_counter

TARGETS = {
    "instances": ("generate_instance",),
    "sets": ("set_product", "set_power", "set_sum", "set_adjoint",
             "set_hadamard_power", "set_hadamard_mean", "cyclic_factor",
             "symmetrize_ab", "dedupe"),
    "matrices": ("spectral_radius_bracket",),
    "radius": ("radius_bracket_set", "gelfand_sequence",
               "symmetrization_sequence", "symmetrization_sequence_ab"),
    "chains": ("run_theorem", "chain_zhan", "chain_huang", "assess"),
    "cli": ("run_command",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items()
                   for fn in fns)


SETUP = "setup"


def per_layer_metric_specs():
    """``(name, unit)`` of every per-layer metric, in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls_per_op", "count/op"))
        specs.append((f"{name}.self_ms_per_op", "ms/op"))
    specs += [("instances.generate_instance.setup_self_s", "s"),
              ("radius.radius_bracket_set.repeat_ratio", "ratio"),
              ("radius.radius_bracket_set.members_in_per_op", "count/op"),
              ("sets.dedupe.kept_ratio", "ratio"),
              ("matrices.spectral_radius_bracket.failed_per_op", "count/op"),
              ("trace.overhead_ratio", "ratio")]
    return specs


PACKAGE = "hadamard_jsr"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list = []
        self._rbs_keys: set = set()
        self.rbs_calls = 0
        self.rbs_repeats = 0
        self.rbs_members_in = 0
        self.dedupe_in = 0
        self.dedupe_out = 0
        self.srb_failed = 0

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or
                                         n.startswith(PACKAGE + "."))]
        for mod, names in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        count = (self._count_radius_bracket_set
                 if name == "radius.radius_bracket_set" else None)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        is_dedupe = name == "sets.dedupe"
        is_srb = name == "matrices.spectral_radius_bracket"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            timed = op != SETUP
            if count is not None and timed:
                count(signature.bind(*args, **kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_srb and timed:
                    self.srb_failed += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
            if is_dedupe and timed:
                self.dedupe_in += len(args[0] if args else kwargs["psi"])
                self.dedupe_out += len(result)
            return result

        return wrapper

    def _count_radius_bracket_set(self, bound) -> None:
        bound.apply_defaults()
        a = bound.arguments
        sigma = a["sigma"]
        # hashed, so the counter never holds member bytes
        h = hashlib.blake2b(sigma.members.tobytes(), digest_size=16)
        key = (sigma.members.shape, h.digest(), a["depth"], a["kind"],
               a["tol"], a["cap"], a["word_budget"])
        self.rbs_calls += 1
        self.rbs_members_in += len(sigma)
        if key in self._rbs_keys:
            self.rbs_repeats += 1
        else:
            self._rbs_keys.add(key)

    # -- results -------------------------------------------------------------
    def layer_metrics(self, ops: int) -> dict:
        """Calls and self time per span name and the counters, averaged
        over the ``ops`` timed ops; set-up spans count only towards the
        set-up time of ``generate_instance``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        setup_generate_s = 0.0
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op == SETUP:
                if name == "instances.generate_instance":
                    setup_generate_s += (end - start) - child[i]
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.self_ms_per_op"] = self_s[name] * 1e3 / ops
        out["instances.generate_instance.setup_self_s"] = setup_generate_s
        out["radius.radius_bracket_set.repeat_ratio"] = (
            self.rbs_repeats / self.rbs_calls if self.rbs_calls else 0.0)
        out["radius.radius_bracket_set.members_in_per_op"] = (
            self.rbs_members_in / ops)
        out["sets.dedupe.kept_ratio"] = (
            self.dedupe_out / self.dedupe_in if self.dedupe_in else 1.0)
        out["matrices.spectral_radius_bracket.failed_per_op"] = (
            self.srb_failed / ops)
        return out

    def write_spans(self, path) -> None:
        """One JSON array ``[name, start, end, parent, op]`` per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

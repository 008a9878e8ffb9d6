"""Spans and counters at the boundary of each moricone layer.

:meth:`Tracer.install` replaces the traced public functions with wrappers at
every module attribute that holds them.  That matters because ``scenario``,
``delpezzo``, ``blowup`` and ``cli`` bind the cone functions with
``from ... import``, so patching ``moricone.cones`` alone would miss their
calls.  A wrapper records a span (name, start, end, parent) only while an item
is running, so the benchmark's own output checks stay out of the trace.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Public functions wrapped per layer: the ones the workloads reach and an
# optimisation of a layer is most likely to move.
TRACED = {
    "cones": ("cone_from_rays", "contains", "cones_equal", "dual",
              "lp_feasible"),
    "delpezzo": ("minus_one_classes", "ne_generators", "nef_cone"),
    "blowup": ("relative_cones", "classify"),
    "certificates": ("certificate_from_dict", "certificate_to_dict",
                     "verify_chain", "verify_HE_hypotheses",
                     "verify_HEF_hypotheses", "build_product_certificates",
                     "tsukioka_factors"),
    "scenario": ("build_scenario", "verify_theorem", "claimed_nef_vectors",
                 "nef_generators_claimed", "ne_generators", "classify",
                 "classify_all", "not_fano_type_refutation"),
    "cli": ("run",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

ITEM = "item"


def clock() -> float:
    """CLOCK_MONOTONIC is one clock for every process on the host, so a
    parent can subtract a child's reading from its own."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []      # (name, start, end, parent index or None)
        self._stack: list[int] = []
        self.rays_in = 0           # cone_from_rays: input rays
        self.rays_kept = 0         # cone_from_rays: extremal rays returned
        self.dual_out_rays = 0
        self.members = 0           # contains: calls answering "member"

    def install(self) -> None:
        for mod in TRACED:
            importlib.import_module(f"moricone.{mod}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "moricone"
                                         or name.startswith("moricone."))]
        for mod, fns in TRACED.items():
            owner = sys.modules[f"moricone.{mod}"]
            for fn in fns:
                original = getattr(owner, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == "cones.cone_from_rays":
                # The rays may be a one-shot iterator: count a list copy.
                if len(args) > 1:
                    args = (args[0], list(args[1])) + args[2:]
                    self.rays_in += len(args[1])
                else:
                    kwargs["rays"] = list(kwargs["rays"])
                    self.rays_in += len(kwargs["rays"])
            out = self.span(name, fn, *args, **kwargs)
            if name == "cones.cone_from_rays":
                self.rays_kept += len(out.rays)
            elif name == "cones.dual":
                self.dual_out_rays += len(out.rays)
            elif name == "cones.contains":
                self.members += out.member
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span that is a child of the innermost open one."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index] = (name, start, clock(), parent)
            self._stack.pop()

    def summary(self) -> dict:
        """Per function: calls, total time (outermost activations only) and
        self time (span duration minus the time its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        total_s = dict.fromkeys(FUNCTIONS, 0.0)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == ITEM:
                continue
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if not self._has_ancestor(parent, name):
                total_s[name] += end - start
        return {
            "calls": calls, "self_s": self_s, "total_s": total_s,
            "counts": {"cone_from_rays.rays_in": self.rays_in,
                       "cone_from_rays.rays_kept": self.rays_kept,
                       "dual.out_rays": self.dual_out_rays,
                       "contains.members": self.members},
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """One JSON line per span: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")

    def _has_ancestor(self, parent, name) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

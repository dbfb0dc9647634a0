"""Per-layer tracing installed from outside the package.

``install(tracer)`` replaces each layer's public entry points with
wrappers that time the call and hand back its result (or re-raise its
exception) unchanged.  Class methods are patched on the class; module
functions are patched in every ``horders.*`` module that bound the same
function object, because ``from ... import`` copies the binding.  Private
helpers are not wrapped, so their time is self time of the public caller.

Self time of a call is its duration minus the durations of the wrapped
calls it made.  A wrapped call made directly inside a call of the same
name is merged into it (``LaurentJet.__sub__`` delegates to ``__add__``;
both count as one ``scalars.LaurentJet.add`` call).  Spans (name, start,
end, parent span, op id) are kept in memory for every layer above
``scalars``; the scalar layer is too fine-grained to keep one span per
call, so it is only aggregated.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (metric name, module, class, attribute) of wrapped methods.
METHODS = (
    ("scalars.Scalar.mul", "horders.scalars", "Scalar", "__mul__"),
    ("scalars.Scalar.inverse", "horders.scalars", "Scalar", "inverse"),
    ("scalars.LaurentJet.mul", "horders.scalars", "LaurentJet", "__mul__"),
    ("scalars.LaurentJet.add", "horders.scalars", "LaurentJet", "__add__"),
    ("scalars.LaurentJet.add", "horders.scalars", "LaurentJet", "__sub__"),
    ("scalars.LaurentJet.inverse", "horders.scalars", "LaurentJet", "inverse"),
    ("matrices.JetMatrix.matmul", "horders.matrices", "JetMatrix", "__matmul__"),
    ("matrices.JetMatrix.inverse", "horders.matrices", "JetMatrix", "inverse"),
    ("matrices.JetMatrix.agrees", "horders.matrices", "JetMatrix", "agrees"),
)

# (metric name, defining module, function name) of wrapped module functions.
FUNCTIONS = (
    ("orders.pattern_mul", "horders.orders", "pattern_mul"),
    ("orders.meets_pattern", "horders.orders", "meets_pattern"),
    ("orders.cyclic_normal_form", "horders.orders", "cyclic_normal_form"),
    ("basechange.verify_sh_pattern", "horders.basechange", "verify_sh_pattern"),
    ("basechange.descend_signature", "horders.basechange", "descend_signature"),
    ("involutions.wellformed", "horders.involutions", "wellformed"),
    ("involutions.residue_involution", "horders.involutions", "residue_involution"),
    ("involutions.anisotropy", "horders.involutions", "anisotropy"),
    ("involutions.distinguish", "horders.involutions", "distinguish"),
    ("involutions.diagonalize_form", "horders.involutions", "diagonalize_form"),
    ("witness.verify_witness", "horders.witness", "verify_witness"),
    ("witness.transport_check", "horders.witness", "transport_check"),
    ("witness.replay", "horders.witness", "replay"),
    ("session.parse_session", "horders.session", "parse_session"),
    ("session.run_session", "horders.session", "run_session"),
    ("cli.main", "horders.cli", "main"),
)

# Results of these calls are scanned for the largest numerator or
# denominator bit length; the scan is excluded from every self time.
SCANNED = {"matrices.JetMatrix.matmul", "matrices.JetMatrix.inverse"}

NAMES = tuple(dict.fromkeys(m[0] for m in METHODS + FUNCTIONS))


class Tracer:
    """Call counts, self times and spans of wrapped calls in one process."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in NAMES}  # calls, self_s, failed
        self.spans: list[tuple] = []
        self.max_bits = 0
        self.op_id: int | None = None
        # open frames: [name, child time, own span id or None, nearest kept span id]
        self._stack: list[list] = []
        self._next_id = 0

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        kept = not name.startswith("scalars.")
        span_id = None
        if kept:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, span_id, span_id if kept else (stack[-1][3] if stack else None)]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, start, perf_counter(), True)
            raise
        self._close(frame, start, perf_counter(), False)
        if name in SCANNED:
            t0 = perf_counter()
            self.max_bits = max(self.max_bits, matrix_bits(result))
            if stack:
                stack[-1][1] += perf_counter() - t0
        return result

    def _close(self, frame, start: float, end: float, failed: bool) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        stat = self.stats.setdefault(frame[0], [0, 0.0, 0])
        stat[0] += 1
        stat[1] += duration - frame[1]
        stat[2] += failed
        parent_kept = stack[-1][3] if stack else None
        if stack:
            stack[-1][1] += duration
        if frame[2] is not None:
            self.spans.append((frame[2], frame[0], start, end, parent_kept, self.op_id))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def matrix_bits(m) -> int:
    best = 0
    for row in m.rows:
        for jet in row:
            for c in jet.coeffs:
                for q in c.parts:
                    best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def _wrapper(tracer: Tracer, name: str, fn):
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    wrapped.__name__ = getattr(fn, "__name__", name)
    wrapped.__qualname__ = getattr(fn, "__qualname__", name)
    wrapped.__doc__ = fn.__doc__
    wrapped.__wrapped__ = fn
    return wrapped


def install(tracer: Tracer):
    """Wrap every entry point of every imported horders module; returns a
    function that restores the originals."""
    undo = []
    for name, modname, cls_name, attr in METHODS:
        cls = getattr(sys.modules[modname], cls_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrapper(tracer, name, original))
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "horders" or key.startswith("horders."))]
    for name, modname, fname in FUNCTIONS:
        if modname not in sys.modules:
            continue
        original = getattr(sys.modules[modname], fname)
        wrapped = _wrapper(tracer, name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def restore():
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)

    return restore


def gauge_cache_info():
    """(hits, misses) of the involutions gauge-inverse cache, or None
    once the package no longer has it."""
    mod = sys.modules.get("horders.involutions")
    info = getattr(getattr(mod, "_gauge_inverse", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses

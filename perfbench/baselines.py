#!/usr/bin/env python3
"""Re-measure the single-operation baselines quoted in ROADMAP.md.

Run from the root of a checkout::

    python3 perfbench/baselines.py

Prints the median, minimum and maximum of REPEAT runs of each
operation.  The working precision is passed explicitly where it matters;
the process-wide default is never changed.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

REPEAT = 5


def timed(fn) -> list[float]:
    out = []
    for _ in range(REPEAT):
        t0 = perf_counter()
        fn()
        out.append(perf_counter() - t0)
    return out


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "horders" / "__init__.py").is_file():
        print("error: run from the root of a horders checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import horders as h
    from horders.scalars import Q

    quat = h.QUATERNION
    _, _, w_fiber, _ = h.counterexample_pair(quat, 2, 1)
    order = h.BlockOrder(h.DivisionSpec("D"), h.Signature((6, 6)))
    diag = [h.LaurentJet.constant(h.BASE, (-1) ** i) for i in range(6)]
    diag += [h.LaurentJet.t_power(h.BASE, 1, (-1) ** i) for i in range(6)]
    spec66 = h.InvolutionSpec(order, h.JetMatrix.diagonal(diag))
    jet = h.LaurentJet(quat, 0, (h.Scalar.of(quat, 1, 2, -1, 3), h.Scalar.of(quat, Q(1, 2), 1, 1, -2),
                                 h.Scalar.of(quat, 0, 1, 3, 1)))
    a, b = h.Scalar.of(quat, Q(3, 7), Q(-2, 5), Q(1, 3), Q(5, 11)), h.Scalar.of(quat, Q(2, 9), Q(4, 3), Q(-1, 6), Q(7, 5))

    def scalar_mul():
        for _ in range(1000):
            a * b

    cases = [(f"replay {name}", lambda name=name: h.replay(name), 1000.0, "ms")
             for name in ("main-orthogonal", "main-unitary", "main-symplectic")]
    cases += [
        ("transport_check quaternion wF, 50 samples",
         lambda: h.transport_check(w_fiber, 50), 1000.0, "ms"),
        ("wellformed (6,6) diagonal gauge", lambda: h.wellformed(spec66), 1000.0, "ms"),
        ("quaternion jet inverse P=16", lambda: jet.inverse(16), 1000.0, "ms"),
        ("quaternion jet inverse P=64", lambda: jet.inverse(64), 1000.0, "ms"),
        ("quaternion Scalar.__mul__", scalar_mul, 1000.0, "us"),
    ]
    print(f"python {sys.version.split()[0]}, {REPEAT} runs each, default precision "
          f"{h.default_precision()}")
    for label, fn, scale, unit in cases:
        samples = [s * scale for s in timed(fn)]
        print(f"  {label:<45} median {statistics.median(samples):9.3f} {unit}  "
              f"(min {min(samples):.3f}, max {max(samples):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

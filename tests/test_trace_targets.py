"""The traced benchmark run wraps library entry points by name; every
name it lists must still exist where it looks for it."""

import importlib
import importlib.util
from pathlib import Path

from horders.matrices import JetMatrix
from horders.scalars import QUATERNION, LaurentJet, Q, Scalar

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_methods_are_defined_on_their_classes():
    tracing = load_tracing()
    for _, modname, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), cls_name)
        assert attr in cls.__dict__, f"{modname}.{cls_name}.{attr}"


def test_wrapped_functions_exist():
    tracing = load_tracing()
    for _, modname, fname in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), fname, None)), \
            f"{modname}.{fname}"


def test_scalar_parts_carry_numerator_and_denominator():
    tracing = load_tracing()
    s = Scalar.of(QUATERNION, Q(3, 4), -2, 0, Q(1, 6))
    for q in s.parts:
        assert hasattr(q, "numerator") and hasattr(q, "denominator")
    m = JetMatrix.of([[LaurentJet.constant(QUATERNION, s)]])
    assert tracing.matrix_bits(m) == 3  # 3/4, -2, 0, 1/6: each part is in lowest terms

"""The traced benchmark run wraps library entry points by name; every
name it lists must still exist where it looks for it, and every call the
benchmark makes into the library must still be accepted."""

import importlib
import importlib.util
from pathlib import Path

import horders
from horders.cli import main
from horders.matrices import JetMatrix
from horders.scalars import QUATERNION, LaurentJet, Q, Scalar, TruncatedJet

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


def test_the_calls_perfbench_makes_are_accepted(tmp_path, capsys):
    # baselines.py prints default_precision() and times these two series
    # inverses; workloads.py passes seed= to run_session and replay and
    # --precision to the cli; baselines.py passes 50 samples
    assert horders.default_precision() == 16
    jet = LaurentJet(QUATERNION, 0, (Scalar.of(QUATERNION, 1, 2, -1, 3),
                                     Scalar.of(QUATERNION, Q(1, 2), 1, 1, -2),
                                     Scalar.of(QUATERNION, 0, 1, 3, 1)))
    for precision in (16, 64):
        inv = jet.inverse(precision)
        assert type(inv) is TruncatedJet and inv.precision == precision
    session = horders.parse_session(
        "division D = base s=1 t=1\norder A = block(D; 1)\n"
        "involution s on A : gauge diag(1 + t) eps +1 conj none\n"
        "check w = wellformed(s) expect true\n")
    assert horders.run_session(session, seed=1).ok
    assert horders.replay("main-orthogonal", seed=1).ok
    _, _, w_fiber, _ = horders.counterexample_pair(QUATERNION, 2, 1)
    assert horders.transport_check(w_fiber, 50).ok
    path = tmp_path / "s.ho"
    path.write_text(horders.print_session(session))
    assert main(["check", str(path), "--json", "--precision", "64"]) == 0
    assert '"ok": true' in capsys.readouterr().out

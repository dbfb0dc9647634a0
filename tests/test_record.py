"""The value-class contract of ``horders.errors.record``, for every record
class of the package: repr text, class-strict equality, tuple hashing,
immutability, argument binding and ``__post_init__`` checks."""

import hashlib
import importlib
import pickle
import pkgutil

import pytest

import horders
from horders.errors import Diagnostics, SizeMismatch, _frozen_setattr, failure, record
from horders.scalars import BASE, LaurentJet, Scalar, ScalarKind, TruncatedJet, quadratic
from horders.matrices import JetMatrix, Tau
from horders.orders import BlockOrder, DivisionSpec, PatternMatrix, SemisimpleOrder, Signature
from horders.basechange import ShResult
from horders.involutions import (
    DistinguishResult,
    InvolutionSpec,
    IsotropyResult,
    ResidueBlock,
    ResidueInvolution,
)
from horders.witness import (MODE_F, ReplayReport, RingMode, StepResult, WitnessCheck,
                             counterexample_pair, mode_etale)
from horders.session import CheckDecl, CheckResult, Declaration, Report, Session, _Check

ONE = LaurentJet.one(BASE)
UNIT = Scalar.one(BASE)
GAUGE = JetMatrix(BASE, ((ONE,),))
ORDER = BlockOrder(DivisionSpec("D"), Signature((1,)))
SPEC = InvolutionSpec(ORDER, GAUGE)
STEP = StepResult("iso", "true", "false", False)
RESULT = CheckResult("c", "iso", "true", "true", True, 0.25)
DECLARATION = Declaration("order", "A", ORDER)

# One representative instance of each record class.
SAMPLES = [
    failure("X", "y"), BASE, quadratic(-1).extended(2), UNIT, ONE, TruncatedJet(ONE, 2), GAUGE,
    DivisionSpec("D"), Signature((1, 2)), ORDER, SemisimpleOrder((ORDER,)), PatternMatrix(((0,),)),
    ShResult(ORDER, (0,)), SPEC, ResidueBlock(1, 0, ((UNIT,),)),
    ResidueInvolution(BASE, 1, (ResidueBlock(1, 0, ((UNIT,),)),)),
    IsotropyResult("anisotropic", (1, 0)), DistinguishResult("distinguished", "why"),
    mode_etale(-1), WitnessCheck(GAUGE, ONE, MODE_F, SPEC, SPEC), STEP,
    ReplayReport("main-orthogonal", (STEP,), 0.5), CheckDecl("c", "iso", ("A", "A"), (), "true"),
    DECLARATION, Session((DECLARATION,)), RESULT, Report((RESULT,)), _Check(("int",), len),
]
# Record classes added since the dataclass era; the repr digest below
# covers only SAMPLES, and test_repr_keeps_the_dataclass_text spells these out.
LATER = [Tau(GAUGE)]
EVERY = SAMPLES + LATER
# Classes that canonicalise their input in an __init__ of their own.
OWN_INIT = (Scalar, LaurentJet)
# sha256 of the reprs of SAMPLES, one per line, as the dataclass-era
# classes printed them (LaurentJet without its dropped ``precision=None``).
REPR_SHA256 = "b2291e3929b9c90719613e4366d94188ca8b1807ad95bf2405784ee1ee8022ef"


def record_classes() -> set:
    found = set()
    for info in pkgutil.iter_modules(horders.__path__, "horders."):
        module = importlib.import_module(info.name)
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and obj.__setattr__ is _frozen_setattr}
    return found


def values(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def test_every_record_class_has_a_sample():
    assert {type(x) for x in EVERY} == record_classes()
    assert len(SAMPLES) == 28 and len(LATER) == 1


def test_repr_keeps_the_dataclass_text():
    assert repr(BASE) == "ScalarKind(core='base', d=None, ext=None)"
    assert repr(failure("X", "y")) == "Diagnostics(ok=False, code='X', detail='y')"
    assert repr(STEP) == "StepResult(name='iso', expected='true', actual='false', ok=False)"
    assert repr(mode_etale(-1)) == "RingMode(ring='etale', d=-1)"
    assert repr(MODE_F) == "RingMode(ring='generic-fiber', d=None)"
    assert repr(Tau(GAUGE)) == f"Tau(m={GAUGE!r})"
    text = "".join(repr(x) + "\n" for x in SAMPLES)
    assert hashlib.sha256(text.encode()).hexdigest() == REPR_SHA256


@pytest.mark.parametrize("x", EVERY, ids=lambda x: type(x).__name__)
def test_equality_and_hash_follow_the_fields(x):
    assert x == x and not x != x
    assert hash(x) == hash(values(x))
    assert pickle.loads(pickle.dumps(x)) == x
    for y in EVERY:
        if type(y) is not type(x):
            assert x != y and not x == y
    assert x != values(x)


@pytest.mark.parametrize("x", EVERY, ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_or_deleted(x):
    name = type(x).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown = 1
    assert getattr(x, name) is values(x)[0]


@pytest.mark.parametrize("x", [x for x in EVERY if not isinstance(x, OWN_INIT)],
                         ids=lambda x: type(x).__name__)
def test_arguments_bind_like_parameters(x):
    cls, names = type(x), type(x).__match_args__
    assert cls(*values(x)) == x
    assert cls(**dict(zip(names, values(x)))) == x
    assert cls(*values(x)[:1], **dict(zip(names[1:], values(x)[1:]))) == x
    with pytest.raises(TypeError, match="missing"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values(x), bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values(x), **{names[0]: values(x)[0]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values(x), None)


def test_defaults_are_the_class_attributes():
    assert Diagnostics(True) == Diagnostics(True, None, "")
    assert DivisionSpec("D") == DivisionSpec(label="D", kind=BASE, s=1, t=1)
    assert Declaration("order", "A", ORDER).refs == ()


def test_post_init_checks_still_raise():
    with pytest.raises(ValueError, match="unknown ring mode"):
        RingMode("bogus")
    with pytest.raises(SizeMismatch, match="square"):
        JetMatrix(BASE, ((ONE, ONE),))
    with pytest.raises(ValueError):
        ScalarKind("quad", 3)
    with pytest.raises(ValueError):
        Signature(())


def test_core_dim_and_dim_are_not_fields():
    kind = quadratic(-1).extended(2)
    assert (kind.core_dim, kind.dim) == (2, 4)
    assert kind.__match_args__ == ("core", "d", "ext")
    assert hash(kind) == hash(("quad", -1, 2))


def test_basis_products_is_computed_once_per_instance(monkeypatch):
    import horders.scalars as scalars
    calls = []
    core_mul = scalars._core_mul
    monkeypatch.setattr(scalars, "_core_mul", lambda *a: calls.append(a) or core_mul(*a))
    kind = ScalarKind("quat", None, 3)
    table = kind.basis_products
    assert len(calls) == kind.core_dim ** 2  # an extended table is read off the core's
    assert kind.basis_products is table and len(calls) == kind.core_dim ** 2
    assert ScalarKind("quat", None, 3).basis_products == table


def test_extended_kinds_are_made_once_per_kind():
    kind = ScalarKind("quat")
    ext = kind.extended(-1)
    assert kind.extended(-1) is ext and ext == ScalarKind("quat", None, -1)
    assert kind.extended(2) is not ext
    # the memo is no field, and a refused discriminant is refused every time
    assert (kind, hash(kind), repr(kind)) == (ScalarKind("quat"), hash(ScalarKind("quat")),
                                             "ScalarKind(core='quat', d=None, ext=None)")
    for _ in range(2):
        with pytest.raises(TypeError):
            kind.extended(-1.0)
        with pytest.raises(ValueError, match="square-free and not a square"):
            kind.extended(4)
        with pytest.raises(ValueError, match="already extended"):
            ext.extended(-1)
    assert pickle.loads(pickle.dumps(kind)).extended(-1) == ext
    # the bundled counterexample builds its etale kind once
    assert counterexample_pair()[3].u.kind is counterexample_pair()[3].u.kind


def test_a_class_keeps_the_methods_it_defines():
    @record
    class Pair:
        a: int
        b: int = 2

        def __repr__(self):
            return "pair"

    assert repr(Pair(1)) == "pair"
    assert Pair(1) == Pair(a=1, b=2) and hash(Pair(1)) == hash((1, 2))

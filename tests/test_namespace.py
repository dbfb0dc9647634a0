"""The package namespace: ``import horders`` loads no submodule, the first
use of a name loads only the submodules it needs, and every public name
is the object its defining module holds."""

import importlib
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import horders

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# A fresh interpreter (no site) that runs a snippet after ``import
# horders`` and prints the submodules it loaded.
PRELUDE = f"""
import importlib.util, sys
sys.path[:0] = [{str(ROOT / "src")!r}]

def load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  {str(PERFBENCH)!r} + "/" + name + ".py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

def loaded():
    return sorted(m for m in sys.modules if m.startswith("horders."))

import horders as h
"""

# What the patterns workload touches: every query of one seed-61 cycle,
# run through perfbench/patterns.py's bind, and the errors module its
# checks read.
PATTERNS = """
patterns = load("patterns")
from horders import errors
for i in range(patterns.CYCLE):
    try:
        patterns.bind(patterns.make_query(61, i), h)()
    except errors.HordersError:
        pass
"""


def fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-S", "-c", PRELUDE + code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_package_loads_no_submodule():
    assert fresh("print(loaded(), set(h.__all__) <= set(dir(h)), loaded())") == "[] True []"


def test_the_patterns_surface_loads_only_the_order_layers():
    assert fresh(PATTERNS + "print(loaded())") == str(
        ["horders.basechange", "horders.errors", "horders.matrices", "horders.orders",
         "horders.scalars"])


def test_replay_loads_no_session_module():
    out = fresh("print(all(h.replay(name).ok for name in h.SCENARIOS), loaded())")
    assert out == "True " + str(["horders.basechange", "horders.errors", "horders.involutions",
                                 "horders.matrices", "horders.orders", "horders.scalars",
                                 "horders.witness"])


def test_a_submodule_is_an_attribute_before_anything_imports_it():
    assert fresh("print(h.scalars.__name__, loaded())") == \
        "horders.scalars ['horders.errors', 'horders.scalars']"


def test_tracing_installs_and_restores_over_the_patterns_surface():
    # perfbench/tracing.py patches the classes of horders.scalars and
    # horders.matrices, so the patterns surface must have loaded both
    out = fresh(PATTERNS + """
tracing = load("tracing")
def bindings():
    return {(key, attr): value for key in loaded() + ["horders"]
            for obj in [sys.modules[key]] + [v for v in vars(sys.modules[key]).values()
                                            if isinstance(v, type)]
            for attr, value in list(vars(obj).items())}
before = bindings()
tracer = tracing.Tracer()
restore = tracing.install(tracer)
h.verify_sh_pattern(1, 2, h.Signature((1, 1)))
restore()
after = bindings()
print(tracer.stats["basechange.verify_sh_pattern"][0],
      before.keys() == after.keys() and all(after[k] is v for k, v in before.items()))
""")
    assert out == "1 True"


def test_every_public_name_is_its_defining_modules_object():
    for name in horders.__all__:
        module = importlib.import_module(f"horders.{horders._MODULE_OF[name]}")
        value = getattr(module, name)
        assert getattr(horders, name) is value, name
        if isinstance(value, (type, FunctionType)):
            assert value.__module__ == module.__name__, name


def test_import_star_binds_exactly_all():
    namespace = {}
    exec("from horders import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(horders.__all__)
    assert horders.__all__ == sorted(set(horders.__all__))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'horders' has no attribute 'no_such_name'"):
        horders.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from horders import no_such_name", {})

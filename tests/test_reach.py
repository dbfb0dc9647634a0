"""tools/reach.py: the functions of src/horders that the measured traffic
never enters."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"src/horders/(\w+)\.py:\d+ (\S+) \((\d+)\)$")

# Every function no measured traffic enters, per module.  ROADMAP item 13
# says why each stays; a change that adds such a function, or starts to
# enter one, updates this table and that item together.  Among them:
# no workload multiplies jet matrices, so a working trace lists
# JetMatrix.__matmul__; the failure rows' NotStable gauge reaches the
# row-by-row pass, so JetMatrix.inverse_valuations is not listed.
# Session.divisions is a public table, like Session.orders: a check holds
# its resolved arguments, so running one reads no table.
UNENTERED = {
    "__init__": {"__dir__"},
    "errors": {"_frozen_setattr", "_frozen_delattr", "record.__setstate__",
               "Diagnostics.__bool__"},
    "involutions": {"DistinguishResult.distinguished", "apply_sigma",
                    "diagonalize_form.col_swap", "_represent_int", "anisotropy"},
    "matrices": {"JetMatrix._check", "JetMatrix.__neg__", "JetMatrix.__matmul__",
                 "JetMatrix.conj_transpose", "JetMatrix.agrees", "JetMatrix.inverse",
                 "JetMatrix.__str__", "_decode"},
    "orders": {"PatternMatrix.__post_init__", "contains", "in_radical", "ss_iso_decide_fixed"},
    "scalars": {"default_precision", "Scalar.one", "Scalar.__sub__", "Scalar.__neg__",
                "Scalar.times", "Scalar.inverse", "_solutions", "LaurentJet.__add__",
                "LaurentJet.__neg__", "LaurentJet.__sub__", "LaurentJet.inverse",
                "LaurentJet.__pow__", "TruncatedJet.__str__"},
    "session": {"_Cursor.col", "_Cursor.at", "_width", "_size", "_work", "_multiplier_bits",
                "_product", "_raised", "Session.divisions", "_Parser._validate_check.error",
                "_format_arg", "print_session"},
    "witness": {"RingMode.__str__"},
}


def test_reach_lists_what_no_traffic_enters():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *rows, total = proc.stdout.splitlines()
    listed = [LINE.match(row).groups() for row in rows]
    assert {(module, name) for module, name, _ in listed} == {
        (module, name) for module, names in UNENTERED.items() for name in names}
    assert total == f"{len(listed)} functions, {sum(int(n) for *_, n in listed)} lines never entered"

"""tools/reach.py: the functions of src/horders that the measured traffic
never enters."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"src/horders/\w+\.py:\d+ (\S+) \((\d+)\)$")
DELETED = ("JetMatrix.zeros", "JetMatrix.identity", "JetMatrix.unit", "JetMatrix.__add__",
           "JetMatrix.__sub__", "JetMatrix.map", "JetMatrix.shift", "JetMatrix.is_zero",
           "Signature.block_of", "Scalar.sqrt_gen", "Scalar.norm", "Scalar.rational",
           "ScalarKind.unextended", "LaurentJet.residue", "LaurentJet.shift",
           "PatternMatrix.__getitem__", "emit", "Scalar._norm_num", "JetMatrix.is_exact",
           "LaurentJet.agrees", "_parse_factor", "_parse_atom", "_monomial_power", "_span", "_bits")


def test_reach_lists_what_no_traffic_enters():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *rows, total = proc.stdout.splitlines()
    listed = [LINE.match(row).groups() for row in rows]
    names = {name for name, _ in listed}
    # no workload multiplies jet matrices, so a working trace lists it
    assert "JetMatrix.__matmul__" in names
    # the failure rows' NotStable gauge reaches the row-by-row pass
    assert not names & {"wellformed", "verify_witness", "pattern_mul",
                        "JetMatrix.inverse_valuations"}
    assert not names & set(DELETED)
    assert total == f"{len(listed)} functions, {sum(int(n) for _, n in listed)} lines never entered"

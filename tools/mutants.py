#!/usr/bin/env python3
"""Mutation check of the proof-backed code of ``src/horders``.

Run from the root of a checkout (stdlib only, with pytest installed to
run the tests; not part of tier-1)::

    python3 tools/mutants.py             # every mutant on the list
    python3 tools/mutants.py NAME ...    # the named mutants
    python3 tools/mutants.py --list      # names, files and tests only

Each entry of ``MUTANTS`` is (name, file, old text, new text, test): a
small textual change that breaks a bound or a rule a proof rests on, and
the pytest node id of a test that must fail with it.  ``src``, ``tests``,
``perfbench``, ``tools`` and ``pyproject.toml`` are copied once to a
temporary directory; each mutant replaces its old text there, which must
occur exactly once in its file, runs its test with ``PYTHONPATH=src``
and no bytecode written, and puts the file back.  A mutant is killed
when its test fails, cannot be collected (a mutant that breaks an
import) or runs past ``TIMEOUT_S``; every test on the list must pass on
the unmutated copy first, so a test name that matches nothing stops the
run there.  Each mutant prints one line, ``killed``, ``SURVIVED`` or
``STALE`` (its old text does not occur exactly once), and a total
follows.  The exit status is 1 if any mutant
survives or is stale, so a list that no longer matches the code fails
loudly instead of passing; 0 otherwise.  A change to a function a mutant
names should run this script and update that mutant with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "tools", "pyproject.toml")
TIMEOUT_S = 600

INV, MAT, SCA = "src/horders/involutions.py", "src/horders/matrices.py", "src/horders/scalars.py"
T_INV, T_MAT = "tests/test_involutions.py", "tests/test_matrices.py"
STABLE_DIAGONAL = f"{T_INV}::test_unbalanced_diagonal_gauge_is_not_stable"
MULTI_BLOCK = f"{T_INV}::test_identity_gauge_fails_on_a_multi_block_order"
JET_PRODUCTS = f"{T_MAT}::test_first_difference_matches_the_jet_products"
D_PLUS_ONE = f"{T_MAT}::test_an_open_component_is_evaluated_at_d_plus_one_points"
LEAST_ROTATION = ("tests/test_orders.py::"
                  "test_cyclic_normal_form_is_the_least_rotation_with_many_ties_and_periods[long]")

# (name, file, old text, new text, the test that must fail).  A mutant that
# only makes a sufficient test stricter, or a pass slower, changes no
# verdict, so each one here loosens a bound or breaks a rule.
MUTANTS = [
    # the chain test of _maps_chain_to_dual, which may accept a stable gauge
    # without the row-by-row pass: its inequality, its k, its missing block
    ("chain-inequality", INV, "if v is not None and v + k + (cc < c) + (bb < b) < 0:",
     "if v is not None and v + k + (cc < c) + (bb < b) < -1:", STABLE_DIAGONAL),
    ("chain-k", INV, "k = (-start - delta - starts[c]) // n",
     "k = (-start - delta - starts[c]) // n + 1", STABLE_DIAGONAL),
    ("chain-missing-block", INV, "        if c is None:\n            return False",
     "        if c is None:\n            continue", MULTI_BLOCK),
    # delta = v(det a), read off the row lows of unit components
    ("delta", MAT, "            total += sum(lows)\n", "            total += sum(lows) + 1\n",
     f"{T_MAT}::test_delta_is_the_least_exponent_of_the_leibniz_determinant"),
    # the three readings of a component: unit, singular, open
    ("readings-unit", MAT, "                    units.append((comp, lows))",
     "                    opened.append((comp, None))",
     f"{T_MAT}::test_a_zero_row_is_singular_without_an_evaluation"),
    ("readings-singular", MAT, "            yield comp, []\n", "            yield comp, None\n",
     f"{T_MAT}::test_a_zero_row_is_singular_without_an_evaluation"),
    ("readings-open", MAT, "opened.append((comp, None))", "opened.append((comp, []))",
     f"{T_INV}::test_one_by_one_components_match_the_solve"),
    # the row-by-row pass of _require_stable
    ("row-by-row", INV, "if vk + pij + w[k] < 0:", "if vk + pij + w[k] < -1:", MULTI_BLOCK),
    # the sign of an epsilon = -1 hermitian check
    ("hermitian-sign", INV, "                if epsilon == -1:\n",
     "                if epsilon == 2:\n", f"{T_INV}::test_epsilon_minus_one_gauge_is_wellformed"),
    # first_difference's X = 2^B and Y = 2^W
    ("first-difference-B", MAT, "bits = (s_r * norm_l + s_l * norm_r).bit_length()",
     "bits = (s_r * norm_l + s_l * norm_r).bit_length() - 1", JET_PRODUCTS),
    ("first-difference-W", MAT,
     "width = bits * (max(low_l - low + span_l, low_r - low + span_r) + 1)",
     "width = bits * max(low_l - low + span_l, low_r - low + span_r)", JET_PRODUCTS),
    # the value type: _sum's rescale of the rows read so far, _times's flag
    ("sum-rescale", SCA, "out = {e: tuple(y * m for y in row) for e, row in out.items()}",
     "out = {e: tuple(y for y in row) for e, row in out.items()}",
     "tests/test_scalars.py::test_jet_sums_reduce_over_the_lcm_of_the_denominators"),
    ("times-monomial", SCA, "mono, out = xm and ym, {}", "mono, out = xm or ym, {}",
     "tests/test_literals.py::test_products_of_values_match_the_coordinate_loop"),
    # distinguish compares residue profiles as multisets
    ("distinguish-profile", INV, "        return sorted((size, iso.verdict, iso.signature)",
     "        return list((size, iso.verdict, iso.signature)",
     "tests/test_golden.py::test_check_json_is_unchanged"),
    # a diagonal form is anisotropic iff its signs agree
    ("isotropy-verdict", INV, "ANISOTROPIC if pos == 0 or neg == 0 else ISOTROPIC",
     "ANISOTROPIC if pos == 0 and neg == 0 else ISOTROPIC",
     f"{T_INV}::test_identity_form_is_anisotropic"),
    # the solve's X = 2^B
    ("elimination-B", MAT, "bits = prod(_row_norms(self.kind, bounds)).bit_length() + 1",
     "bits = prod(_row_norms(self.kind, bounds)).bit_length() - 1",
     f"{T_INV}::test_sigma_with_identity_gauge_is_tau"),
    # field_invertible's D + 1 points: half of them, and D - 1
    ("points-half", MAT, "points = self.kind.dim * sum(b[3] for b in bounds) + 1",
     "points = self.kind.dim * sum(b[3] for b in bounds) // 2", D_PLUS_ONE),
    ("points-d-minus-1", MAT, "points = self.kind.dim * sum(b[3] for b in bounds) + 1",
     "points = self.kind.dim * sum(b[3] for b in bounds) - 1", D_PLUS_ONE),
    # Booth's failure function in cyclic_normal_form, above 64 parts
    ("booth-fail", "src/horders/orders.py", "                fail[j - k] = i + 1\n",
     "                fail[j - k] = i\n", LEAST_ROTATION),
    ("booth-k", "src/horders/orders.py", "                    k = j - i - 1\n",
     "                    k = j - i\n", LEAST_ROTATION),
    # a check's sorder argument reaches its runner as a SemisimpleOrder
    ("sorder-wrap", "src/horders/session.py",
     'if want == "sorder" and not isinstance(payload, SemisimpleOrder):',
     'if want == "order" and not isinstance(payload, SemisimpleOrder):',
     "tests/test_session.py::test_run_the_semisimple_corpus"),
    # witness details print an entry in full up to DETAIL_BITS
    ("detail-bound", "src/horders/witness.py", "    if bits <= DETAIL_BITS:\n",
     "    if bits < DETAIL_BITS:\n",
     "tests/test_witness.py::test_a_detail_prints_a_laurent_polynomial_in_full_only_up_to_its_bit_bound"),
]


def pytest(work: Path, *tests: str) -> subprocess.CompletedProcess | None:
    """The tests run in ``work``, stopping at the first failure; None past
    ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def run(mutants: list[tuple], work: Path) -> list[tuple[str, str]]:
    """Each mutant's outcome, ``killed``, ``SURVIVED`` or ``STALE``."""
    outcomes = []
    for name, path, old, new, test in mutants:
        target = work / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            outcomes.append((name, "STALE"))
            print(f"STALE    {name}: its old text occurs {text.count(old)} times in {path}",
                  flush=True)
            continue
        target.write_text(text.replace(old, new), encoding="utf-8")
        start = time.perf_counter()
        try:
            proc = pytest(work, test)
        finally:
            target.write_text(text, encoding="utf-8")
        # every test ran and passed on the unmutated copy, so any other exit
        # (a failure, or a module the mutant left unable to import) kills
        outcome = "SURVIVED" if proc is not None and proc.returncode == 0 else "killed"
        outcomes.append((name, outcome))
        print(f"{outcome:<8} {name} ({test}, {time.perf_counter() - start:.1f} s)", flush=True)
    return outcomes


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for name, path, _, _, test in MUTANTS:
            print(f"{name}  {path}  {test}")
        return 0
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    with tempfile.TemporaryDirectory(prefix="horders-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache", "_work"))
            else:
                shutil.copy2(src, work / name)
        # a test that fails on the code itself would kill every mutant
        proc = pytest(work, *sorted({m[4] for m in chosen}))
        if proc is None or proc.returncode != 0:
            print("the tests of the list do not pass on the unmutated code")
            print("" if proc is None else proc.stdout[-4000:] + proc.stderr[-2000:])
            return 1
        outcomes = run(chosen, work)
    killed = sum(outcome == "killed" for _, outcome in outcomes)
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

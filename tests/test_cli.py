"""Command line behaviour and exit codes."""

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from horders.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def corpus_path(tmp_path: Path, name: str) -> str:
    text = resources.files("horders.sessions").joinpath(name).read_text(encoding="utf-8")
    target = tmp_path / name
    target.write_text(text, encoding="utf-8")
    return str(target)


def test_check_command_passes(tmp_path, capsys):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out


def test_check_command_json(tmp_path, capsys):
    path = corpus_path(tmp_path, "semisimple-basechange.ho")
    assert main(["check", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["ok"] is True
    assert len(payload["checks"]) == 5


def test_check_command_reports_failures(tmp_path, capsys):
    bad = tmp_path / "bad.ho"
    bad.write_text("check c = sh_verify(1, 1, (2)) expect false\n")
    assert main(["check", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "syntax.ho"
    bad.write_text("order A = block(D; 4,2)\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown identifier" in err and "line 1" in err


def test_zero_denominator_exits_2(tmp_path, capsys):
    bad = tmp_path / "zero.ho"
    bad.write_text("division D = base s=1 t=1\n"
                   "order A = block(D; 1,1)\n"
                   "involution s1 on A : gauge diag(1/0,1) eps +1 conj none\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3, col 35: zero denominator" in err and "Traceback" not in err


@pytest.mark.parametrize("entry, col", [("0^-1", 34), ("(t-t)^-1", 38)])
def test_power_of_a_zero_exits_2(tmp_path, capsys, entry, col):
    bad = tmp_path / "power.ho"
    bad.write_text("division D = base s=1 t=1\n"
                   "order A = block(D; 1)\n"
                   f"involution s1 on A : gauge diag({entry}) eps +1 conj none\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"line 3, col {col}: power -1 of a value with no inverse" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("d", ["4", "0", "1", "-4", "-2147483659"])
def test_a_bad_etale_discriminant_exits_2(tmp_path, capsys, d):
    # etale(4) used to end the command with a ValueError traceback
    bad = tmp_path / "etale.ho"
    bad.write_text("division D = base s=1 t=1\n"
                   "order A = block(D; 1)\n"
                   "involution s on A : gauge diag(1) eps +1 conj none\n"
                   f"witness w : from s to s mode etale({d}) u diag(1) alpha 1\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4, col 36: ") and "discriminant" in err
    assert "Traceback" not in err


def test_missing_session_file_exits_2(capsys):
    assert main(["check", "/no/such/session.ho"]) == 2
    assert "cannot read session file" in capsys.readouterr().err


@pytest.mark.parametrize("suffix, reason", [("/", "Not a directory"),
                                            (None, "No such file or directory")])
def test_session_path_is_opened_as_given(tmp_path, capsys, suffix, reason):
    # no path normalisation: a trailing slash asks for a directory, and
    # the empty path names no file
    path = corpus_path(tmp_path, "main-counterexample.ho") + suffix if suffix else ""
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert f"cannot read session file {path}: {reason}" in err and "Traceback" not in err


def test_a_session_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.ho"
    bad.write_bytes(b"division D = base s=1 t=1\n\xff\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "is not UTF-8: byte 26" in err and "Traceback" not in err


@pytest.mark.parametrize("line", [
    "order B = block(D; 2\u00b2)",
    "involution s on A : gauge diag(1, \u00b2) eps +1 conj none",
])
def test_non_ascii_digits_exit_2(tmp_path, capsys, line):
    bad = tmp_path / "digits.ho"
    bad.write_text("division D = base s=1 t=1\norder A = block(D; 1)\n" + line + "\n",
                   encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "line 3, col" in capsys.readouterr().err


def test_math_errors_exit_3(capsys):
    assert main(["sh-verify", "--s", "256", "--t", "257", "--sig", "1,1"]) == 3  # size 131584
    assert "SizeLimit" in capsys.readouterr().err


def test_replay_all_scenarios(capsys):
    for name in ("main-orthogonal", "semisimple-sh", "sh-permutation"):
        assert main(["replay", "--scenario", name]) == 0
    out = capsys.readouterr().out
    assert "scenario sh-permutation" in out


def test_replay_json(capsys):
    assert main(["replay", "--scenario", "semisimple-sh", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["ok"] is True
    assert {s["name"] for s in payload["steps"]} == {
        "ss_iso_decide(A1, A2)", "becomes_iso_after_sh(A1, A2)"}


def test_inv_command(capsys):
    assert main(["inv", "--sig", "4,2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inv"] == [2, 4]


def test_iso_command(capsys):
    assert main(["iso", "--sig", "4,2", "--sig2", "2,4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["iso"] is True
    assert main(["iso", "--sig", "1,1", "--sig2", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["iso"] is False


def test_sh_command_json_fields(capsys):
    assert main(["sh", "--sig", "1,1", "--s", "1", "--t", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sh_sig"] == [1, 1, 1, 1]
    assert payload["perm"] == [0, 2, 1, 3]


@pytest.mark.parametrize("flags", [["--sig", "4,2", "--s", "1", "--t", "100000"],
                                   ["--sig", "100000"]])
def test_an_sh_result_over_the_bound_exits_3_and_writes_nothing(capsys, flags):
    assert main(["sh", *flags, "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "SizeLimit" in err and "Traceback" not in err


def test_sh_command_from_session(tmp_path, capsys):
    path = corpus_path(tmp_path, "semisimple-basechange.ho")
    assert main(["sh", "--session", path, "--order", "B1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sh_sig"] == [1, 1, 1, 1]


def test_sh_verify_command(capsys):
    assert main(["sh-verify", "--s", "2", "--t", "2", "--sig", "1,2"]) == 0
    assert "verified" in capsys.readouterr().out


def test_resinv_and_aniso_and_distinguish(tmp_path, capsys):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    assert main(["resinv", "--session", path, "--inv", "s1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [b["size"] for b in payload["blocks"]] == [4, 2]
    assert [b["t_power"] for b in payload["blocks"]] == [0, 1]

    assert main(["aniso", "--session", path, "--inv", "s2", "--block", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["blocks"][0]["verdict"] == "isotropic"
    assert payload["blocks"][0]["has_witness"] is True

    assert main(["distinguish", "--session", path, "--inv", "s1", "--inv", "s2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "distinguished"


@pytest.mark.parametrize("block", ["0", "9"])
def test_aniso_block_out_of_range(tmp_path, capsys, block):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    assert main(["aniso", "--session", path, "--inv", "s1", "--block", block]) == 3
    assert "--block must be in 1..2" in capsys.readouterr().err
    bad = tmp_path / "bad.ho"
    bad.write_text(Path(path).read_text() + f"check a = aniso(s1, block={block}) expect anisotropic\n")
    assert main(["check", str(bad)]) == 2
    assert "block must be an integer in 1..2" in capsys.readouterr().err


def test_aniso_block_keeps_its_label(tmp_path, capsys):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    assert main(["aniso", "--session", path, "--inv", "s1", "--block", "2"]) == 0
    assert capsys.readouterr().out == "block 2: anisotropic (2, 0)\n"


@pytest.mark.parametrize("argv", [
    ["sh-verify", "--s", "0", "--t", "1", "--sig", "2"],
    ["sh-verify", "--s", "1", "--t", "-1", "--sig", "2"],
    ["sh", "--sig", "2", "--s", "0"],
    ["sh", "--sig", "2", "--t", "0"],
])
def test_non_positive_residue_parameters_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected an integer of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--division", "D", "--division2", ""],  # read as "same as the first": isomorphic
    ["--division", ""],
])
def test_an_empty_division_label_is_a_usage_error(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["iso", "--sig", "4,2", "--sig2", "4,2", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a nonempty division label" in captured.err


def test_verify_command(tmp_path, capsys):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    assert main(["verify", "--session", path, "--witness", "wF"]) == 0
    assert main(["verify", "--session", path, "--witness", "wE", "--transport"]) == 0
    capsys.readouterr()


NON_MONOMIAL_GAUGE = """\
division D = base s=1 t=1
order A = block(D; 1)
involution s on A : gauge diag(1 + t) eps +1 conj none
check w = wellformed(s) expect true
"""


def test_precision_flag_has_no_effect(tmp_path, capsys):
    # entries are exact Laurent polynomials, so no check reads a precision
    non_monomial = tmp_path / "non-monomial.ho"
    non_monomial.write_text(NON_MONOMIAL_GAUGE)
    paths = [corpus_path(tmp_path, "main-counterexample.ho"),
             corpus_path(tmp_path, "semisimple-basechange.ho"), str(non_monomial)]
    for path in paths:
        outputs = set()
        for precision in ("2", "16", "64"):
            assert main(["check", path, "--json", "--precision", precision]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


@pytest.mark.parametrize("value", ["1", "x"])
def test_precision_below_two_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["inv", "--sig", "4,2", "--precision", value])
    assert exc.value.code == 2
    assert "--precision: expected an integer of at least 2" in capsys.readouterr().err


BIG = "1" + "0" * 5000  # 10^5000: past the interpreter's 4,300-digit string limit


def test_integers_past_the_string_limit_print_exactly(tmp_path, capsys):
    path = tmp_path / "big.ho"
    path.write_text("division D = base s=1 t=1\n"
                    "order A = block(D; 2)\n"
                    "involution s1 on A : gauge diag(1, 10^5000) eps +1 conj none\n"
                    "involution s2 on A : gauge diag(1, 1) eps +1 conj none\n"
                    "witness w : from s1 to s2 mode F u diag(1, 1) alpha 1\n"
                    "check v = verify(w) expect true\n")
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    # a detail prints an entry above witness.DETAIL_BITS by its bits, not its digits
    assert ("IdentityMismatch: tau(u)*a2*u != alpha*a1 at entry 2,2: 1 vs a Laurent "
            f"polynomial in t^0..t^0 with integers of {(10 ** 5000).bit_length() + 1} bits in "
            "all") in out
    assert err == ""
    assert main(["resinv", "--session", str(path), "--inv", "s1"]) == 0
    assert f"t^0 * [1, 0; 0, {BIG}]" in capsys.readouterr().out


def test_a_check_that_raises_is_contained(tmp_path, capsys, monkeypatch):
    from horders import session as session_module

    def broken(*args):
        raise RuntimeError("broken check")

    monkeypatch.setattr(session_module, "descend_signature", broken)
    path = tmp_path / "raise.ho"
    path.write_text("check a = descend_sig((2,2), 1, 2) expect (2)\n"
                    "check b = sh_verify(1, 1, (2)) expect true\n")
    report = session_module.run_session(session_module.parse_session(path.read_text()))
    assert [(c.actual, c.detail, c.ok) for c in report.checks] == [
        ("error RuntimeError", "broken check", False), ("true", "", True)]
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "FAIL a: error RuntimeError" in out and "Traceback" not in out + err


@pytest.mark.parametrize("argv, noun", [
    (["verify", "--witness", "nope"], "witness"),
    (["resinv", "--inv", "nope"], "involution"),
    (["sh", "--order", "nope"], "order"),
])
def test_a_missing_session_object_is_named_by_its_kind(tmp_path, capsys, argv, noun):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    assert main(argv + ["--session", path]) == 3
    assert f"error: HordersError: no {noun} named 'nope' in the session" in capsys.readouterr().err


SIG_COMMANDS = {
    "inv": ["inv", "--sig"],
    "iso": ["iso", "--sig2", "2,4", "--sig"],
    "iso2": ["iso", "--sig", "4,2", "--sig2"],
    "sh": ["sh", "--s", "1", "--t", "2", "--sig"],
    "sh-verify": ["sh-verify", "--s", "1", "--t", "2", "--sig"],
}


@pytest.mark.parametrize("command", SIG_COMMANDS)
@pytest.mark.parametrize("sig, part", [
    ("4_0", "part 1 is '4_0'"),
    ("٤,2", "part 1 is '٤'"),
    ("+4,2", "part 1 is '+4'"),
    ("4, 2", "part 2 is ' 2'"),
    (",,", "part 1 is ''"),
    ("4,", "part 2 is ''"),
    ("4,-2", "part 2 is '-2'"),
])
def test_a_signature_takes_only_ascii_decimal_parts(capsys, command, sig, part):
    assert main(SIG_COMMANDS[command] + [sig]) == 3
    err = capsys.readouterr().err
    assert f"error: HordersError: bad signature {sig!r}: {part}, not a run of the digits 0-9" in err
    assert "Traceback" not in err and "int()" not in err


def test_a_zero_block_size_is_a_bad_signature(capsys):
    assert main(["inv", "--sig", "4,0"]) == 3
    assert "bad signature '4,0': signature parts must be positive integers" in capsys.readouterr().err


def test_sh_verify_json_reports_the_parsed_signature(capsys):
    assert main(["sh-verify", "--s", "1", "--t", "2", "--sig", "01,2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sig"] == [1, 2]


INT_FLAGS = {
    "--s": (["sh", "--sig", "1,1", "--t", "2", "--s"], 1),
    "--t": (["sh", "--sig", "1,1", "--s", "1", "--t"], 1),
    "sh-verify --s": (["sh-verify", "--sig", "1,1", "--t", "2", "--s"], 1),
    "--precision": (["inv", "--sig", "4,2", "--precision"], 2),
}


@pytest.mark.parametrize("flag", INT_FLAGS)
@pytest.mark.parametrize("value", ["١", "2_0", "+3", " 3", "３", "3.0"])
def test_an_integer_flag_takes_only_ascii_digits(capsys, flag, value):
    argv, low = INT_FLAGS[flag]
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"expected an integer of at least {low}, got {value!r}" in err


@pytest.mark.parametrize("flag", INT_FLAGS)
def test_an_integer_flag_past_the_string_limit_is_a_usage_error(capsys, flag):
    argv, low = INT_FLAGS[flag]
    value = "1" * 5000  # more digits than int() converts
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    # the echo is cut to 20 characters and the length
    err = capsys.readouterr().err
    assert f"expected an integer of at least {low}, got '{'1' * 20}'... (5000 characters)" in err
    assert len(err) < 500


@pytest.mark.parametrize("value", ["١", "1_0", "+1", "--1"])
def test_block_takes_only_ascii_digits(tmp_path, capsys, value):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    with pytest.raises(SystemExit) as exc:
        main(["aniso", "--session", path, "--inv", "s1", f"--block={value}"])
    assert exc.value.code == 2
    assert f"argument --block: expected an integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "3"])
def test_block_out_of_range_keeps_its_message(tmp_path, capsys, value):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    assert main(["aniso", "--session", path, "--inv", "s1", "--block", value]) == 3
    assert f"--block must be in 1..2, got {value}" in capsys.readouterr().err


def test_a_long_block_out_of_range_is_echoed_cut(tmp_path, capsys):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    value = "9" * 4000  # under the interpreter's 4,300-digit limit, so the flag parses
    assert main(["aniso", "--session", path, "--inv", "s1", "--block", value]) == 3
    assert capsys.readouterr().err == (
        f"error: HordersError: --block must be in 1..2, got {'9' * 20}... (4000 characters)\n")


@pytest.mark.parametrize("command", ["resinv", "aniso"])
def test_a_second_inv_is_refused(tmp_path, capsys, command):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    assert main([command, "--session", path, "--inv", "s1", "--inv", "s2"]) == 3
    assert f"error: HordersError: {command} needs exactly one --inv name" in capsys.readouterr().err
    assert main([command, "--session", path, "--inv", "s1"]) == 0


def test_cold_start_imports_no_code_generation_machinery():
    # -S: site loads nothing, so every module listed came from horders.cli
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import horders.cli; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "horders.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    assert "pathlib" not in loaded  # a session file is read with open()

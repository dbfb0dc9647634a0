"""Command line behaviour and exit codes."""

import json
from importlib import resources
from pathlib import Path

import pytest

from horders.cli import main


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


def test_missing_session_file_exits_2(capsys):
    assert main(["check", "/no/such/session.ho"]) == 2
    assert "cannot read session file" in capsys.readouterr().err


def test_math_errors_exit_3(capsys):
    assert main(["sh-verify", "--s", "9", "--t", "9", "--sig", "3,3,3"]) == 3
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


def test_verify_command(tmp_path, capsys):
    path = corpus_path(tmp_path, "main-counterexample.ho")
    assert main(["verify", "--session", path, "--witness", "wF"]) == 0
    assert main(["verify", "--session", path, "--witness", "wE", "--transport"]) == 0
    capsys.readouterr()


def test_precision_flag_controls_default(capsys):
    from horders.scalars import default_precision
    assert main(["inv", "--sig", "1", "--precision", "24"]) == 0
    assert default_precision() == 24
    assert main(["inv", "--sig", "1", "--precision", "16"]) == 0
    assert default_precision() == 16
    capsys.readouterr()


@pytest.mark.parametrize("value", ["1", "x"])
def test_precision_below_two_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["inv", "--sig", "4,2", "--precision", value])
    assert exc.value.code == 2
    assert "--precision: expected an integer of at least 2" in capsys.readouterr().err

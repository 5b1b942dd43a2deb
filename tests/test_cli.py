import json

import pytest

from wilsonq.cli import main


def test_wilson_subcommand(capsys):
    assert main(["wilson", "--p", "13", "--prec", "8"]) == 0
    out = capsys.readouterr().out
    assert "36846277" in out
    assert "base-13" in out


def test_bernoulli_subcommand(capsys):
    assert main(["bernoulli", "--p", "7", "--m", "4", "--prec", "1"]) == 0
    assert capsys.readouterr().out.strip() == "6"  # B_4/4 = -1/120 = 6 mod 7


def test_omega_subcommand(capsys):
    assert main(["omega", "--p", "11", "--thm", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("omega[") == 7
    assert f"{11**7 - 1}" in out  # omega[0] = -1 at full precision


def test_omega_rejects_out_of_range_prime(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["omega", "--p", "7", "--thm", "2"])
    assert exc.value.code == 2


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "r.json"
    status = main([
        "verify", "--pmin", "7", "--pmax", "20",
        "--checks", "thm1,psi", "--format", "json", "--out", str(out),
    ])
    assert status == 0
    rows = json.loads(out.read_text())
    assert {row["tag"] for row in rows} == {"thm1", "psi"}


def test_verify_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pmin", "7", "--pmax", "20", "--checks", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pmin", "30", "--pmax", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pmin", "7", "--pmax", "20", "--guard", "2"])
    assert exc.value.code == 2


def test_nonprime_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["wilson", "--p", "9", "--prec", "2"])
    assert exc.value.code == 2

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
    assert main(["omega", "--p", "11", "--depth", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count("omega[") == 7
    assert f"{11**7 - 1}" in out  # omega[0] = -1 at full precision
    # --depth R prints omega_0..omega_R, for the depths of MIN_P alone
    assert main(["omega", "--p", "11", "--depth", "5"]) == 0
    assert capsys.readouterr().out.count("omega[") == 6
    with pytest.raises(SystemExit) as exc:
        main(["omega", "--p", "11", "--depth", "7"])
    assert exc.value.code == 2
    assert "invalid choice: 7" in capsys.readouterr().err


def test_kummer_subcommand_runs_clean(capsys):
    # every even start up to 400 at orders 1..3, the dense scan of the
    # congruences whose family windows alone are the sweep's kummer rows
    argv = ["kummer", "--primes", "7", "11", "13", "17", "19", "--nmax", "400", "--rmax", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "p=7: 412 differences vanish", "p=11: 502 differences vanish",
        "p=13: 529 differences vanish", "p=17: 565 differences vanish",
        "p=19: 580 differences vanish", "zero failures"]


def test_kummer_subcommand_reports_a_broken_congruence(monkeypatch, capsys):
    # p*B_12 raised by p^(g-1) still divides exactly as bnpd requires, but
    # it moves b(12), and b(14) through the recursion, by a unit times
    # p^(r-1): the order-3 differences reading either index no longer vanish
    from wilsonq import cli
    from wilsonq.bernoulli import BernoulliEngine

    class Faulted(BernoulliEngine):
        def pb_value(self, m, g):
            return (super().pb_value(m, g) + (m == 12) * self.p ** (g - 1)) % self.p ** g

    monkeypatch.setattr(cli, "BernoulliEngine", Faulted)
    assert main(["kummer", "--primes", "11", "--nmax", "40", "--rmax", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL p=11 ")]
    assert failed and lines[-1] == f"{len(failed)} FAILURES", lines


def test_omega_rejects_out_of_range_prime(capsys):
    assert main(["omega", "--p", "7", "--depth", "6"]) == 2


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "r.json"
    status = main([
        "verify", "--pmin", "7", "--pmax", "20",
        "--checks", "thm1,psi", "--format", "json", "--out", str(out),
    ])
    assert status == 0
    rows = json.loads(out.read_text())
    assert {row["tag"] for row in rows} == {"thm1", "psi"}


def test_verify_out_to_a_device():
    # a device has nothing to empty, and refuses truncation
    assert main(["verify", "--pmin", "7", "--pmax", "13", "--checks", "psi",
                 "--out", os.devnull]) == 0


def test_verify_report_bytes_are_stable(tmp_path):
    # a pinned digest: neither the arithmetic nor the report writer may
    # change a byte of this report
    out = tmp_path / "r.json"
    assert main(["verify", "--pmin", "7", "--pmax", "60", "--format", "json",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3bf8c77d278d70ddd073aaaffcd94866446b5b213035ade24705cac63db87642")


def test_verify_usage_errors():
    assert main(["verify", "--pmin", "7", "--pmax", "20", "--checks", "nope"]) == 2
    assert main(["verify", "--pmin", "30", "--pmax", "7"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pmin", "7", "--pmax", "20", "--guard", "2"])
    assert exc.value.code == 2


def test_verify_empty_check_list_exits_2(capsys):
    assert main(["verify", "--pmin", "7", "--pmax", "13", "--checks", ","]) == 2
    assert "no checks selected" in capsys.readouterr().err


def test_nonprime_arguments_exit_2():
    assert main(["wilson", "--p", "9", "--prec", "2"]) == 2


def test_oversized_pmax_leaves_existing_report(tmp_path, capsys):
    # the window is refused before the report path is opened for writing
    out = tmp_path / "r.json"
    out.write_text("kept\n")
    assert main(["verify", "--pmin", "7", "--pmax", "400000000000000000000000",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "kept\n"


def test_verify_out_in_missing_directory_exits_2(tmp_path, capsys, monkeypatch):
    # the report path is opened before the sweep, so a bad one costs no sweep
    from wilsonq import harness

    def no_sweep(p, cfg):
        raise AssertionError("swept before opening the report")

    monkeypatch.setattr(harness, "check_prime", no_sweep)
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "--pmin", "7", "--pmax", "20", "--out", str(out)]) == 2
    # the error names the path given, not the part file written beside it
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and ".part" not in err, err
    assert not out.parent.exists()


@pytest.mark.parametrize("args, code", [
    (["bernoulli", "--p", "7", "--m", "6002", "--prec", "1"], 0),
    (["verify", "--pmin", "7", "--pmax", "11", "--out", "{missing}"], 2),
    (["wilson", "--p", "2", "--prec", "2"], 2),
    (["bernoulli", "--p", "7", "--m", "10", "--prec", "0"], 2),
    (["omega", "--p", "7", "--depth", "6"], 2),
    (["verify", "--pmin", "7", "--pmax", "11", "--checks", ","], 2),
    (["omega", "--p", "9", "--depth", "5"], 2),
    (["bernoulli", "--p", "9", "--m", "4", "--prec", "1"], 2),
    (["bernoulli", "--p", "7", "--m", "6", "--prec", "6"], 2),
    (["bernoulli", "--p", "7", "--m", "0", "--prec", "2"], 2),
    (["bernoulli", "--p", "7", "--m", "-4", "--prec", "2"], 2),
    pytest.param(["kummer", "--primes", "9", "--nmax", "200", "--rmax", "3"], 2,
                 id="kummer-not-prime"),
    # index 686 = 2 * 7^3 needs the working precision g = 7, not below p
    pytest.param(["kummer", "--primes", "7", "--nmax", "700", "--rmax", "3"], 2,
                 id="kummer-index-686"),
    pytest.param(["kummer", "--primes", "5", "--nmax", "20", "--rmax", "5"], 2,
                 id="kummer-order-5-at-p-5"),
    # each of these would check nothing and still report zero failures
    pytest.param(["kummer", "--primes", "7", "--nmax", "200", "--rmax", "0"], 2,
                 id="kummer-order-0"),
    pytest.param(["kummer", "--primes", "7", "--nmax", "200", "--rmax", "-2"], 2,
                 id="kummer-order-negative"),
    pytest.param(["kummer", "--primes", "7", "--nmax", "1", "--rmax", "3"], 2,
                 id="kummer-no-even-index"),
    # the starts, the differences and the engine's memo grow with --nmax
    pytest.param(["kummer", "--primes", "1009", "--nmax", "262146", "--rmax", "3"], 2,
                 id="kummer-nmax-above-limit"),
    # step p-1 = 1 puts every start on the grid, so none is admissible
    pytest.param(["kummer", "--primes", "2", "--nmax", "10", "--rmax", "1"], 2,
                 id="kummer-prime-2"),
])
def test_bad_input_exits_without_traceback(args, code, tmp_path):
    # each input runs (exit 0) or is refused (exit 2, one error line), never
    # with a traceback
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [a.format(missing=tmp_path / "missing" / "r.json") for a in args]
    done = subprocess.run([sys.executable, "-m", "wilsonq.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 2:
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_start_up_loads_no_dataclasses_or_inspect():
    # every command pays for what importing the CLI loads
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); import wilsonq.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.stdout == "[]\n", done.stderr


def _run_capped(args, timeout):
    """The CLI in a child process under a 512 MiB address-space cap."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "wilsonq.cli", *args], capture_output=True,
                          text=True, timeout=timeout, env=env, preexec_fn=cap)


def test_prime_window_holds_for_single_prime_commands():
    # a p far above the window is refused at once by each command, here
    # under a 512 MiB address-space cap
    p = str(10**30)
    for args in (["bernoulli", "--p", p, "--m", "4", "--prec", "1"],
                 ["omega", "--p", p, "--depth", "5"],
                 ["wilson", "--p", p, "--prec", "1"]):
        done = _run_capped(args, timeout=30)
        assert done.returncode == 2, (args, done.stderr[-300:])
        assert done.stderr.startswith("error: p must be at most"), done.stderr


def test_precision_bound_refuses_at_once():
    # a precision far past R_LIMIT is one error line and exit 2, here under
    # a 512 MiB address-space cap and a time limit: p^r is never formed
    from wilsonq.residues import R_LIMIT

    for args in (["wilson", "--p", "7", "--prec", "1000000000"],
                 ["bernoulli", "--p", "10007", "--m", "4", "--prec", "300"]):
        done = _run_capped(args, timeout=20)
        assert done.returncode == 2, (args, done.stderr[-300:])
        assert done.stderr.startswith(f"error: precision exponent must be at most {R_LIMIT}")
        assert done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("args, working", [
    (["wilson", "--p", "7", "--prec", "12"], "r + 1 = 13"),
    (["bernoulli", "--p", "17", "--m", "17", "--prec", "11"], "g = r + 1 + v_p(m) = 13"),
    (["bernoulli", "--p", "13", "--m", "12", "--prec", "12"], "g = r + 1 + v_p(m) = 13"),
], ids=["wilson", "bernoulli-g-above-limit", "bernoulli-g-not-below-p"])
def test_precision_refusal_names_the_typed_precision(args, working, monkeypatch, capsys):
    # the working precision taken from --prec is refused before any table
    # or factorial is built, and the message names both: the typed value as
    # the one it got, and the working precision it implies
    from wilsonq import bernoulli, oracles

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(bernoulli, "power_table", no_table)
    monkeypatch.setattr(oracles, "factorial_mod", no_table)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.rstrip().endswith(f"got {args[-1]}"), err
    assert working in err, err


def test_size_bound_refuses_before_any_table(monkeypatch, capsys):
    from wilsonq import bernoulli, oracles
    from wilsonq.residues import P_LIMIT

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(bernoulli, "power_table", no_table)
    monkeypatch.setattr(oracles, "power_table", no_table)
    p = 262147  # the least prime above P_LIMIT
    for args in (["bernoulli", "--p", str(p), "--m", "4", "--prec", "1"],
                 ["omega", "--p", str(p), "--depth", "6"],
                 ["wilson", "--p", str(p), "--prec", "2"],
                 ["kummer", "--primes", str(p), "--nmax", "10", "--rmax", "1"],
                 ["verify", "--pmin", "7", "--pmax", str(p)],
                 ["verify", "--pmin", str(p), "--pmax", str(p)]):
        assert main(args) == 2, args
        assert capsys.readouterr().err.startswith(f"error: p must be at most {P_LIMIT}"), args

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from unrealizer import cli
from unrealizer.frontend import parse_problem

ROOT = Path(__file__).parent.parent
PROBLEMS = Path(__file__).parent / "problems"
SCHEMA = json.loads(
    (ROOT / "src" / "unrealizer" / "verdict_schema.json").read_text())


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_unrealizable_exit_zero(capsys):
    code, out, _ = _run(capsys, "check", str(PROBLEMS / "g1.sy"),
                        "--seed", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Unrealizable"
    assert payload["examples"] == [[-1], [0]]
    jsonschema.validate(payload, SCHEMA)


def test_check_examples_realizable_exit_ten(capsys):
    code, out, _ = _run(capsys, "check-examples", str(PROBLEMS / "g2.sy"),
                        "--examples", "x=1", "--json")
    assert code == 10
    payload = json.loads(out)
    assert payload["verdict"] == "Realizable"
    jsonschema.validate(payload, SCHEMA)


def test_check_unknown_exit_twenty(capsys):
    code, out, _ = _run(capsys, "check", str(PROBLEMS / "gconst.sy"),
                        "--max-rounds", "5", "--json")
    assert code == 20
    payload = json.loads(out)
    assert payload["verdict"] == "Unknown"
    assert payload["reason"] == "max-rounds"


def test_check_examples_emits_solved_values(capsys):
    code, out, _ = _run(capsys, "check-examples", str(PROBLEMS / "g2.sy"),
                        "--examples", "x=1;x=2", "--json")
    assert code == 10
    values = json.loads(out)["trace"][0]["values"]
    assert values["BExp"] == "{tt,tf,ft,ff}"
    assert values["Exp2"] == "{<(0,0),{(2,4)}>}"
    assert values["Exp3"] == "{<(0,0),{(3,6)}>}"
    assert values["Start"] == (
        "{<(0,0),{(0,4),(3,0)}>,<(0,0),{(0,6),(2,0)}>,"
        "<(0,0),{(0,6),(3,0)}>,<(0,0),{(2,4)}>,<(0,0),{(3,6)}>}")


def test_check_examples_refutation(capsys):
    code, out, _ = _run(capsys, "check-examples", str(PROBLEMS / "g1.sy"),
                        "--examples", "x=1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Unrealizable"
    assert payload["trace"][0]["query"] == "unsat"


def test_human_output_format(capsys):
    code, out, _ = _run(capsys, "check", str(PROBLEMS / "g1.sy"),
                        "--seed", "0")
    assert code == 0
    assert out == "verdict: Unrealizable\n"


def test_human_output_check_examples(capsys):
    path = PROBLEMS / "g2.sy"
    code, out, _ = _run(capsys, "check-examples", str(path),
                        "--examples", "x=1")
    assert code == 10
    assert out == "verdict: Realizable\n"


def test_human_output_includes_witness(capsys, tmp_path):
    path = tmp_path / "double.sy"
    path.write_text(
        "(set-logic LIA)\n"
        "(synth-fun f ((x Int)) Int\n"
        "  ((Start Int (x (+ Start Start)))))\n"
        "(constraint (= (f x) (+ x x)))\n"
        "(check-synth)\n")
    code, out, _ = _run(capsys, "check", str(path), "--seed", "0")
    assert code == 10
    assert out == "verdict: Realizable\nwitness: (+ x x)\n"


def test_sequential_runs_are_byte_identical(capsys):
    args = ("check", str(PROBLEMS / "g1.sy"), "--seed", "0", "--json")
    outs = {_run(capsys, *args)[1] for _ in range(3)}
    assert len(outs) == 1


def test_verbose_trace_goes_to_stderr(capsys):
    _, out, err = _run(capsys, "check", str(PROBLEMS / "g1.sy"),
                       "--seed", "0", "-v")
    assert "round 1:" in err
    assert "round" not in out
    _, _, err2 = _run(capsys, "check", str(PROBLEMS / "g1.sy"),
                      "--seed", "0", "-vv")
    assert '"check":' in err2  # full JSON records


def test_verbose_check_examples_prints_the_fields_its_record_has(capsys):
    argv = ("check-examples", str(PROBLEMS / "g1.sy"), "--examples", "x=1")
    code, out, err = _run(capsys, *argv)
    _, out1, err1 = _run(capsys, *argv, "-v")
    _, out2, err2 = _run(capsys, *argv, "-vv")
    assert code == 0 and err == ""
    assert err1 == "check=Unrealizable query=unsat\n"
    assert out1 == out2 == out
    assert json.loads(err2)["check"] == "Unrealizable"


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("UNREAL_SEED", "3")
    _, from_env, _ = _run(capsys, "check", str(PROBLEMS / "g1.sy"), "--json")
    monkeypatch.delenv("UNREAL_SEED")
    _, explicit, _ = _run(capsys, "check", str(PROBLEMS / "g1.sy"),
                          "--seed", "3", "--json")
    assert from_env == explicit
    # an explicit flag wins over the environment
    monkeypatch.setenv("UNREAL_SEED", "3")
    _, flagged, _ = _run(capsys, "check", str(PROBLEMS / "g1.sy"),
                         "--seed", "0", "--json")
    assert json.loads(flagged)["examples"] == [[-1], [0]]


def test_bad_seed_in_the_environment_is_usage_error(monkeypatch):
    monkeypatch.setenv("UNREAL_SEED", "abc")
    out = _run_child("check", str(PROBLEMS / "g1.sy"), "--json")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert len(out.stderr.splitlines()) == 1
    assert "UNREAL_SEED" in out.stderr
    assert "Traceback" not in out.stderr


def test_predabs_mode_flag(capsys):
    code, out, _ = _run(capsys, "check-examples", str(PROBLEMS / "parity.sy"),
                        "--examples", "x=3", "--mode", "predabs", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Unrealizable"
    assert payload["trace"][0]["values"]["Start"] == "{even}"


def test_export_horn_stdout_and_file(capsys, tmp_path):
    code, out, _ = _run(capsys, "export-horn", str(PROBLEMS / "g1.sy"),
                        "--examples", "x=1")
    assert code == 0
    assert out.startswith("(set-logic HORN)\n")
    assert out.endswith("(check-sat)\n")
    target = tmp_path / "g1.smt2"
    code2, out2, _ = _run(capsys, "export-horn", str(PROBLEMS / "g1.sy"),
                          "--examples", "x=1", "--out", str(target))
    assert code2 == 0 and out2 == ""
    assert target.read_text() == out


def test_dump_equations_golden(capsys):
    code, out, _ = _run(capsys, "dump-equations", str(PROBLEMS / "g1.sy"),
                        "--examples", "x=1;x=2")
    assert code == 0
    assert out == ("n(Start) = n(S1) (x) n(Start) (+) {<(0,0),{}>}\n"
                   "n(S1) = {<(1,2),{}>} (x) n(S2)\n"
                   "n(S2) = {<(1,2),{}>} (x) n(S3)\n"
                   "n(S3) = {<(1,2),{}>}\n"
                   "\n")


def test_missing_file_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "no-such-file.sy"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_bad_examples_are_usage_errors(capsys):
    for bad in ("y=1", "x=one", "", "x"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check-examples", str(PROBLEMS / "g1.sy"),
                      "--examples", bad])
        code = exc.value.code
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


def test_examples_of_a_problem_without_inputs(capsys, tmp_path):
    problem = tmp_path / "const.sy"
    problem.write_text("(set-logic LIA)\n"
                       "(synth-fun f () Int ((S Int ((+ S S) 1))))\n"
                       "(constraint (= (f) 0))\n(check-synth)\n")
    # no input can be assigned: an assignment is a usage error
    for bad in ("x=1;garbage", "x=1", ";garbage"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check-examples", str(problem), "--examples", bad])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: bad assignment")
    # an empty list is the one empty example
    for empty in ("", ";"):
        code = cli.main(["check-examples", str(problem), "--json",
                         "--examples", empty])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["examples"] == [[]]


def test_parse_error_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.sy"
    bad.write_text("(set-logic LIA")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", str(bad)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_conflicting_modes_rejected(capsys):
    # --parallel and --sequential are not options: the loop is always
    # sequential
    for flag in ("--parallel", "--sequential"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", str(PROBLEMS / "g1.sy"), flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_problem_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.sy"
    bad.write_bytes(b"\xff\xfe(set-logic LIA)")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", str(bad)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not UTF-8 text: ")
    assert err.count("\n") == 1


def test_unwritable_output_paths_are_usage_errors(capsys, tmp_path):
    out = tmp_path / "missing" / "x.smt2"
    code, stdout, err = _run(capsys, "export-horn", str(PROBLEMS / "g1.sy"),
                             "--examples", "x=1", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and str(out) in err
    assert err.count("\n") == 1
    # --export-smt names a directory; an existing file cannot be one
    taken = tmp_path / "taken"
    taken.write_text("")
    code, stdout, err = _run(capsys, "check", str(PROBLEMS / "gconst.sy"),
                             "--seed", "0", "--max-rounds", "2",
                             "--export-smt", str(taken))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and str(taken) in err
    assert err.count("\n") == 1


def test_flags_only_on_the_commands_that_read_them(capsys):
    for command in ("export-horn", "dump-equations"):
        for flag in (["--json"], ["--mode", "sl"], ["-v"],
                     ["--export-smt", "out"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, str(PROBLEMS / "g1.sy"),
                          "--examples", "x=1", *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def _child_env():
    """Environment for a child interpreter that imports the checkout's
    ``src/`` ahead of any installed ``unrealizer``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "unrealizer", "check",
         str(PROBLEMS / "g1.sy"), "--seed", "0", "--json"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert out.returncode == 0
    assert json.loads(out.stdout)["verdict"] == "Unrealizable"


# one zero and one non-zero exit code, so a script whose return value
# never reaches the process exit status is caught
SCRIPT_CASES = [("g1.sy", 0, "Unrealizable"), ("g2.sy", 10, "Realizable")]


def _assert_script_verdicts(command, env=None):
    for problem, code, verdict in SCRIPT_CASES:
        out = subprocess.run(
            [*command, "check-examples", str(PROBLEMS / problem),
             "--examples", "x=1", "--json"],
            capture_output=True, text=True, timeout=120, env=env)
        assert out.returncode == code
        assert json.loads(out.stdout)["verdict"] == verdict


def test_console_script_entry_point():
    # run the script declared in pyproject.toml the way pip's generated
    # launcher does, so no installed package is needed
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["unrealizer"]
    module, attr = entry.split(":")
    launcher = (f"import sys; from {module} import {attr}; "
                f"sys.argv[0] = 'unrealizer'; sys.exit({attr}())")
    _assert_script_verdicts([sys.executable, "-c", launcher],
                            env=_child_env())


@pytest.mark.skipif(shutil.which("unrealizer") is None,
                    reason="unrealizer console script not installed")
def test_installed_console_script():
    _assert_script_verdicts(["unrealizer"])


def _run_child(*argv):
    return subprocess.run([sys.executable, "-m", "unrealizer", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=_child_env())


def test_grammar_outside_exact_mode_is_usage_error():
    # Double has no exact semi-linear abstraction; only the commands with
    # a --mode flag suggest the other mode
    for argv, hint in ((["check"], True),
                       (["check-examples", "--examples", "x=3"], True),
                       (["dump-equations", "--examples", "x=1"], False)):
        out = _run_child(argv[0], str(PROBLEMS / "parity.sy"), *argv[1:])
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: no exact abstraction for Double")
        assert ("--mode predabs" in out.stderr) == hint
        assert len(out.stderr.splitlines()) == 1
        assert "Traceback" not in out.stderr


def test_predabs_check_past_one_example_ends_in_a_verdict(capsys):
    # g1's loop reaches two examples in round 2, where the per-output
    # predicates answer Unknown and the loop keeps going
    code, out, _ = _run(capsys, "check", str(PROBLEMS / "g1.sy"),
                        "--mode", "predabs", "--max-rounds", "4", "--json")
    assert code == 20
    payload = json.loads(out)
    assert payload["reason"] == "max-rounds"
    assert [r["check"] for r in payload["trace"]] == ["Unknown"] * 4
    jsonschema.validate(payload, SCHEMA)


def test_predabs_on_two_examples_is_unknown(capsys):
    code, out, _ = _run(capsys, "check-examples", str(PROBLEMS / "g1.sy"),
                        "--examples", "x=1;x=2", "--mode", "predabs",
                        "--json")
    assert code == 20
    payload = json.loads(out)
    assert payload["verdict"] == "Unknown"
    assert payload["reason"] == "predabs-single-example"
    jsonschema.validate(payload, SCHEMA)


def _nested_and(depth):
    body = "(>= (f x) x)"
    for _ in range(depth):
        body = f"(and (>= (f x) x) {body})"
    return ("(set-logic LIA)\n"
            "(synth-fun f ((x Int)) Int ((Start Int (x 0 (+ Start Start)))))\n"
            f"(constraint {body})\n(check-synth)\n")


def test_deep_nesting_parses_up_to_the_bound(tmp_path):
    spec = tmp_path / "deep.sy"
    spec.write_text(_nested_and(200))
    out = _run_child("check", str(spec), "--json")
    assert out.returncode == 10
    assert json.loads(out.stdout)["verdict"] == "Realizable"


def test_too_deep_nesting_is_usage_error(tmp_path):
    spec = tmp_path / "deeper.sy"
    spec.write_text(_nested_and(500))
    out = _run_child("check", str(spec))
    assert out.returncode == 2
    assert out.stderr.startswith("error: line 3, col ")
    assert "nesting deeper than" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("numeral", ["--5", "\u00b2", "-" + "9" * 5000],
                         ids=["double-minus", "superscript-two", "5000-digits"])
def test_malformed_numeral_is_usage_error(numeral, tmp_path):
    # a word is a numeral only as ASCII -?[0-9]+, and one past the
    # interpreter's digit limit is refused where it is read
    spec = tmp_path / "numeral.sy"
    spec.write_text("(set-logic LIA)\n"
                    "(synth-fun f ((x Int)) Int ((Start Int (x 0))))\n"
                    f"(constraint (= (f x) {numeral}))\n(check-synth)\n",
                    encoding="utf-8")
    out = _run_child("check", str(spec), "--json")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: line 3, col 22: ")
    assert len(out.stderr.splitlines()) == 1
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("flag, value", [
    ("--max-rounds", "-1"),
    ("--max-term-size", "0"),
    ("--max-term-size", "-2"),
    ("--budget-seconds", "-1"),
    ("--budget-seconds", "nan"),
])
def test_nonsensical_numeric_options_are_usage_errors(flag, value):
    out = _run_child("check", str(PROBLEMS / "gconst.sy"), flag, value,
                     "--json")
    assert out.returncode == 2
    assert out.stdout == ""
    errors = [line for line in out.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert flag in errors[0]
    assert "Traceback" not in out.stderr


def test_set_option_with_a_list_value_is_usage_error(tmp_path):
    spec = tmp_path / "listopt.sy"
    spec.write_text((PROBLEMS / "g1.sy").read_text().replace(
        "(check-synth)", "(set-option :foo (a b))\n(check-synth)"))
    out = _run_child("check", str(spec), "--json")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert len(out.stderr.splitlines()) == 1
    assert "set-option" in out.stderr
    assert "Traceback" not in out.stderr


def test_repeated_variable_in_one_example_is_usage_error():
    out = _run_child("check-examples", str(PROBLEMS / "g1.sy"),
                     "--examples", "x=1,x=2", "--json")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert len(out.stderr.splitlines()) == 1
    assert "'x'" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv, code", [
    (("check", str(PROBLEMS / "gconst.sy"), "--seed", "0", "--json"), 20),
    (("check-examples", str(PROBLEMS / "g1.sy"), "--examples", "x=1",
      "--json"), 0),
    (("check-examples", str(PROBLEMS / "max2.sy"), "--examples",
      "x=1,y=2;x=4,y=3"), 10),
    (("dump-equations", str(PROBLEMS / "g1.sy"), "--examples", "x=1"), 0),
    (("export-horn", str(PROBLEMS / "g1.sy"), "--examples", "x=1"), 0),
])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # stdout is a pipe whose reader has already gone away
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "unrealizer", *argv],
                             stdout=write, stderr=subprocess.PIPE, text=True,
                             timeout=120, env=_child_env())
    finally:
        os.close(write)
    assert out.returncode == code
    assert "Traceback" not in out.stderr
    assert out.stderr == ""


def _contract_cases():
    """Every bundled problem in both modes, under `check` for two rounds
    and under `check-examples` on one row and on two."""
    cases = []
    for path in sorted(PROBLEMS.glob("*.sy")):
        names = parse_problem(path.read_text()).variables
        rows = [",".join(f"{v}={k + i}" for i, v in enumerate(names))
                for k in (1, -2)]
        runs = {"check": ["check", "--seed", "0", "--max-rounds", "2"],
                "one-row": ["check-examples", "--examples", rows[0]],
                "two-rows": ["check-examples", "--examples", ";".join(rows)]}
        for mode in ("sl", "predabs"):
            for label, argv in runs.items():
                cases.append(pytest.param(path.name, mode, argv,
                                          id=f"{path.stem}-{mode}-{label}"))
    return cases


@pytest.mark.parametrize("problem, mode, argv", _contract_cases())
def test_every_bundled_problem_ends_in_a_documented_exit(problem, mode,
                                                         argv):
    out = _run_child(argv[0], str(PROBLEMS / problem), *argv[1:],
                     "--mode", mode, "--json")
    assert "Traceback" not in out.stderr
    assert out.returncode in (0, 10, 20, 2)
    if out.returncode == 2:
        assert out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert len(out.stderr.splitlines()) == 1
    else:
        payload = json.loads(out.stdout)
        jsonschema.validate(payload, SCHEMA)
        assert out.returncode == cli.EXIT[payload["verdict"]]

from __future__ import annotations

import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import GOLDEN_COMMANDS, invoke_cli, read_golden

import fuzzchain
from fuzzchain.checks import SUITES
from fuzzchain.systems import FIXTURE_ASSIGNMENT, builtin_fixtures, format_assignment, format_registry


# --- exit codes -------------------------------------------------------------


def test_usage_errors_exit_1(run_cli):
    assert run_cli()[0] == 1  # a subcommand is required
    assert run_cli("ftf", "--no-such-flag")[0] == 1
    assert run_cli("ftf", "--mode", "fancy")[0] == 1
    assert run_cli("eval", "--set", "x0.5")[0] == 1  # malformed binding
    assert run_cli("eval", "--set", "x=abc")[0] == 1


def test_parse_errors_exit_2(run_cli, tmp_path):
    bad = tmp_path / "bad.fz"
    bad.write_text("system s {\nterminals A -> A\n}\n", encoding="utf-8")
    code, _, err = run_cli("ftf", "--fixtures", str(bad), "--system", "s")
    assert code == 2
    assert "parse error" in err and "terminals must differ" in err

    code, _, err = run_cli("power", "x +", "2")
    assert code == 2
    assert "unexpected end of expression" in err


def test_validation_errors_exit_3(run_cli, tmp_path):
    code, _, err = run_cli("eval", "--system", "psi9")
    assert code == 3
    assert "unknown system: 'psi9'" in err

    assert run_cli("eval", "--set", "x=1.5")[0] == 3  # grade out of range
    assert run_cli("eval", "--budget", "-1")[0] == 3
    for mode in ("raw", "paper"):
        code, out, err = run_cli("expand", "--mode", mode, "--budget", "-5")
        assert (code, out) == (3, "")
        assert "call budget must be >= 0, got -5" in err
    assert run_cli("power", "x + y", "0")[0] == 3

    # counts and budgets past a C integer answer or are refused, with no
    # traceback: a power of 2**63 is refused by its size
    assert run_cli("power", "x", str(2**63)) == (
        3, "", "error: expansion too large: over the cap of 1048576 atoms in one row\n"
    )
    huge = str(2**64)
    for argv in (
        *((command, "--rec-count", huge) for command in ("eval", "expand", "trace", "closure")),
        *((command, "--budget", huge) for command in ("eval", "expand")),
    ):
        code, _, err = run_cli(*argv)
        assert code in (0, 3) and "Traceback" not in err, argv

    partial = tmp_path / "partial.values"
    partial.write_text("x = 0.5\n", encoding="utf-8")
    code, _, err = run_cli("eval", "--system", "psi1", "--assign", str(partial))
    assert code == 3
    assert "missing binding" in err

    # an unused edge's variable must be bound on every route alike
    loose = tmp_path / "loose.fz"
    loose.write_text(
        "system s {\n  terminals A -> B\n  edge A B x\n  edge C D q\n}\n", encoding="utf-8"
    )
    for command in ("eval", "closure", "trace"):
        code, out, err = run_cli(
            command, "--fixtures", str(loose), "--system", "s", "--assign", str(partial)
        )
        assert (code, out, err) == (3, "", "error: missing binding for variable 'q'\n")

    # an unknown call target fails every route, even behind a dead call
    ghost = tmp_path / "ghost.fz"
    ghost.write_text(
        "system s {\n  terminals A -> B\n  edge A B x\n  edge A C call ghost 0\n}\n",
        encoding="utf-8",
    )
    for argv in (("expand",), ("expand", "--mode", "paper"), ("eval", "--set", "x=0.5")):
        assert run_cli(*argv, "--fixtures", str(ghost), "--system", "s") == (
            3, "", "error: unknown system: 'ghost'\n"
        ), argv

    # a deep self-call is sized on the layer table and refused
    for argv, what in (
        (("trace", "--rec-count", "3000"), "trace events"),
        (("expand", "--rec-count", "3000"), "nested nodes"),
    ):
        refusal = f"error: expansion too large: over the cap of 1048576 {what}\n"
        assert run_cli(*argv) == (3, "", refusal), argv

    # a narrow self-call 3000 deep passes the size check, but is too deep
    # for the recursion limit: one error line, no traceback
    narrow = tmp_path / "narrow.fz"
    narrow.write_text(
        "system s {\n  terminals A -> B\n  edge A C x\n  edge C B call s 3000\n}\n",
        encoding="utf-8",
    )
    for argv in (("expand",), ("trace", "--set", "x=0.5")):
        assert run_cli(*argv, "--fixtures", str(narrow), "--system", "s") == (
            3, "", "error: input too deep or too large to evaluate (RecursionError)\n"
        ), argv


def test_nested_expand_of_a_narrow_chain_answers_at_depth_400(run_cli, tmp_path):
    # the nested rendering walks the DAG on an explicit stack, so only the
    # builder's depth limits it
    narrow = tmp_path / "narrow.fz"
    narrow.write_text(
        "system s {\n  terminals A -> B\n  edge A B y\n  edge A C x\n  edge C B call s 400\n}\n",
        encoding="utf-8",
    )
    code, out, err = run_cli("expand", "--fixtures", str(narrow), "--system", "s")
    assert (code, err) == (0, "")
    assert out == "y + x(" * 400 + "y" + ")" * 400 + "\n"
    assert len(out.encode("utf-8")) == 2802


def test_bad_count_and_grade_fail_cleanly(run_cli, tmp_path):
    # a digit that is not a decimal digit is a positioned parse error
    assert run_cli("power", "x^\u00b2", "2") == (
        2, "", "parse error: line 1, col 3: count not a non-negative integer: '\u00b2'\n"
    )
    bad = tmp_path / "bad.fz"
    text = "system s {\n  terminals A -> B\n  edge A B call s \u00b2\n}\n"
    bad.write_text(text, encoding="utf-8")
    assert run_cli("ftf", "--fixtures", str(bad), "--system", "s") == (
        2, "", "parse error: line 3, col 3: count not a non-negative integer: '\u00b2'\n"
    )
    # an out-of-range grade is refused even for a variable no system uses
    assert run_cli("eval", "--set", "q=1.5") == (
        3, "", "error: binding for 'q' out of range [0, 1]: 1.5\n"
    )


def test_check_rejects_fewer_than_one_trial(run_cli):
    for bad in ("0", "-1"):
        code, out, err = run_cli("check", "--trials", bad)
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"fuzzchain check: error: argument --trials: must be >= 1, got {bad}"
        ]


def test_bad_seed_variable_is_a_usage_error_for_check_alone(run_cli, monkeypatch):
    monkeypatch.setenv("FUZZCHAIN_SEED", "abc")
    code, out, err = run_cli("check", "--trials", "1")
    assert (code, out) == (1, "")
    assert "argument --seed: invalid int value: 'abc'" in err
    # an explicit --seed never reads the variable, and no other command has one
    assert run_cli("check", "--seed", "5", "--trials", "1")[0] == 0
    assert run_cli("eval", "--system", "phi") == (0, "0.5\n", "")


def test_seed_variable_sets_the_check_seed(run_cli, monkeypatch):
    monkeypatch.setenv("FUZZCHAIN_SEED", "7")
    code, out, _ = run_cli("check", "--trials", "2", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 7
    assert out == run_cli("check", "--seed", "7", "--trials", "2", "--json")[1]


def test_missing_file_exits_1(run_cli, tmp_path):
    assert run_cli("ftf", "--fixtures", str(tmp_path / "nope.fz"))[0] == 1


@pytest.mark.parametrize("flag", ["--fixtures", "--assign"])
def test_file_that_is_not_utf8_is_a_parse_error_naming_the_byte(run_cli, tmp_path, flag):
    bad = tmp_path / "latin.fz"
    for prefix in (b"", b"system s {\n  terminals A -> B\n"):
        bad.write_bytes(prefix + b"\xff(")
        code, out, err = run_cli("eval", flag, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: {bad}: not UTF-8 at byte {len(prefix)}: "), err


def test_validate_reports_diagnostics(run_cli, tmp_path):
    broken = tmp_path / "broken.fz"
    broken.write_text(
        "system s {\n  terminals A -> B\n  edge A B call ghost 1\n}\n", encoding="utf-8"
    )
    code, out, _ = run_cli("validate", "--fixtures", str(broken))
    assert code == 3
    assert out == "error: s: unknown call target 'ghost'\n"

    code, out, _ = run_cli("validate")
    assert code == 0
    assert out == "ok: 7 systems\n"


def test_validate_json_lists_each_diagnostics_fields(run_cli, tmp_path):
    broken = tmp_path / "broken.fz"
    broken.write_text(
        "system s {\n  terminals A -> B\n  edge A C call ghost 1\n}\n", encoding="utf-8"
    )
    code, out, _ = run_cli("validate", "--fixtures", str(broken), "--json")
    assert code == 3
    assert json.loads(out) == {
        "systems": ["s"],
        "diagnostics": [
            {"system": "s", "severity": "error", "message": "unknown call target 'ghost'"},
            {"system": "s", "severity": "warning", "message": "disconnected terminal 'B'"},
        ],
    }


def test_check_json_lists_each_results_fields(run_cli):
    payload = json.loads(run_cli("check", "--seed", "1", "--trials", "2", "--json")[1])
    assert len(payload["results"]) == 6
    for result in payload["results"]:
        assert set(result) == {"name", "trials", "failures", "detail"}
        assert (result["failures"], result["detail"]) == (0, "")
    assert [r["name"] for r in payload["results"]] == list(SUITES)


def test_check_small_run_passes(run_cli):
    code, out, _ = run_cli("check", "--seed", "1", "--trials", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("ok   ") for line in lines)


# --- golden outputs ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs_are_stable(name):
    argv = GOLDEN_COMMANDS[name]
    first = invoke_cli(*argv)
    second = invoke_cli(*argv)
    assert first[0] == 0
    assert first == second  # same exit code, stdout, stderr
    assert first[1] == read_golden(name)


def _child_pythonpath() -> str:
    # A relative PYTHONPATH entry (such as `src`) breaks under cwd=tmp_path, so
    # put the directory holding the imported package first: the child runs the
    # code this suite tests.
    package_root = str(Path(fuzzchain.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))


def test_console_script_is_deterministic(tmp_path):
    # The installed console script when there is one, else the same main() as
    # a module: the test suite runs from PYTHONPATH without an install.
    exe = shutil.which("fuzzchain")
    argv = [exe, "trace"] if exe else [sys.executable, "-m", "fuzzchain.cli", "trace"]
    pythonpath = _child_pythonpath()
    runs = []
    for hash_seed in ("0", "1"):  # distinct str hashing: set/dict order may differ
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env, timeout=60)
        assert proc.returncode == 0, (
            f"{argv} with PYTHONHASHSEED={hash_seed} exited {proc.returncode}:\n"
            + proc.stderr.decode("utf-8", "replace")
        )
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert runs[0].decode("utf-8") == read_golden("trace_psi1_rec.txt")


@pytest.mark.parametrize(
    "argv, code",
    [(("fixtures", "--values"), 0), (("eval", "--system", "nope"), 3), (("eval", "--bad"), 1)],
)
def test_the_package_runs_as_the_cli_module(tmp_path, argv, code):
    env = {**os.environ, "PYTHONPATH": _child_pythonpath()}
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, cwd=tmp_path, env=env, timeout=60,
        )
        for module in ("fuzzchain", "fuzzchain.cli")
    ]
    package, module = ((p.returncode, p.stdout, p.stderr) for p in runs)
    assert package == module and package[0] == code, package
    if code == 0:
        assert package[1].decode("utf-8") == read_golden("fixtures_values.txt")


# Runs `cli.main` on its arguments (with none, only imports the package) in a
# fresh interpreter and reports the exit code, the fuzzchain modules loaded
# and whether `json` was loaded after start-up.
_IMPORT_PROBE = """
import sys
at_start = set(sys.modules)
code = 0
if len(sys.argv) == 1:
    import fuzzchain
else:
    from fuzzchain import cli
    code = cli.main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("fuzzchain."))
new = set(sys.modules) - at_start
print(repr((code, loaded, "json" in new, bool({"dataclasses", "inspect"} & new))), file=sys.stderr)
"""

_PARSE = ["algebra", "cli", "errors", "systems"]
_WALK = sorted(_PARSE + ["chains", "recursion"])
_ALL = sorted(_WALK + ["checks", "closure", "oracles", "rng"])

# command line -> (fuzzchain modules it loads, whether it loads json); the
# empty command only imports the package.  No command loads dataclasses or
# inspect, which cost more to import than most of the package.
IMPORT_CASES = {
    "": ([], False),
    "power 'xz + yw' 2": (["algebra", "cli", "errors"], False),
    "power 'xz + yw' 2 --json": (["algebra", "cli", "errors"], True),
    "fixtures": (_PARSE, False),
    "fixtures --values --json": (_PARSE, True),
    "validate": (_PARSE, False),
    "ftf": (sorted(_PARSE + ["chains"]), False),
    "eval --set x=0.5": (_WALK, False),
    "expand --json": (_WALK, True),
    "trace": (_WALK, False),
    "trace --json": (_WALK, True),
    "closure": (sorted(_WALK + ["closure"]), False),
    "matrix": (sorted(_PARSE + ["closure"]), False),
    "matrix --resolve": (sorted(_WALK + ["closure"]), False),
    "check --trials 1": (_ALL, False),
    "check --trials 1 --json": (_ALL, True),
}


@pytest.mark.parametrize("command", IMPORT_CASES)
def test_each_command_imports_only_the_modules_it_runs(command):
    # a deterministic stand-in for start-up time: a module left out is one a
    # fresh process does not compile
    modules, json_loaded = IMPORT_CASES[command]
    env = {**os.environ, "PYTHONPATH": _child_pythonpath()}
    argv = [sys.executable, "-c", _IMPORT_PROBE, *shlex.split(command)]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    report = proc.stderr.decode("utf-8").splitlines()[-1]
    assert (proc.returncode, report) == (0, repr((0, modules, json_loaded, False)))


def test_package_exports_resolve_to_the_defining_modules_objects():
    # objects with no __module__ of their own name their home here
    homes = {"FIXTURE_ASSIGNMENT": "fuzzchain.systems", "__version__": "fuzzchain"}
    for name in fuzzchain.__all__:
        namespace: dict = {}
        exec(f"from fuzzchain import {name}", namespace)
        home = homes.get(name) or namespace[name].__module__
        assert namespace[name] is getattr(importlib.import_module(home), name), name
    listed = dir(fuzzchain)
    assert "__all__" in listed and set(fuzzchain.__all__) <= set(listed)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        fuzzchain.no_such_name
    with pytest.raises(ImportError):
        exec("from fuzzchain import no_such_name", {})


@pytest.mark.parametrize(
    "argv, what",
    [
        (("expand", "--rec-count", "250"), "nested nodes"),
        (("trace", "--rec-count", "340"), "trace events"),
        (("expand", "--rec-count", "1000000"), "nested nodes"),
        (("expand", "--rec-count", "1000000", "--mode", "paper"), "flat terms"),
        (("expand", "--rec-count", "1000000", "--simplify"), "flat terms"),
        (("trace", "--rec-count", "1000000"), "trace events"),
    ],
)
def test_oversized_expansion_is_refused_before_any_output(tmp_path, argv, what):
    # about 2^250 nested nodes and 2^342 events: sized on the layer table,
    # never built, whatever the depth
    env = {**os.environ, "PYTHONPATH": _child_pythonpath()}
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzchain.cli", *argv],
        capture_output=True,
        cwd=tmp_path,
        env=env,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.decode("utf-8") == (
        f"error: expansion too large: over the cap of 1048576 {what}\n"
    )


def test_closed_stdout_exits_141_without_a_message(tmp_path):
    # about 8 MB of trace: the reader takes one line and goes away
    env = {**os.environ, "PYTHONPATH": _child_pythonpath()}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fuzzchain.cli", "trace", "--rec-count", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=tmp_path,
        env=env,
    )
    assert proc.stdout.readline() == b"ENTER system=psi1_rec budget=top\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# --- flag behavior ----------------------------------------------------------


def test_fixtures_flag_accepts_a_file(run_cli, tmp_path):
    path = tmp_path / "registry.fz"
    path.write_text(format_registry(builtin_fixtures()), encoding="utf-8")
    values = tmp_path / "grades.values"
    values.write_text(format_assignment(FIXTURE_ASSIGNMENT), encoding="utf-8")

    from_file = run_cli(
        "eval", "--fixtures", str(path), "--system", "phi", "--assign", str(values)
    )
    builtin = run_cli("eval", "--system", "phi")
    assert from_file == builtin == (0, "0.5\n", "")


def test_long_path_file_runs_without_recursion_limit(run_cli, tmp_path):
    n = 3000
    edges = "".join(f"  edge V{i} V{i + 1} x\n" for i in range(n))
    path = tmp_path / "line.fz"
    path.write_text(f"system line {{\n  terminals V0 -> V{n}\n{edges}}}\n", encoding="utf-8")
    common = ("--fixtures", str(path), "--system", "line")
    assert run_cli("ftf", *common) == (0, "*".join(["x"] * n) + "\n", "")
    assert run_cli("eval", *common, "--set", "x=0.5") == (0, "0.5\n", "")


def test_power_of_a_long_sum_runs_without_recursion_limit(run_cli):
    terms = [f"v{i}" for i in range(1200)]
    code, out, err = run_cli("power", " + ".join(terms), "1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 + len(terms)  # the power, then one table row per term
    assert lines[1] == "1 * (1" + ",0" * 1199 + ") -> v0"


def test_power_refuses_its_table_before_it_builds_the_power(run_cli):
    # 18 one-letter terms at k = 18: the power would hold 2^18 - 1 unions,
    # but the table's size, C(35, 17) rows of 18 atoms, refuses it first
    terms = "+".join("abcdefghijklmnopqr")
    tracemalloc.start()
    try:
        refused = run_cli("power", terms, "18")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused == (
        3, "", "error: expansion too large: over the cap of 1048576 atoms in the table\n"
    )
    assert peak < 4 * 2**20


def test_numeric_routes_answer_at_any_self_call_count(run_cli):
    # the value stops changing at budget layer 2, so no count is too deep
    for argv in (
        ("eval", "--system", "psi1_rec"),
        ("closure", "--system", "psi1_rec"),
        ("matrix", "--system", "psi1_rec", "--resolve"),
    ):
        shallow = run_cli(*argv, "--rec-count", "2")
        assert shallow[0] == 0 and shallow[1], argv
        for count in ("3000", "1000000"):
            assert run_cli(*argv, "--rec-count", count) == shallow, (argv, count)
    assert run_cli("eval", "--system", "psi1_rec", "--rec-count", "1000000")[1] == "0.6\n"


def test_set_overrides_fixture_assignment(run_cli):
    # with y lowered the C-side chains die and the x side of the diamond wins
    code, out, _ = run_cli("eval", "--system", "psi1", "--set", "y=0.1")
    assert (code, out) == (0, "0.3\n")


def test_rec_count_flag_rebuilds_the_recursive_fixture(run_cli):
    deep = ("--set", "x=0.9", "--set", "y=0.2", "--set", "w=0.8", "--set", "z=0.1")
    base = run_cli("eval", "--system", "psi1_rec", "--rec-count", "0", *deep)
    assert base == (0, "0.2\n", "")
    out = run_cli("fixtures", "--rec-count", "5")[1]
    assert "edge C D call psi1_rec 5" in out


def test_eval_budget_flag(run_cli):
    assert run_cli("eval", "--system", "phi", "--budget", "0") == (0, "0.0\n", "")
    assert run_cli("eval", "--system", "phi", "--budget", "2")[1] == "0.5\n"


def test_expand_modes(run_cli):
    nested = run_cli("expand")[1]
    flat = run_cli("expand", "--mode", "paper")[1]
    assert nested.count("(") == 6
    assert "(" not in flat
    simplified = run_cli("expand", "--simplify")[1]
    # every call chain is absorbed by a 2-edge chain; canonical order puts w*y first
    assert simplified == "w*y + x*z\n"


SIGNED_ZERO_TEXT = """
system t {
  terminals A -> B
  edge A B x
}
system s {
  terminals A -> B
  edge A B x
  edge A C call t 1
  edge C B y
}
"""


@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
@pytest.mark.parametrize("command", ["eval", "closure", "matrix", "trace"])
def test_a_signed_zero_binding_prints_as_zero(run_cli, tmp_path, command, as_json):
    path = tmp_path / "signed.fz"
    path.write_text(SIGNED_ZERO_TEXT, encoding="utf-8")
    argv = [command, "--fixtures", str(path), "--system", "s"]
    argv += ["--resolve"] * (command == "matrix") + ["--json"] * as_json
    signed = run_cli(*argv, "--set", "x=-0.0", "--set", "y=0.5")
    assert signed == run_cli(*argv, "--set", "x=0.0", "--set", "y=0.5")
    assert signed[0] == 0 and "0.0" in signed[1] and "-0.0" not in signed[1]
    assign = tmp_path / "signed.txt"
    assign.write_text("x = -0.0\ny = 0.5\n", encoding="utf-8")
    assert run_cli(*argv, "--assign", str(assign)) == signed


def test_json_payloads(run_cli):
    code, out, _ = run_cli("eval", "--system", "phi", "--json")
    assert code == 0
    assert json.loads(out) == {"system": "phi", "budget": None, "value": 0.5}

    payload = json.loads(run_cli("matrix", "--system", "psi1", "--resolve", "--json")[1])
    assert payload["vertices"] == ["A", "B", "C", "D"]
    assert payload["cells"][0] == [1.0, 0.0, 0.7, 0.3]

    # the symbolic cells read as the table prints them, not as sentinel names
    payload = json.loads(run_cli("matrix", "--system", "psi1", "--json")[1])
    assert payload["cells"][0] == ["1", "0", "y", "x"]
    table = run_cli("matrix", "--system", "psi1")[1].strip().splitlines()[1:]
    assert payload["cells"] == [line.split()[1:] for line in table]

    payload = json.loads(run_cli("trace", "--json")[1])
    assert payload["value"] == 0.6
    assert payload["events"] == run_cli("trace")[1].splitlines()

    payload = json.loads(run_cli("check", "--seed", "1", "--trials", "2", "--json")[1])
    assert payload["passed"] is True
    assert [suite["failures"] for suite in payload["results"]] == [0] * 6

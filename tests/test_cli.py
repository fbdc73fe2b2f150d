"""Exit codes and rendered output of every CLI command."""

import io
import json
import os
import stat
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

COMP = "systems/compositeness.lrw"


def run_cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "coreach.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_prove_compositeness_exit_zero():
    proc = run_cli("prove", COMP, "--max-depth", "10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[proved]") == 2


def test_prove_failure_without_circularity(tmp_path):
    trimmed = tmp_path / "nocirc.lrw"
    trimmed.write_text(Path(COMP).read_text().split("circ")[0])
    proc = run_cli("prove", str(trimmed), "--max-depth", "3")
    assert proc.returncode == 1
    assert "[failed]" in proc.stdout
    assert "open [depth]" in proc.stderr


def test_a_closed_stdout_ends_quietly_without_a_verdict():
    # The reader closes the pipe before the proof is written: exit 141
    # (128 + SIGPIPE), not 1, which would claim a failed goal.
    cmd = [sys.executable, "-m", "coreach.cli", "prove", "systems/sum.lrw", "--solver", "builtin", "--dump-proof", "json"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=240)
    assert proc.returncode == 141
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "spec, text, code, stdout",
    [
        ("missing.lrw", None, 3, b""),
        ("overlap.lrw", "sorts Cfg;\nsymbols div : Int Int -> Cfg;\nvars n : Int;\n", 3, b""),
        ("tests/specs/narrow_subsort.lrw", None, 2, b"[inconclusive] prove wrap(c) /\\ true => done(c) /\\ true\n"),
    ],
    ids=["input-error", "violation", "inconclusive"],
)
def test_a_closed_stderr_keeps_the_exit_code(tmp_path, spec, text, code, stdout):
    # The reader of stderr is gone before the first diagnostic is printed:
    # an input error, a spec with violations and an inconclusive run keep
    # their exit codes (3, 3, 2); only a closed stdout exits 141.
    if text is not None:
        spec = tmp_path / spec
        spec.write_text(text)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        cmd = [sys.executable, "-m", "coreach.cli", "prove", str(spec), "--solver", "builtin"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=write_end, timeout=240)
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stdout == stdout


def test_bundled_solver_verdicts_do_not_follow_the_timeout(tmp_path):
    # Without its circularity the compositeness goal reaches queries the
    # bundled solver cannot decide.  Its limits count work, not time, so the
    # run is the same at any --timeout-ms its work fits in, and it stays short.
    trimmed = tmp_path / "nocirc.lrw"
    trimmed.write_text(Path(COMP).read_text().split("circ")[0])
    runs = []
    for timeout_ms in ("1000", "60000"):
        start = time.monotonic()
        proc = run_cli("prove", str(trimmed), "--solver", "builtin", "--max-depth", "6", "--timeout-ms", timeout_ms)
        assert time.monotonic() - start < 6.0
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    returncode, _, stderr = runs[0]
    assert returncode == 2
    assert stderr.count("open [") == stderr.count("open [unknown totality]") == 1


def test_prove_solver_unknowns_exit_two(tmp_path):
    # A solver that answers unknown to everything enables no rule: the goals
    # are inconclusive, not failed, and each unknown is reported with its query.
    fake = tmp_path / "unknown-solver"
    fake.write_text("#!/bin/sh\ncat > /dev/null\necho unknown\n")
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    proc = run_cli("prove", "systems/sum.lrw", "--solver", str(fake))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.count("[inconclusive]") == 2
    assert "open [unknown lhs-unsat]" in proc.stderr
    assert "query:" in proc.stderr
    assert "open [no-rule]" not in proc.stderr


def test_prove_unreadable_solver_answer_aborts_each_goal(tmp_path):
    # An answer that is not sat/unsat/unknown aborts the goal, as a solver
    # that cannot start does; it is not an input error.
    fake = tmp_path / "gibberish-solver"
    fake.write_text("#!/bin/sh\necho gibberish\n")
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    proc = run_cli("prove", "systems/sum.lrw", "--solver", str(fake))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.count("[aborted]") == 2
    assert "unrecognized answer 'gibberish'" in proc.stderr
    assert "error:" not in proc.stderr


RESIDUE_SPEC = (
    "sorts Cfg;\n"
    "symbols a : Int -> Cfg; b : Int -> Cfg;\n"
    "vars n : Int, r : Int;\n"
    "rules a(n) => b(n) if true;\n"
    "prove a(n) /\\ (exists c : Cfg . ~(c = b(n))) => b(r) /\\ r = n;\n"
)


def test_prove_unencodable_constraint_is_inconclusive(tmp_path):
    # A quantifier over Cfg cannot reach the solver: the query is unknown,
    # reported with its role and query, and no rule closes the goal.
    spec = tmp_path / "residue.lrw"
    spec.write_text(RESIDUE_SPEC)
    proc = run_cli("prove", str(spec), "--solver", "builtin")
    assert proc.returncode == 2, proc.stderr
    assert "[inconclusive]" in proc.stdout
    assert "open [unknown lhs-unsat]" in proc.stderr
    assert "    query: exists c : Cfg . ~c = b(n)" in proc.stderr


def test_derive_keeps_a_successor_with_an_unencodable_constraint(tmp_path):
    spec = tmp_path / "residue.lrw"
    spec.write_text(RESIDUE_SPEC)
    term = "a(n) /\\ (exists c : Cfg . ~(c = b(n)))"
    proc = run_cli("derive", str(spec), "--solver", "builtin", "--term", term)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "b(n) /\\ (exists c : Cfg . ~c = b(n))"


def test_run_corpus_matches_prove_settings(tmp_path):
    # Both read the spec's options the same way and default to depth 20, so
    # a counter that needs 25 steps hits the depth bound in both.
    (tmp_path / "counter.lrw").write_text(
        "sorts Cfg;\n"
        "symbols c : Int -> Cfg; done : -> Cfg;\n"
        "vars i : Int;\n"
        "rules c(i) => c(i + 1) if i < 25; c(i) => done if i >= 25;\n"
        "prove c(0) /\\ true => done /\\ true;\n"
    )
    proc = run_cli("prove", str(tmp_path / "counter.lrw"), "--solver", "builtin")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "open [depth]: c(20) /\\ true" in proc.stderr
    corpus = subprocess.run(
        [sys.executable, "scripts/run_corpus.py", "--systems", str(tmp_path), "--solver", "builtin"],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert corpus.returncode == 1, corpus.stdout + corpus.stderr


def test_benchmark_tracer_finds_every_binding_site():
    # perfbench/tracing.py wraps functions at the names their callers import
    # (check_sat in coreach.prover and coreach.rewriting among them); a
    # binding that a refactor drops makes install fail.
    code = "import tracing; tracing.install(tracing.Tracer())"
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_every_traced_binding_site_resolves():
    # The same sites read in-process, without installing a wrapper: the
    # failing assertion names the site that is gone.
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for _name, group, _attrs in tracing.BINDINGS for site in group]
    assert "coreach.rewriting:unify_modulo_builtins" in sites
    for site in sites:
        module_name, _, path = site.partition(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), site


def test_prove_parse_error_exit_three(tmp_path):
    bad = tmp_path / "bad.lrw"
    bad.write_text("rules broken")
    proc = run_cli("prove", str(bad))
    assert proc.returncode == 3
    assert "error:" in proc.stderr


def test_prove_dump_json_schema():
    proc = run_cli("prove", COMP, "--dump-proof", "json")
    assert proc.returncode == 0
    start = proc.stdout.index("{")
    blob = json.loads(proc.stdout[start : proc.stdout.index("\n[proved]", start)])
    assert set(blob) >= {"goal", "rule", "conditions", "children"}
    assert blob["rule"] == "der"
    assert all({"formula", "verdict"} <= set(c) for c in blob["conditions"])


def test_derive_prints_successors():
    proc = run_cli("derive", COMP, "--term", "init(n) /\\ n > 0")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "loop(n, 2) /\\ n > 0"


def test_derive_keeps_user_names_in_view():
    # The step binds the rule's fresh variables to the subject's; the
    # successors speak of the subject's variables, not of a fresh one
    # pushed back in for them (once `i * n + n` and `mres(i * n)`).
    term = "mloop(m, n, i, a) /\\ 0 <= i /\\ i <= m /\\ a = i * n"
    proc = run_cli("derive", "systems/mul.lrw", "--solver", "builtin", "--term", term)
    assert proc.returncode == 0, proc.stderr
    heads = [line.split(" /\\ ", 1)[0] for line in proc.stdout.splitlines()]
    assert heads == ["mloop(m, n, i + 1, a + n)", "mres(a)"]


def test_derive_keeps_the_rule_side_in_the_subjects_names():
    # The step binds the rule's u and v to the subject's; the guard's
    # u = v stays a constraint instead of being pushed into the term.
    term = "gloop(u, v) /\\ u = v"
    proc = run_cli("derive", "systems/gcd_sub.lrw", "--solver", "builtin", "--term", term)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "gres(u) /\\ u = v"


@pytest.mark.parametrize("solver", ["gibberish", "missing"])
def test_derive_aborts_on_a_solver_failure(tmp_path, solver):
    # As with prove: a solver that answers unreadably or cannot start is not
    # an input error, so derive reports it as aborted and exits 2.
    fake = tmp_path / "gibberish-solver"
    fake.write_text("#!/bin/sh\necho gibberish\n")
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    command = str(fake) if solver == "gibberish" else str(tmp_path / "no-such-solver")
    proc = run_cli("derive", "systems/sum.lrw", "--term", "sum(n) /\\ n >= 0", "--solver", command)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("aborted: ")
    assert "error:" not in proc.stderr


@pytest.mark.parametrize(
    "command, flags",
    [
        ("prove", ["--solver", "builtin", "--max-depth", "0"]),
        ("prove", ["--solver", "builtin", "--max-depth", "-1"]),
        ("prove", ["--solver", "builtin", "--timeout-ms", "-5"]),
        ("prove", ["--solver", "builtin", "--timeout-ms", "0"]),
        ("derive", ["--solver", "builtin", "--timeout-ms", "0", "--term", "sum(n) /\\ n >= 0"]),
        ("oracle", ["--bound", "-1"]),
    ],
)
def test_out_of_range_settings_are_input_errors(command, flags):
    proc = run_cli(command, "systems/sum.lrw", *flags)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_oracle_valid_run():
    proc = run_cli("oracle", COMP, "--bound", "12", "--steps", "10000")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[valid]") == 2


def test_oracle_truncated_run_is_inconclusive():
    # one expansion step cuts every run; n < 0 gives the goal no instances
    proc = run_cli("oracle", "systems/sum.lrw", "--bound", "3", "--steps", "1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout.count("[inconclusive]") == 2


def test_check_graph_edge_list_and_dot(tmp_path):
    proc = run_cli("check-graph", COMP, "--bound", "6", "--steps", "200")
    assert proc.returncode == 0
    assert "init(4) -> [loop(4, 2)]" in proc.stdout
    dotfile = tmp_path / "g.dot"
    proc2 = run_cli("check-graph", COMP, "--bound", "6", "--steps", "200", "--dot", str(dotfile))
    assert proc2.returncode == 0
    assert dotfile.read_text().startswith("digraph")


@pytest.mark.parametrize(
    "command, flags",
    [("prove", []), ("derive", ["--term", "div(1, 2) /\\ true"]), ("oracle", []), ("check-graph", [])],
    ids=["prove", "derive", "oracle", "check-graph"],
)
def test_validate_reports_clean_and_violations(tmp_path, command, flags):
    # validate counts the violations; every other command refuses the spec
    proc = run_cli("validate", COMP)
    assert proc.returncode == 0
    assert "0 violations" in proc.stdout
    bad = tmp_path / "overlap.lrw"
    bad.write_text("sorts Cfg;\nsymbols div : Int Int -> Cfg;\nvars n : Int;\n")
    proc2 = run_cli("validate", str(bad))
    assert proc2.returncode == 1
    assert "violation: builtin-overlap" in proc2.stderr
    proc3 = run_cli(command, str(bad), *flags)
    assert proc3.returncode == 3
    assert proc3.stdout == ""
    assert proc3.stderr.startswith("violation: builtin-overlap: ")
    assert proc3.stderr.splitlines() == proc2.stderr.splitlines()


def test_a_subsort_cycle_is_refused(tmp_path):
    # The subsort order must be a partial order: validate reports the cycle
    # and exits 1, and prove refuses the spec with exit 3.
    from coreach import cli

    cyclic = tmp_path / "cyclic.lrw"
    cyclic.write_text("sorts A, B;\nsubsort A < B;\nsubsort B < A;\nsymbols a : -> A;\n")
    for args, code in [(["validate", str(cyclic)], 1), (["prove", str(cyclic), "--solver", "builtin"], 3)]:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert cli.main(args) == code
        assert err.getvalue() == "violation: subsort-cycle: the subsort order loops through A, B\n"


def test_a_repeated_symbol_is_an_input_error(tmp_path):
    # A symbol declared twice is refused as a repeated sort or variable is,
    # while a user symbol at a builtin's sorts stays validate's violation.
    from coreach import cli

    def run(*args):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(args))
        return code, out.getvalue(), err.getvalue()

    twice = tmp_path / "twice.lrw"
    twice.write_text("sorts A;\nsymbols a : -> A;\nsymbols a : -> A;\n")
    for args in (["validate", str(twice)], ["prove", str(twice), "--solver", "builtin"]):
        assert run(*args) == (3, "", "error: 3:9: symbol a : -> A already declared\n")
    overlap = tmp_path / "overlap.lrw"
    overlap.write_text("sorts A;\nsymbols a : -> A; div : Int Int -> Int;\n")
    code, _, err = run("validate", str(overlap))
    assert code == 1
    assert "violation: builtin-overlap: user symbol div/2 clashes with a builtin" in err.splitlines()


@pytest.mark.parametrize(
    "args",
    [
        ["prove", "systems/sum.lrw", "--max-branch", "5"],
        ["oracle", "systems/sum.lrw", "--solver", "builtin"],
        ["prove", "systems/sum.lrw", "--bogus"],
        ["prove"],
    ],
    ids=["removed-flag", "flag-of-another-command", "unknown-flag", "missing-file"],
)
def test_usage_errors_are_input_errors(args):
    # argparse's own exit code, 2, would read as inconclusive
    proc = run_cli(*args)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: coreach") and "error: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_help_exits_zero():
    proc = run_cli("prove", "--help")
    assert proc.returncode == 0
    assert "--max-depth" in proc.stdout and "--max-branch" not in proc.stdout


SEQUENCE = [
    ["prove", "systems/sum.lrw", "--solver", "builtin"],
    ["prove", "tests/specs/narrow_subsort.lrw", "--solver", "builtin"],
    ["derive", COMP, "--solver", "builtin", "--term", "init(n) /\\ n > 0"],
    ["validate", COMP],
    ["oracle", "systems/sum.lrw", "--bound", "3"],
    ["check-graph", COMP, "--bound", "4", "--steps", "200"],
    ["prove", "systems/sum.lrw", "--bogus"],
    ["prove", "--help"],
    ["--help"],
    ["prove", "systems/sum.lrw", "--solver", "builtin", "--dump-proof", "text"],
]


def test_one_process_answers_a_sequence_as_fresh_processes(monkeypatch):
    # main reuses one argument parser per process: each call of a sequence
    # prints and exits as the same command does in a process of its own,
    # after a usage error and after --help too.
    from coreach import cli

    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width in both
    for args in SEQUENCE:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse ends a usage error and --help so
                code = exc.code
        proc = run_cli(*args)
        assert (out.getvalue(), err.getvalue(), code) == (proc.stdout, proc.stderr, proc.returncode), args
    assert cli.build_arg_parser() is cli.build_arg_parser()


def test_the_cli_answers_as_its_golden_transcript():
    # tests/data/cli_transcript.json (scripts/capture_queries.py) holds the
    # stdout, stderr and exit code of sixty commands over the systems and
    # the test specs; every one answers the same, byte for byte.
    from coreach import cli

    transcript = json.loads(Path("tests/data/cli_transcript.json").read_text(encoding="utf-8"))
    assert len(transcript) == 60
    for run in transcript:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(run["argv"])
        assert (out.getvalue(), err.getvalue(), code) == (run["stdout"], run["stderr"], run["exit"]), run["argv"]


def test_every_spec_option_has_one_default():
    from coreach import cli
    from coreach.specfile import OPTION_KEYS

    assert set(cli.DEFAULTS) == OPTION_KEYS


def test_missing_file_exit_three():
    proc = run_cli("prove", "no/such/file.lrw")
    assert proc.returncode == 3


def test_prove_case_split_goal(tmp_path):
    text = (
        "sorts Cfg;\n"
        "symbols a : -> Cfg; b : -> Cfg;\n"
        "vars n : Int;\n"
        "rules a => b if true;\n"
        "prove a /\\ n >= 0 => b /\\ true cases n = 0, n > 0;\n"
    )
    f = tmp_path / "split.lrw"
    f.write_text(text)
    proc = run_cli("prove", str(f))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    blob = run_cli("prove", str(f), "--dump-proof", "text")
    assert "[disj]" in blob.stdout


@pytest.mark.parametrize("blank", ["", "   "])
def test_a_blank_rmt_solver_counts_as_unset(blank):
    env = {**os.environ, "RMT_SOLVER": blank}
    cmd = [sys.executable, "-m", "coreach.cli", "prove", "systems/sum.lrw"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=240, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[proved]") == 2


def test_an_empty_solver_command_is_an_input_error():
    proc = run_cli("prove", "systems/sum.lrw", "--solver", '""')
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stderr == "error: empty solver command\n"


def test_builtin_subprocess_answers_as_builtin_from_one_process_per_run(monkeypatch):
    # The same output, byte for byte, from the in-process solver and from
    # one solver process per run (none for a run that sends no query); that
    # process has exited once prove returns.
    from coreach import cli

    configs, started = [], []
    real_config, real_popen = cli.search_config, subprocess.Popen

    def recording_config(*args):
        configs.append(real_config(*args))
        return configs[-1]

    def recording_popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(cli, "search_config", recording_config)
    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    for path in sorted(Path("systems").glob("*.lrw")) + sorted(Path("tests/specs").glob("*.lrw")):
        runs = []
        for solver in ("builtin", "builtin-subprocess"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["prove", str(path), "--solver", solver, "--dump-proof", "json"])
            runs.append((code, out.getvalue(), err.getvalue()))
        assert runs[0] == runs[1], path
        assert started == [p for p in [configs[-1].solver.session.proc] if p is not None], path
        assert all(p.poll() is not None for p in started)
        started.clear()


def test_prove_solver_unavailable_exit_two():
    proc = run_cli("prove", COMP, "--solver", "/nonexistent/solver")
    assert proc.returncode == 2
    assert "[aborted]" in proc.stdout


@pytest.mark.parametrize(
    "name, counterexample",
    [
        ("narrow_totality", "wrap(cnt(-1))"),
        ("narrow_subsort", "wrap(fin(-2))"),
        ("redex_under_variable", "pair(cnt(-2), cnt(0)) -> pair(fin(-2), cnt(0)) -> pair(fin(-2), fin(0))"),
    ],
)
def test_a_goal_the_oracle_refutes_is_never_proved(name, counterexample):
    # Each symbolic step here would have to narrow a user-sorted variable or
    # could miss a redex inside one: der refuses it and the goal stays open.
    path = f"tests/specs/{name}.lrw"
    proc = run_cli("prove", path, "--solver", "builtin")
    assert "[proved]" not in proc.stdout
    assert proc.stdout.startswith("[inconclusive]")
    assert proc.stderr.splitlines()[-2].startswith("  open [der-refused]: ")
    assert proc.stderr.splitlines()[-1].startswith("    refused: ")
    assert proc.returncode == 2
    proc = run_cli("oracle", path, "--bound", "2")
    assert proc.stdout == f"[invalid] prove goal: counterexample {counterexample}\n"
    assert proc.returncode == 1


def test_the_oracle_never_refutes_a_proved_spec(capsys):
    # Whatever `prove` proves, the oracle must not find a counterexample to
    # at small bounds; `inconclusive` is allowed.
    from coreach import cli

    proved = []
    for path in sorted(Path("systems").glob("*.lrw")) + sorted(Path("tests/specs").glob("*.lrw")):
        code = cli.main(["prove", str(path), "--solver", "builtin"])
        capsys.readouterr()
        if code != 0:
            continue
        proved.append(path.stem)
        for bound in (1, 2, 3, 4):
            code = cli.main(["oracle", str(path), "--bound", str(bound)])
            out = capsys.readouterr().out
            assert code != 1 and "[invalid]" not in out, (path, bound, out)
    assert proved == ["compositeness", "gcd_div", "gcd_sub", "mul", "sum", "sum_squares", "overload_subsort"]


def test_derive_refuses_to_narrow():
    # wrap(b) with b : Busy covers only the Busy values of c : Cfg.
    proc = run_cli("derive", "tests/specs/narrow_subsort.lrw", "--term", "wrap(c) /\\ true", "--solver", "builtin")
    assert proc.stdout == ""
    assert proc.stderr == "refused: b : Busy would narrow c : Cfg\n"
    assert proc.returncode == 2

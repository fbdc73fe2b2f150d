"""Encoding and solver-driving behavior, including the subprocess path."""

import io
import stat
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import coreach.smt as smt
from coreach.errors import InvalidOption, MalformedSolverOutput, NonBuiltinResidue, SolverUnavailable
from coreach.formulas import FALSE, TRUE, And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or, conj
from coreach.minismt import sexpr
from coreach.minismt.sexpr import parse_all
from coreach.smt import (
    SolverConfig,
    Verdict,
    check_sat,
    encode,
    query,
    resolve_solver,
)
from coreach.signature import Signature
from coreach.terms import BOOL, INT, App, Lit, Var

n, k, u = Var("n", INT), Var("k", INT), Var("u", INT)


def exists_double(mk):
    return Exists((k,), conj([Atom(mk(">", (k, Lit(1)))), Eq(Lit(6), mk("*", (Lit(2), k)))]))


def psi(mk):
    return Exists(
        (u,),
        conj([Atom(mk("<", (Lit(1), u))), Atom(mk("<", (u, n))), Eq(mk("mod", (n, u)), Lit(0))]),
    )


def test_encode_quantified_witness(comp_sig):
    script = encode(comp_sig, exists_double(comp_sig.make_app))
    assert "(exists ((k Int))" in script
    assert "(and (> k 1) (= 6 (* 2 k)))" in script
    assert script.strip().endswith("(check-sat)")


def test_encode_false(comp_sig):
    script = encode(comp_sig, FALSE)
    assert "(assert false)" in script


def test_encode_declares_free_variables(comp_sig):
    script = encode(comp_sig, psi(comp_sig.make_app))
    assert "(declare-const n Int)" in script
    assert "(exists ((u Int))" in script


def test_encode_deterministic_and_sexpr_roundtrip(comp_sig):
    f = conj([psi(comp_sig.make_app), Atom(comp_sig.make_app("<", (Lit(0), n)))])
    s1, s2 = encode(comp_sig, f), encode(comp_sig, f)
    assert s1 == s2
    forms = parse_all(s1)
    assert [form[0] for form in forms] == ["set-logic", "declare-const", "assert", "check-sat"]
    assert forms[2][1][-1] == ("<", 0, "n")


def test_the_corpus_queries_read_back_as_their_forms(monkeypatch):
    # `builtin` reads a query's forms and `builtin-subprocess` its text:
    # both read the same query, for every formula the six systems send.
    import coreach.prover
    import coreach.rewriting
    from coreach import cli

    sent, real = [], smt.check_sat

    def recording(sig, f, cfg):
        sent.append((sig, f))
        return real(sig, f, cfg)

    for module in (smt, coreach.prover, coreach.rewriting):
        monkeypatch.setattr(module, "check_sat", recording)
    with redirect_stdout(io.StringIO()):
        for path in sorted(Path("systems").glob("*.lrw")):
            assert cli.main(["prove", str(path), "--solver", "builtin"]) == 0
    assert len(sent) == 197
    for sig, f in sent:
        assert parse_all(encode(sig, f)) == query(sig, f)


_INTS = [Var(name, INT) for name in ("n", "k#10", "1x", "-5")]
_BOOLS = [Var(name, BOOL) for name in ("b", "p#3")]


def _formulas():
    """Formulas over Int and Bool variables whose names need bars, with
    negative literals and nested binders."""
    leaf = st.one_of(st.sampled_from(_INTS), st.integers(-12, 12).map(Lit))
    terms = st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "div", "mod"]), sub, sub).map(lambda t: App(t[0], t[1:], INT)),
            sub.map(lambda a: App("-", (a,), INT)),
        ),
        max_leaves=4,
    )
    atoms = st.one_of(
        st.tuples(st.sampled_from(["<", "<=", ">", ">="]), terms, terms).map(lambda t: Atom(App(t[0], t[1:], BOOL))),
        st.tuples(terms, terms).map(lambda t: Eq(*t)),
        st.sampled_from(_BOOLS + [Lit(True), Lit(False)]).map(Atom),
        st.sampled_from([TRUE, FALSE]),
    )
    bound = st.lists(st.sampled_from(_INTS + _BOOLS), min_size=1, max_size=2, unique=True).map(tuple)
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Not),
            st.lists(sub, max_size=3).map(lambda ps: And(tuple(ps))),
            st.lists(sub, max_size=3).map(lambda ps: Or(tuple(ps))),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            st.tuples(sub, sub).map(lambda t: Iff(*t)),
            st.tuples(bound, sub).map(lambda t: Exists(*t)),
            st.tuples(bound, sub).map(lambda t: Forall(*t)),
        ),
        max_leaves=6,
    )


@given(_formulas())
def test_a_query_reads_back_from_its_text(f):
    assert parse_all(encode(Signature(), f)) == query(Signature(), f)


def test_the_in_process_solver_reads_no_text(monkeypatch, capsys):
    # `builtin` hands the solver the query's forms: no SMT-LIB text is read.
    from coreach import cli

    assert cli.main(["prove", "systems/sum.lrw", "--solver", "builtin"]) == 0
    expected = capsys.readouterr()

    def no_text(_text):
        raise AssertionError("SMT-LIB text tokenized")

    monkeypatch.setattr(sexpr, "tokenize", no_text)
    assert cli.main(["prove", "systems/sum.lrw", "--solver", "builtin"]) == 0
    assert capsys.readouterr() == expected


def test_encode_rejects_constructor_residue(comp_sig):
    mk = comp_sig.make_app
    with pytest.raises(NonBuiltinResidue):
        encode(comp_sig, Eq(mk("comp", ()), mk("comp", ())))
    with pytest.raises(NonBuiltinResidue):
        encode(comp_sig, Eq(Var("x", comp_sig.sorts["Cfg"]), Var("y", comp_sig.sorts["Cfg"])))


def test_check_sat_witness(comp_sig, solver_cfg):
    res = check_sat(comp_sig, exists_double(comp_sig.make_app), solver_cfg)
    assert res.verdict == Verdict.SAT


def test_check_sat_prime_is_unsat(comp_sig, solver_cfg):
    f = conj([psi(comp_sig.make_app), Eq(n, Lit(5))])
    assert check_sat(comp_sig, f, solver_cfg).verdict == Verdict.UNSAT


def test_check_sat_composite_is_sat(comp_sig, solver_cfg):
    f = conj([psi(comp_sig.make_app), Eq(n, Lit(6))])
    assert check_sat(comp_sig, f, solver_cfg).verdict == Verdict.SAT


def test_check_valid_trivialities(comp_sig, solver_cfg):
    # a formula is valid when its negation is unsat
    assert check_sat(comp_sig, Not(TRUE), solver_cfg).verdict == Verdict.UNSAT
    mk = comp_sig.make_app
    assert check_sat(comp_sig, Not(Atom(mk(">", (n, Lit(0))))), solver_cfg).verdict == Verdict.SAT


def test_check_valid_guard_complementarity(comp_sig, solver_cfg):
    # guards of the two loop rules split every instance of psi
    mk = comp_sig.make_app
    body = conj([Atom(mk(">", (k, Lit(1)))), Eq(n, mk("*", (Lit(2), k)))])
    b = Exists((k,), body)
    p = psi(mk)
    from coreach.formulas import Implies, Or

    f = Implies(p, Or((conj([p, b]), conj([p, Not(b)]))))
    assert check_sat(comp_sig, Not(f), solver_cfg).verdict == Verdict.UNSAT


def test_builtin_subprocess_path(comp_sig):
    # One process answers every query of a session; each query is sent after
    # a (reset), so the declarations of one do not reach the next.
    cfg = SolverConfig(command=("builtin-subprocess",), timeout_ms=20_000)
    try:
        assert check_sat(comp_sig, conj([psi(comp_sig.make_app), Eq(n, Lit(5))]), cfg).verdict == Verdict.UNSAT
        proc = cfg.session.proc
        assert check_sat(comp_sig, conj([psi(comp_sig.make_app), Eq(n, Lit(6))]), cfg).verdict == Verdict.SAT
        assert check_sat(comp_sig, exists_double(comp_sig.make_app), cfg).verdict == Verdict.SAT
        assert cfg.session.proc is proc and proc.poll() is None
    finally:
        cfg.session.close()
    assert proc.poll() is not None


def test_solver_unavailable(comp_sig):
    cfg = SolverConfig(command=("/nonexistent/solver-binary",), timeout_ms=1000)
    with pytest.raises(SolverUnavailable):
        check_sat(comp_sig, Eq(n, Lit(5)), cfg)


def test_constant_queries_skip_the_solver(comp_sig, monkeypatch):
    # true and false are answered without encoding or running a solver, also
    # when a proof's recorded side conditions are re-verified.
    import coreach.smt as smt
    from coreach.formulas import ConstrainedTerm
    from coreach.prover import ProofNode, SideCondition, reverify
    from coreach.rewriting import ReachabilityFormula

    def no_solver(*_args):
        raise AssertionError("solver run for a constant query")

    monkeypatch.setattr(smt, "encode", no_solver)
    monkeypatch.setattr(smt, "_run_solver", no_solver)
    cfg = SolverConfig(command=("/nonexistent/solver-binary",), timeout_ms=1000)
    assert check_sat(comp_sig, TRUE, cfg).verdict == Verdict.SAT
    assert check_sat(comp_sig, FALSE, cfg).verdict == Verdict.UNSAT
    done = ConstrainedTerm(comp_sig.make_app("comp", ()), TRUE)
    conditions = (SideCondition("lhs-unsat", FALSE, Verdict.UNSAT), SideCondition("inclusion-sat", TRUE, Verdict.SAT))
    assert reverify(comp_sig, ProofNode("axiom", ReachabilityFormula(done, done), conditions), cfg) == []


def test_unencodable_query_is_unknown_without_a_solver(comp_sig, monkeypatch):
    # A quantifier over a non-builtin sort cannot be written in SMT-LIB; the
    # query answers unknown before any solver runs.
    import coreach.smt as smt

    def no_solver(*_args):
        raise AssertionError("solver run for an unencodable query")

    monkeypatch.setattr(smt, "_run_solver", no_solver)
    mk = comp_sig.make_app
    c = Var("c", comp_sig.least_sort(mk("comp", ())))
    f = Exists((c,), Not(Eq(c, mk("init", (n,)))))
    cfg = SolverConfig(command=("/nonexistent/solver-binary",), timeout_ms=1000)
    assert check_sat(comp_sig, f, cfg).verdict == Verdict.UNKNOWN


def test_malformed_solver_output(comp_sig, tmp_path):
    fake = tmp_path / "fake-solver"
    fake.write_text("#!/bin/sh\necho gibberish\n")
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    cfg = SolverConfig(command=(str(fake),), timeout_ms=2000)
    with pytest.raises(MalformedSolverOutput):
        check_sat(comp_sig, Eq(n, Lit(5)), cfg)


def test_timeout_degrades_to_unknown(comp_sig, tmp_path):
    fake = tmp_path / "slow-solver"
    fake.write_text("#!/bin/sh\nsleep 30\n")
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    cfg = SolverConfig(command=(str(fake),), timeout_ms=200)
    res = check_sat(comp_sig, Eq(n, Lit(5)), cfg)
    assert res.verdict == Verdict.UNKNOWN


def test_resolve_solver_precedence(monkeypatch):
    monkeypatch.delenv("RMT_SOLVER", raising=False)
    cfg = resolve_solver("builtin")
    assert cfg.command == ("builtin",)
    monkeypatch.setenv("RMT_SOLVER", "builtin-subprocess")
    assert resolve_solver(None).command == ("builtin-subprocess",)
    monkeypatch.setenv("RMT_SOLVER", "z3 -smt2")
    assert resolve_solver(None).command == ("z3", "-smt2", "-in")


@pytest.mark.parametrize("blank", ["", "   "])
def test_a_blank_solver_spec_counts_as_unset(monkeypatch, blank):
    monkeypatch.delenv("RMT_SOLVER", raising=False)
    unset = resolve_solver(None).command
    monkeypatch.setenv("RMT_SOLVER", blank)
    assert resolve_solver(None).command == unset
    assert resolve_solver(blank).command == unset
    monkeypatch.setenv("RMT_SOLVER", "builtin-subprocess")
    assert resolve_solver(blank).command == ("builtin-subprocess",)


@pytest.mark.parametrize("command", [(), ("",)])
def test_an_empty_solver_command_is_an_input_error(command):
    with pytest.raises(InvalidOption, match="empty solver command"):
        SolverConfig(command=command)


# -- the run's solver session --------------------------------------------------------


def _counting_solver(tmp_path, first: str, later: str):
    """A one-query solver that answers `first` to its first query and
    `later` to every other, and the file counting its queries."""
    calls = tmp_path / "calls"
    fake = tmp_path / "counting-solver"
    fake.write_text(
        "#!/bin/sh\ncat > /dev/null\n"
        f'echo x >> "{calls}"\n'
        f'if [ "$(wc -l < "{calls}")" -eq 1 ]; then echo {first}; else echo {later}; fi\n'
    )
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    return SolverConfig(command=(str(fake),), timeout_ms=5000), lambda: len(calls.read_text().splitlines())


def test_a_session_sends_a_decided_script_once_and_reverify_sends_it_again(comp_sig, tmp_path):
    from coreach.formulas import ConstrainedTerm
    from coreach.prover import ProofNode, SideCondition, reverify
    from coreach.rewriting import ReachabilityFormula

    cfg, calls = _counting_solver(tmp_path, "sat", "unsat")
    f = Eq(n, Lit(5))
    assert check_sat(comp_sig, f, cfg).verdict == Verdict.SAT
    assert check_sat(comp_sig, f, cfg).verdict == Verdict.SAT
    assert calls() == 1
    done = ConstrainedTerm(comp_sig.make_app("comp", ()), TRUE)
    node = ProofNode("subs", ReachabilityFormula(done, done), (SideCondition("inclusion-sat", f, Verdict.SAT),))
    assert reverify(comp_sig, node, cfg) == ["subs/inclusion-sat: recorded sat, got unsat"]
    assert calls() == 2
    assert check_sat(comp_sig, f, cfg).verdict == Verdict.SAT  # reverify left the run's memo alone
    assert calls() == 2


def test_a_session_sends_an_unknown_script_again(comp_sig, tmp_path):
    cfg, calls = _counting_solver(tmp_path, "unknown", "sat")
    f = Eq(n, Lit(5))
    assert check_sat(comp_sig, f, cfg).verdict == Verdict.UNKNOWN
    assert check_sat(comp_sig, f, cfg).verdict == Verdict.SAT
    assert check_sat(comp_sig, f, cfg).verdict == Verdict.SAT
    assert calls() == 2


def _streaming_solver(tmp_path, monkeypatch, body: str) -> SolverConfig:
    """A builtin-subprocess config whose process runs `body` instead of the
    bundled solver."""
    fake = tmp_path / "streaming-solver.py"
    fake.write_text("import sys\n" + body)
    monkeypatch.setattr(smt, "_builtin_argv", lambda _timeout_s: [sys.executable, str(fake)])
    return SolverConfig(command=("builtin-subprocess",), timeout_ms=100)


def test_a_process_that_exits_answers_unknown_and_is_replaced(comp_sig, monkeypatch, tmp_path):
    body = 'for line in sys.stdin:\n    if "(check-sat)" in line:\n        print("sat", flush=True)\n        break\n'
    cfg = _streaming_solver(tmp_path, monkeypatch, body)
    try:
        assert check_sat(comp_sig, Eq(n, Lit(1)), cfg).verdict == Verdict.SAT
        first = cfg.session.proc
        assert check_sat(comp_sig, Eq(n, Lit(2)), cfg).verdict == Verdict.UNKNOWN
        assert first.poll() is not None
        assert check_sat(comp_sig, Eq(n, Lit(3)), cfg).verdict == Verdict.SAT
        assert cfg.session.proc is not first
    finally:
        cfg.session.close()


def test_a_silent_process_answers_unknown_and_is_killed(comp_sig, monkeypatch, tmp_path):
    cfg = _streaming_solver(tmp_path, monkeypatch, "for line in sys.stdin:\n    pass\n")
    try:
        assert check_sat(comp_sig, Eq(n, Lit(1)), cfg).verdict == Verdict.UNKNOWN
        assert cfg.session.proc.poll() is not None
    finally:
        cfg.session.close()


def test_a_process_that_answers_an_error_is_stopped(comp_sig, monkeypatch, tmp_path):
    body = 'for line in sys.stdin:\n    if "(check-sat)" in line:\n        print("(error \\"no\\")", flush=True)\n'
    cfg = _streaming_solver(tmp_path, monkeypatch, body)
    try:
        with pytest.raises(MalformedSolverOutput):
            check_sat(comp_sig, Eq(n, Lit(1)), cfg)
        assert cfg.session.proc.poll() is not None
    finally:
        cfg.session.close()


def test_bruteforce_sat_never_contradicted_by_solver(comp_sig, solver_cfg):
    # One-sided coherence: an in-range witness found by enumeration forbids
    # an unsat verdict from the solver.
    from itertools import product

    from coreach.oracle import Domain, eval_formula

    mk = comp_sig.make_app
    i = Var("i", INT)
    dom = Domain(3)
    pool = [
        conj([Atom(mk("<", (Lit(0), n))), Atom(mk("<", (n, Lit(3))))]),
        Eq(mk("*", (n, n)), Lit(4)),
        conj([Eq(mk("mod", (n, Lit(2))), Lit(0)), Atom(mk("<", (i, n)))]),
        Exists((k,), Eq(n, mk("+", (k, k)))),
    ]
    for f in pool:
        vs = sorted({v for v in (n, i) if v in __import__("coreach.formulas", fromlist=["free_vars"]).free_vars(f)}, key=lambda v: v.name)
        witness = any(
            eval_formula(comp_sig, f, dict(zip(vs, combo)), dom)
            for combo in product(dom.ints(), repeat=len(vs))
        )
        if witness:
            assert check_sat(comp_sig, f, solver_cfg).verdict != Verdict.UNSAT

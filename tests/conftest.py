import pytest
from hypothesis import settings

from coreach.formulas import Atom, ConstrainedTerm, Eq, Exists, Not, TRUE, conj
from coreach.rewriting import Lctrs, ReachabilityFormula, RewriteRule
from coreach.signature import Signature
from coreach.smt import SolverConfig
from coreach.terms import INT, Lit, Var

SYSTEMS = "systems"

# The property tests draw the same examples on every run, so one tier-1 run
# runs the same lines as the next.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture()
def solver_cfg():
    """A fresh solver session per test: verdicts remembered in one test do
    not answer another's queries."""
    return SolverConfig(command=("builtin",), timeout_ms=20_000)


@pytest.fixture()
def comp_sig():
    """The trial-division signature: Cfg with init, loop, comp."""
    sig = Signature()
    cfg = sig.add_sort("Cfg")
    sig.add_operation("init", [INT], cfg)
    sig.add_operation("loop", [INT, INT], cfg)
    sig.add_operation("comp", [], cfg)
    for name in "nikus":
        sig.add_variable(name, INT)
    return sig


@pytest.fixture()
def comp_system(comp_sig):
    mk = comp_sig.make_app
    n, i, k = Var("n", INT), Var("i", INT), Var("k", INT)
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("init", (n,)), mk("loop", (n, Lit(2))), TRUE))
    system.add_rule(
        RewriteRule(mk("loop", (mk("*", (i, k)), i)), mk("comp", ()), Atom(mk("<", (Lit(1), k))))
    )
    system.add_rule(
        RewriteRule(
            mk("loop", (n, i)),
            mk("loop", (n, mk("+", (i, Lit(1))))),
            Not(Exists((k,), conj([Atom(mk("<", (Lit(1), k))), Eq(n, mk("*", (i, k)))]))),
        )
    )
    return system


def divisor_constraint(sig, low, n):
    """exists u. low <= u < n and u divides n (with `low` a term or literal)."""
    u = Var("u", INT)
    lo = Lit(low) if isinstance(low, int) else low
    return Exists(
        (u,),
        conj(
            [
                Atom(sig.make_app("<=", (lo, u))),
                Atom(sig.make_app("<", (u, Var("n", INT)))),
                Eq(sig.make_app("mod", (Var("n", INT), u)), Lit(0)),
            ]
        ),
    )


@pytest.fixture()
def comp_goals(comp_sig):
    """The target goal plus the loop circularity, as reachability formulas."""
    mk = comp_sig.make_app
    n, i, u = Var("n", INT), Var("i", INT), Var("u", INT)
    psi1 = Exists(
        (u,),
        conj(
            [
                Atom(mk("<", (Lit(1), u))),
                Atom(mk("<", (u, n))),
                Eq(mk("mod", (n, u)), Lit(0)),
            ]
        ),
    )
    psi_i = conj([Atom(mk("<=", (Lit(2), i))), divisor_constraint(comp_sig, i, n)])
    comp_true = ConstrainedTerm(mk("comp", ()), TRUE)
    g1 = ReachabilityFormula(ConstrainedTerm(mk("init", (n,)), psi1), comp_true)
    g2 = ReachabilityFormula(ConstrainedTerm(mk("loop", (n, i)), psi_i), comp_true)
    return [g1, g2]

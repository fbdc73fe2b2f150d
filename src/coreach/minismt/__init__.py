"""A small SMT-LIB 2 solver for quantified integer/boolean constraints.

Decides the fragment this package emits: model search certifies sat,
a refutation engine (linear arithmetic over monomials, div/mod axioms,
quantifier instantiation, bounded case splits) certifies unsat, and
everything else is unknown.  Runs standalone as `python -m coreach.minismt`.
"""

__all__ = ["run_script"]


def __getattr__(name: str):
    # The solver module loads on first use: the frontend imports `arith` for
    # the Int operators at start-up and should not pay for the solver.
    if name in __all__:
        from . import solver

        value = globals()[name] = getattr(solver, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

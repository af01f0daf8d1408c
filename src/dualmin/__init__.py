"""Duality-based automata minimisation.

Concrete realisations of reversal/minimisation through dual adjunctions:
Brzozowski double reversal for Moore automata, weighted automata over the
rationals and the integers with exact linear algebra, alternating automata via
their reversed powerset DFA, and bisimulation quotients of deterministic
Kripke models through trace-definable subsets.

Importing the package loads none of its modules: each name below is looked
up in its module when it is first read (PEP 562), so a program pays only for
the constructions it uses.  The package's own modules read a name of another
module's construction the same way, as `dualmin.<name>`, so `_EXPORTS` is the
one place that says where a lazily loaded name lives.
"""

_EXPORTS = {
    "alternating": ("AlternatingAutomaton", "BoolFun", "afa_accepts", "compile_formula",
                    "minimal_dfa_for_afa", "reverse_dfa"),
    "automata": ("MooreAutomaton", "Nfa", "Partition", "bounded_words", "determinise",
                 "equiv_exact", "iso_check", "partition_refinement_minimise", "reach", "reverse",
                 "run", "walk", "words_up_to"),
    "brzozowski": ("brzozowski_minimise", "dual_automaton"),
    "dkm": ("Dkm", "TraceFormula", "bisimulation_oracle", "boolean_atoms",
            "definable_closure", "eval_trace", "minimise_dkm", "quotient_dkm"),
    "errors": ("DimensionError", "FormatError", "NonCongruenceError", "SemiringError",
               "StateGuardError"),
    "io": ("emit", "parse"),
    "linalg": ("FieldBasis", "IntegerBasis", "det_int", "hnf", "is_hnf_shape"),
    "selftest": ("run_selftest",),
    "semiring": ("BOOL", "INT", "RATIONAL", "SEMIRINGS", "TROPICAL", "TROPICAL_INF",
                 "Matrix", "Semiring", "mat_mul", "mat_vec", "semiring_by_name", "vec_mat"),
    "weighted": ("RestrictedWA", "WeightedAutomaton", "bool_wa_to_nfa", "dual_wa",
                 "equiv_wa", "eval_series", "hankel_rank_oracle", "minimise_wa",
                 "reach_restrict"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: a name is read from its module each time, so whatever
    # that module holds now (a wrapper, say) is what the caller gets
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module: it takes the interpreter's
    # own import path, which -X importtime reports, so a lazily loaded module
    # shows in a call's import profile
    return getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)


def __dir__():
    return sorted({*globals(), *__all__})

"""Duality-based automata minimisation.

Concrete realisations of reversal/minimisation through dual adjunctions:
Brzozowski double reversal for Moore automata, weighted automata over the
rationals and the integers with exact linear algebra, alternating automata via
their reversed powerset DFA, and bisimulation quotients of deterministic
Kripke models through trace-definable subsets.
"""

from .alternating import (AlternatingAutomaton, BoolFun, afa_accepts, all_subsets,
                          compile_formula, minimal_dfa_for_afa, reachable_reverse_dfa,
                          reverse_dfa)
from .automata import (MooreAutomaton, Nfa, Partition, determinise, equiv_exact,
                       iso_check, nfa_step, partition_refinement_minimise, reach,
                       reverse, run, words_up_to)
from .brzozowski import brzozowski_minimise, dual_automaton, dual_state_sets
from .dkm import (Dkm, TraceFormula, bisimulation_oracle, boolean_atoms,
                  definable_closure, eval_trace, minimise_dkm, quotient_dkm)
from .errors import (DimensionError, FormatError, NonCongruenceError, SemiringError,
                     StateGuardError)
from .io import emit, parse
from .linalg import (FieldBasis, IntegerBasis, basis_insert, coordinates, det_int,
                     hnf, is_hnf_shape, rank)
from .semiring import (BOOL, INT, RATIONAL, SEMIRINGS, TROPICAL, TROPICAL_INF,
                       LawReport, Matrix, Semiring, check_semiring_laws, mat_mul,
                       mat_vec, semiring_by_name, vec_mat)
from .weighted import (RestrictedWA, WeightedAutomaton, bool_wa_to_nfa, dual_wa,
                       eval_series, hankel_rank_oracle, minimise_wa, nfa_to_bool_wa,
                       reach_restrict)

__version__ = "0.1.0"

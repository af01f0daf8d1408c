"""The package's public names: `import dualmin` loads them on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualmin

# every name the package exports
EXPORTED = {
    "AlternatingAutomaton", "BoolFun", "afa_accepts", "compile_formula",
    "minimal_dfa_for_afa", "reverse_dfa",
    "MooreAutomaton", "Nfa", "Partition", "determinise", "equiv_exact", "iso_check",
    "partition_refinement_minimise", "reach", "reverse", "run", "words_up_to",
    "brzozowski_minimise", "dual_automaton", "dual_state_sets",
    "Dkm", "TraceFormula", "bisimulation_oracle", "boolean_atoms", "definable_closure",
    "eval_trace", "minimise_dkm", "quotient_dkm",
    "DimensionError", "FormatError", "NonCongruenceError", "SemiringError", "StateGuardError",
    "emit", "parse",
    "FieldBasis", "IntegerBasis", "det_int", "hnf", "is_hnf_shape",
    "BOOL", "INT", "RATIONAL", "SEMIRINGS", "TROPICAL", "TROPICAL_INF",
    "Matrix", "Semiring", "mat_mul", "mat_vec", "semiring_by_name", "vec_mat",
    "RestrictedWA", "WeightedAutomaton", "bool_wa_to_nfa", "dual_wa", "equiv_wa",
    "eval_series", "hankel_rank_oracle", "minimise_wa", "reach_restrict",
}


def test_all_lists_exactly_the_exported_names():
    assert len(dualmin.__all__) == len(EXPORTED)
    assert set(dualmin.__all__) == EXPORTED


def test_every_name_resolves_to_its_module_object():
    for name in dualmin.__all__:
        value = getattr(dualmin, name)
        module = sys.modules[f"dualmin.{dualmin._MODULE_OF[name]}"]
        assert value is getattr(module, name), name


def test_star_import_and_dir():
    namespace = {}
    exec("from dualmin import *", namespace)
    assert EXPORTED <= set(namespace)
    assert EXPORTED <= set(dir(dualmin))
    assert "__version__" in dir(dualmin)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dualmin.no_such_name
    assert not hasattr(dualmin, "_private")


def test_importing_the_package_loads_none_of_its_modules():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dualmin; print(sorted(m for m in sys.modules if m.startswith('dualmin.')))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

"""The package's public names: `import dualmin` loads them on first use."""

import ast
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
    "MooreAutomaton", "Nfa", "Partition", "determinise", "equiv_exact",
    "partition_refinement_minimise", "reach", "reverse", "run", "words_up_to",
    "bounded_words", "walk",
    "brzozowski_minimise", "dual_automaton",
    "Dkm", "TraceFormula", "bisimulation_oracle", "boolean_atoms", "definable_closure",
    "eval_trace", "minimise_dkm", "quotient_dkm",
    "DimensionError", "FormatError", "NonCongruenceError", "SemiringError", "StateGuardError",
    "emit", "parse",
    "FieldBasis", "IntegerBasis", "hnf",
    "run_selftest",
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


# one empty traced round of bench/tracing.py after importing the modules named
# on the command line; prints each dualmin attribute still holding a wrapper
TRACED_ROUND = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
import tracing
with tracing.Tracer().installed():
    pass
print(sorted(f"{name}.{key}" for name, module in list(sys.modules.items())
             if name.startswith("dualmin") for key, value in vars(module).items()
             if hasattr(value, "__wrapped__")))
"""


@pytest.mark.parametrize("preloaded", [["dualmin.cli", "dualmin.brzozowski", "dualmin.weighted"],
                                       ["dualmin.cli"]])
def test_no_module_keeps_a_wrapper_after_a_traced_round(preloaded):
    """A module first imported during a traced round binds no wrapped name:
    it reads other modules' constructions as `dualmin.<name>` when called."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ROUND, str(root / "bench"), *preloaded],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dualmin").glob("*.py"))


def _calls_an_importer(node) -> bool:
    """node is a call of import_module or __import__, by name or as an attribute."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else ""
    return name in ("import_module", "__import__")


def test_no_module_imports_inside_a_function():
    """A module reads another module's construction as `dualmin.<name>`, so
    only the package's name table says where a lazily loaded name lives: no
    import statement sits in a function, and no module but __init__.py calls
    import_module or __import__."""
    found = {f"{path.name}:{node.lineno}" for path in SOURCES
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    found |= {f"{path.name}:{node.lineno}" for path in SOURCES if path.name != "__init__.py"
              for node in ast.walk(ast.parse(path.read_text())) if _calls_an_importer(node)}
    assert not found, sorted(found)
    init = ast.parse((SOURCES[0].parent / "__init__.py").read_text())
    assert any(map(_calls_an_importer, ast.walk(init))), "the name table no longer loads modules"


def test_every_dualmin_attribute_read_in_the_package_is_exported():
    read = {(path.name, node.attr) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "dualmin"}
    assert read, "no module reads a name through the package"
    unexported = sorted(pair for pair in read if pair[1] not in dualmin.__all__)
    assert not unexported, unexported


def test_no_module_reads_the_environment():
    """Every setting is a flag or an argument: the state bound, for one, is
    `--max-states` alone."""
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = {f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in reads
             or isinstance(node, ast.Name) and node.id in reads
             or isinstance(node, ast.ImportFrom)
             and any(alias.name in reads for alias in node.names)}
    assert not found, sorted(found)

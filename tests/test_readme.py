"""The README's Python examples run, and give the values its text states."""

import ast
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)


def run_blocks() -> dict:
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    return namespace


def stated(expression: str):
    """The value the State names paragraph gives for `expression`."""
    text = " ".join(README.split())  # the paragraph's line breaks fall anywhere
    match = re.search(re.escape(f"`{expression}` is") + r" (?:named )?`(\(.*?\)|None)`", text)
    assert match, expression
    return ast.literal_eval(match.group(1))


def test_the_readme_has_its_two_examples():
    assert len(BLOCKS) == 2


def test_the_dfa_example():
    ns = run_blocks()
    assert ns["dual"].n == 3 and ns["mini"].n == 2
    assert ns["dual"].state_names == stated("dual.state_names") == ("y+z", "x+y+z", "empty")
    assert ns["mini"].state_names is stated("mini.state_names") is None
    nested = ns["dual_automaton"](ns["dual"]).state_names
    assert nested == stated("dual_automaton(dual)") == ("x+y+z", "y+z,x+y+z")


def test_the_weighted_example():
    ns = run_blocks()
    assert ns["minimise_wa"](ns["w"]).dimension == 1
    assert ns["hankel_rank_oracle"](ns["w"], 2) == 1
    # the values the block's comments give
    lines = BLOCKS[1].splitlines()
    assert any(line.startswith("minimise_wa(w).dimension") and "# 1:" in line for line in lines)
    assert any(line.startswith("hankel_rank_oracle(w, 2)") and "# 1:" in line for line in lines)

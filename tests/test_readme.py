"""The README's library quick start runs and gives the values its comments state."""

import ast
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_values() -> dict[str, object]:
    """Run the python block under "## Library quick start"; map the source
    of each bare expression statement to its value."""
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace: dict = {}
    values = {}
    for statement in ast.parse(code).body:
        if isinstance(statement, ast.Expr):
            expression = compile(ast.Expression(statement.value), str(README), "eval")
            values[ast.get_source_segment(code, statement)] = eval(expression, namespace)
        else:
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
    return values


def test_readme_quick_start_matches_its_comments():
    values = _quick_start_values()
    assert values["coincidence_probability(state, 0.0)"] == 1.0
    assert values["chsh(state)"] == pytest.approx(1.41421356, rel=0.0, abs=1e-8)
    assert values["fringe_visibility_45(state)"] < 1e-12
    assert values["classify(state).label"] == "AS-only"
    assert values["curve.visibility"] == pytest.approx(1.0, rel=0.0, abs=1e-9)

import ast
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def imports_harness(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return "chordbench.harness" in names


def is_main_guard(node):
    return (isinstance(node, ast.If) and not node.orelse
            and ast.unparse(node.test) in ("__name__ == '__main__'",
                                           "'__main__' == __name__"))


def is_constant(node):
    """Whether ``node`` is a docstring or binds a name to a literal."""
    if not isinstance(node, (ast.Expr, ast.Assign, ast.AnnAssign)):
        return False
    try:
        ast.literal_eval(node.value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demos_that_run_experiments_work_under_a_main_guard(path):
    # A spawned fold worker imports the script that started it, so work at
    # the top level of such a script would run again in every worker.
    tree = ast.parse(path.read_text())
    if not imports_harness(tree):
        return
    loose = [ast.unparse(node).splitlines()[0] for node in tree.body
             if not (isinstance(node, (ast.Import, ast.ImportFrom,
                                       ast.FunctionDef, ast.ClassDef))
                     or is_constant(node) or is_main_guard(node))]
    assert loose == []
    assert sum(map(is_main_guard, tree.body)) == 1

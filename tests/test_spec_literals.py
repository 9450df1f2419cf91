"""The inequality constants, the paper's flip rates and the results column
names are written once.

The quantum values 83/3 and 4/3 and the chi4 ray set live in `CHI4` and
`KSModel.chi13` of `model.py`, the flip rates 0.010 and 0.021 in
`simulate.NoiseModel`; every other module reads them from there. The names
of the results columns (`chi13_raw`, `sigma4`, ...) and their `results.txt`
headings live in `cli._COLUMNS`; no other string in `cli.py` names one. This
scans the code (not docstrings or comments) of the package for copies.
"""

import ast
from pathlib import Path

import qutrit_ks

PACKAGE = Path(qutrit_ks.__file__).parent
SPEC_NODES = {"model.py": {"CHI4", "chi13"}, "simulate.py": {"NoiseModel"},
              "cli.py": {"_COLUMNS"}}
COLUMN_NAMES = ("chi13", "chi4", "sigma13", "sigma4", "sig13", "sig4")


def _is_number(node, value):
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == value)


def _copied_constant(node) -> str | None:
    if _is_number(node, 83):
        return "83"
    for rate in ("0.010", "0.021"):
        if _is_number(node, float(rate)):
            return rate
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and _is_number(node.left, 4) and _is_number(node.right, 3)):
        return "4 / 3"
    if (isinstance(node, (ast.Tuple, ast.List, ast.Set))
            and len(node.elts) == 4
            and all(_is_number(e, v) for e, v in zip(node.elts, (10, 11, 12, 13)))):
        return "(10, 11, 12, 13)"
    return None


def _docstrings(tree) -> set[int]:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}


def _copied_name(node, docstrings) -> str | None:
    """A string constant of the code, not a docstring, that names a column."""
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings and any(n in node.value for n in COLUMN_NAMES)):
        return repr(node.value)
    return None


def _spec_spans(tree, names) -> list[tuple[int, int]]:
    spans = []
    for node in ast.walk(tree):
        named = (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names) \
            or (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in names for t in node.targets))
        if named:
            spans.append((node.lineno, node.end_lineno))
    return spans


def find_copies(package: Path) -> list[str]:
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        spans = _spec_spans(tree, SPEC_NODES.get(path.name, ()))
        docstrings = _docstrings(tree) if path.name == "cli.py" else None
        hits = sorted((node.lineno, what) for node in ast.walk(tree)
                      if (what := _copied_constant(node) or (
                          docstrings is not None and _copied_name(node, docstrings))))
        found += [f"{path.name}:{line}: {what}" for line, what in hits
                  if not any(a <= line <= b for a, b in spans)]
    return found


def test_spec_constants_are_not_copied():
    assert find_copies(PACKAGE) == []


def test_spec_holds_the_constants():
    for name, constants in (("model.py", {"83", "(10, 11, 12, 13)"}),
                            ("simulate.py", {"0.010", "0.021"}), ("cli.py", set())):
        tree = ast.parse((PACKAGE / name).read_text())
        found = {_copied_constant(n) for n in ast.walk(tree)} - {None}
        assert found == constants
        assert len(_spec_spans(tree, SPEC_NODES[name])) == len(SPEC_NODES[name])


def test_scanner_flags_copies(tmp_path):
    (tmp_path / "model.py").write_text("CHI4 = (10, 11, 12, 13)\nNAME = 'chi13'\n")
    (tmp_path / "simulate.py").write_text(
        "class NoiseModel:\n    eps: float = 0.010\nEPS = 0.021\n")
    (tmp_path / "cli.py").write_text(
        "Q = 83.0 / 3.0\nR = 4 / 3\nS = 4.0 / 3.0\nfor i in (10, 11, 12, 13): pass\n"
        "E = (0.01, 0.021)\n"
        "def f(x):\n    \"\"\"chi4 in a docstring\"\"\"\n    return 'sigma13', f'{x} sig4'\n"
        "_COLUMNS = ('chi13', 'chi4_err')\n")
    assert find_copies(tmp_path) == ["cli.py:1: 83", "cli.py:2: 4 / 3",
                                     "cli.py:3: 4 / 3", "cli.py:4: (10, 11, 12, 13)",
                                     "cli.py:5: 0.010", "cli.py:5: 0.021",
                                     "cli.py:8: ' sig4'", "cli.py:8: 'sigma13'",
                                     "simulate.py:3: 0.021"]

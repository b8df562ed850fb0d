"""The library surface: the decided ``__all__``, the README's example, the
API rule and the modules that may read the packed layout.

The API rule (ROADMAP item 9): every public function, class, method and
property in ``src/cmccheck`` is read outside its own definition, in
``src/``, in ``bench/``, or in ``tests/test_acceptance.py`` and
``tests/oracles.py``.  A read is an attribute load of the name, or a
bare-name load in a file that binds the name by ``from ... import`` or by a
top-level ``def`` or ``class``; a local variable that shares the name is no
read.  A method or property counts only when it is read as an attribute.
The ``cmd_*`` handlers are exempt: the parser dispatches them by name.
"""

import ast
import re
from pathlib import Path

import cmccheck

ROOT = Path(__file__).resolve().parents[1]

SURFACE = [
    "CmcReport",
    "ContextMismatchError",
    "DivisionResult",
    "ExponentLimitError",
    "GenericCubicSpec",
    "ParseError",
    "Polynomial",
    "ReplayReport",
    "ReplayStep",
    "RingContext",
    "RingError",
    "SymMatrix",
    "UnknownVariableError",
    "check_cmc",
    "cmc_defect",
    "cube_root_cubic_form",
    "delta1",
    "divide",
    "generic_cubic",
    "grad_norm_sq",
    "gradient",
    "laplacian",
    "make_surface",
    "parse_polynomial",
    "partial",
    "quad_form_from_matrix",
    "quad_form_to_matrix",
    "refutation_sweep",
    "replay",
    "solve_hsq",
    "symbolic_defect",
    "to_text",
]


def test_all_is_the_decided_surface():
    assert cmccheck.__all__ == SURFACE
    missing = [name for name in SURFACE if not hasattr(cmccheck, name)]
    assert missing == []


READERS = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "bench").rglob("*.py")),
           ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "oracles.py"]


def _public_definitions(tree):
    """``(name, qualified name, node)`` for each public top-level function
    and class, and each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield item.name, f"{node.name}.{item.name}", item


def _bound_names(tree):
    """The names a module binds by ``from ... import`` or by a top-level
    ``def`` or ``class``: the only names whose bare loads count as reads."""
    bound = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound


def test_every_public_name_is_read_outside_its_definition():
    """The API rule of the module docstring, read by name: a read of a
    method is any attribute read of that name."""
    names, attrs = {}, {}
    for path in READERS:
        tree = ast.parse(path.read_text())
        bound = _bound_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in bound):
                names.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.setdefault(node.attr, []).append((path, node.lineno))
    unread = []
    for path in sorted((ROOT / "src" / "cmccheck").glob("*.py")):
        for name, qualified, node in _public_definitions(ast.parse(path.read_text())):
            reads = attrs.get(name, [])
            if "." not in qualified:
                reads = reads + names.get(name, [])
            outside = [(p, line) for p, line in reads
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside and not name.startswith("cmd_"):
                unread.append(qualified)
    assert unread == [], f"public but read nowhere outside their definitions: {unread}"


def test_readme_library_example_runs(capsys):
    readme = ROOT / "README.md"
    match = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme.read_text(),
                      re.M | re.S)
    assert match, "README.md has no Library code block"
    exec(compile(match.group(1), str(readme), "exec"), {})
    assert "gradsq-parts pass" in capsys.readouterr().out


# The packed layout of ``ring.py``: ``Polynomial``'s numerators and
# denominator, and ``RingContext``'s bit-field helpers.  Besides ring.py,
# only divide.py (division on packed ints) and parse.py (folding, summing
# and printing packed terms) read it; every other module goes through the
# Polynomial API, ``_split`` and ``_sum_of_products`` included.
LAYOUT = {
    "_terms", "_den", "_shifts", "_units", "_mask", "_degree_mask", "_borrow",
    "_lift", "_pack", "_unpack", "_field", "_check_packed", "_check_all_packed",
    "_from_ints", "_accumulate",
}
LAYOUT_MODULES = {"ring.py", "divide.py", "parse.py"}


def test_only_the_kernel_modules_read_the_packed_layout():
    package = Path(cmccheck.__file__).parent
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(package.glob("*.py")) if path.name not in LAYOUT_MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT
    ]
    assert reads == []

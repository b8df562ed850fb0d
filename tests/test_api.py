"""The library surface: the decided ``__all__``, the README's example and
the modules that may read the packed layout.

A name joins ``__all__`` only when the CLI, the replay, ``cmc`` or the
benchmark calls it, or an acceptance criterion reads it (ROADMAP item 9
states the rule).
"""

import ast
import re
from pathlib import Path

import cmccheck

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
    "divides",
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


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    match = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme.read_text(),
                      re.M | re.S)
    assert match, "README.md has no Library code block"
    exec(compile(match.group(1), str(readme), "exec"), {})
    assert "gradsq-parts pass" in capsys.readouterr().out


# The packed layout of ``ring.py``: ``Polynomial``'s numerators and
# denominator, and ``RingContext``'s bit-field helpers.  Besides ring.py,
# only divide.py (division on packed ints) and parse.py (folding and
# printing packed terms) read it; every other module goes through the
# Polynomial API, ``_split`` and ``_sum_of_products`` included.
LAYOUT = {
    "_terms", "_den", "_shifts", "_units", "_mask", "_degree_mask", "_borrow",
    "_lift", "_pack", "_unpack", "_field", "_check_packed", "_check_all_packed",
    "_sort_key", "_from_ints",
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

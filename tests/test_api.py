"""The library surface: the decided ``__all__`` and the README's example.

A name joins ``__all__`` only when the CLI, the replay, ``cmc`` or the
benchmark calls it (ROADMAP item 7 records the list and its reasons).
"""

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

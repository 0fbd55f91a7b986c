"""The package holds only code that the package itself runs.

A function that only the tests call belongs in the tests, as an oracle in
``tests/conftest.py``.  These tests walk the syntax trees of
``src/idealdensity/*.py`` and list every function and method whose name
no code in ``src/`` reads: imports do not count, and neither do reads
inside the function's own body.  Each such name must be in ``KEPT`` with
the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "idealdensity"

_GATE = "the acceptance tests import it"
_BENCH = "bench/ binds it"

#: Functions and methods that no package code calls, and why they stay.
KEPT = {
    "intersect": _GATE,
    "check_density_inequality": _GATE,
    "harmonic_ideal_sum": _GATE,
    "mertens_ratio": _GATE,
    "sieve_multiples_density": _GATE,
    "minimal_members": _BENCH,
    "gaussian_lattice_H": _BENCH,
    "partial_euler_product": _BENCH,
    "estimate_residue_constant":
        "documented in the README until L(1, chi_D) replaces it",
    "_Parser.error": "argparse calls it on a usage error",
}


def _unread_functions() -> set[str]:
    """Qualified names of the package's functions and methods, dunder
    methods left out, whose names nothing outside their own body reads."""
    defs, reads = [], []

    def visit(node, where, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
                if not isinstance(child, ast.ClassDef):
                    defs.append((where, inner))
                visit(child, where, inner)
                continue
            if isinstance(child, ast.Name):
                reads.append((child.id, where, scope))
            elif isinstance(child, ast.Attribute):
                reads.append((child.attr, where, scope))
            visit(child, where, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, ())
    return {".".join(qual) for where, qual in defs
            if not qual[-1].startswith("__")
            and not any(name == qual[-1] and not (
                w == where and scope[:len(qual)] == qual)
                for name, w, scope in reads)}


def test_every_function_is_run_by_the_package_or_kept_for_a_reason():
    assert sorted(_unread_functions() - KEPT.keys()) == []


def test_every_kept_name_is_still_unread():
    # A kept name that the package now calls, or that is gone, leaves KEPT.
    assert sorted(KEPT.keys() - _unread_functions()) == []

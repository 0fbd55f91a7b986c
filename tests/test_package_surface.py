"""The package holds only code that the package itself runs.

A function that only the tests call belongs in the tests, as an oracle in
``tests/conftest.py``.  These tests walk the syntax trees of
``src/idealdensity/*.py`` and list every function and method whose name
no code in ``src/`` reads: imports do not count, and neither do reads
inside the function's own body.  Each such name must be in ``KEPT`` with
the reason it stays.  The same holds for the annotated fields of the
package's classes: a field whose name no code in ``src/`` reads as an
attribute holds a fact that nothing uses, and must be in ``KEPT_FIELDS``
with the reason it stays.  Every error class of ``errors.py`` is either
a base of other error classes or named by some ``raise`` in ``src/``.
Every dataclass is frozen and takes each of its fields when built: a
record is built whole, and a constant of its class is not a field.  In
``cli.py`` only ``main`` writes files: a command returns its outputs.
Every name that a module-level import binds is read in its module,
unless the import's line carries ``noqa`` with the reason it stays.
Running sums have one writer each: ``cumsum`` is called only in
``ideals.marked_sums``, the walk of every carried sum, and in
``ideals.ideal_counts``, the integer prefix of chi_D; a ufunc's
``accumulate`` only in ``NormCounter.sums_at``, the counter's read.
Every function under a ``functools`` cache is in ``CACHES`` with the
traffic it serves, and a test drives that traffic and sees the cache
hit: a cache keeps memory alive, and one that serves no repeated read is
a builder.
"""

import ast
from pathlib import Path

import idealdensity as idd
from idealdensity.cli import main
from idealdensity.ideals import rational_harmonic_prefix

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
    "_Parser.error": "argparse calls it on a usage error",
}

#: The package's cached functions, and the repeated reads each serves.
CACHES = {
    "count_ideals": "a quadratic field's counter at one bound, read again "
                    "by every profile, zeta sum and harmonic sum there",
    "rational_harmonic_prefix": "Q's harmonic prefix on one sample grid, "
                                "read again by every Q profile on it",
    "class_number_imag_quadratic": "h(D), read again by every analytic "
                                   "residue of the field",
}

#: Class fields that no package code reads, as "Class.field", and why
#: they stay.
KEPT_FIELDS: dict[str, str] = {}


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


def _unread_fields() -> set[str]:
    """Qualified names Class.field of the annotated fields of the package's
    classes whose name no package code reads as an attribute."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                reads.add(node.attr)
    return {f"{cls}.{name}" for cls, name in fields if name not in reads}


def test_every_field_is_read_by_the_package_or_kept_for_a_reason():
    assert sorted(_unread_fields() - KEPT_FIELDS.keys()) == []


def test_every_kept_field_is_still_unread():
    # A kept field that the package now reads, or that is gone, leaves
    # KEPT_FIELDS.
    assert sorted(KEPT_FIELDS.keys() - _unread_fields()) == []


def _unraised_errors() -> set[str]:
    """Classes of ``errors.py`` that no class there derives from and that
    no ``raise`` statement in ``src/`` names."""
    classes = [node for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases
             if isinstance(base, ast.Name)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {n.id if isinstance(n, ast.Name) else n.attr
                           for n in ast.walk(node.exc)
                           if isinstance(n, (ast.Name, ast.Attribute))}
    return {node.name for node in classes} - bases - raised


def test_every_error_is_raised_or_a_base():
    assert sorted(_unraised_errors()) == []


def _dataclass_faults() -> list[str]:
    """"Class: fault" for each ``@dataclass`` of the package that is not
    ``frozen=True`` or that declares a field with ``init=False``."""
    faults = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for deco in cls.decorator_list:
                call = deco if isinstance(deco, ast.Call) else ast.Call(
                    func=deco, args=[], keywords=[])
                if ast.unparse(call.func) != "dataclass":
                    continue
                if "frozen=True" not in map(ast.unparse, call.keywords):
                    faults.append(f"{cls.name}: not frozen")
                if any(isinstance(n, ast.keyword)
                       and ast.unparse(n) == "init=False"
                       for n in ast.walk(cls)):
                    faults.append(f"{cls.name}: init=False field")
    return faults


def test_every_dataclass_is_frozen_and_built_whole():
    assert _dataclass_faults() == []


def _cli_writers() -> list[str]:
    """Names of the functions of ``cli.py`` whose bodies call
    ``write_csv`` or ``write_json``."""
    writers = []
    for fn in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1]
                in ("write_csv", "write_json") for n in ast.walk(fn)):
            writers.append(fn.name)
    return sorted(writers)


def test_main_alone_writes_the_command_outputs():
    assert _cli_writers() == ["main"]


def _unread_imports() -> list[str]:
    """"module: name" for each name bound by a module-level import of the
    package, ``__future__`` left out, that its module never reads and
    whose line carries no ``noqa``."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree, lines = ast.parse(text), text.splitlines()
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                    getattr(stmt, "module", None) == "__future__"):
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in reads and "noqa" not in lines[alias.lineno - 1]:
                    unread.append(f"{path.name}: {name}")
    return unread


def test_every_import_is_read_or_marked_noqa():
    assert _unread_imports() == []


def _callers(method: str) -> set[str]:
    """Qualified names "module.function" of the package's functions that
    call ``method``, bare or as an attribute (``np.cumsum``, ``a.cumsum``,
    ``np.add.accumulate``); ``itertools`` is left out."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call)
                  and ast.unparse(child.func).split(".")[-1] == method
                  and not ast.unparse(child.func).startswith("itertools")):
                found.add(".".join(scope))
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    return found


def test_running_sums_have_one_writer_each():
    assert _callers("cumsum") == {"ideals.marked_sums",
                                  "ideals.ideal_counts"}
    assert _callers("accumulate") == {"ideals.NormCounter.sums_at"}


def _cached_functions() -> set[str]:
    """Names of the package's functions decorated by ``lru_cache`` or
    ``cache``, called or bare, under any module prefix."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    ast.unparse(getattr(deco, "func", deco)).split(".")[-1]
                    in ("lru_cache", "cache") for deco in fn.decorator_list):
                found.add(fn.name)
    return found


def test_every_cache_is_listed_with_its_traffic():
    assert sorted(_cached_functions()) == sorted(CACHES)


def test_every_cache_serves_its_named_traffic(capsys):
    # Each entry of CACHES, cleared, then the traffic it names.
    def profiles(K):
        """Two profiles of the field K at one X, on one sample grid."""
        for l in (2, 4):
            idd.density_profile(idd.PrimePowerFamily(field=K, l=l), X=3000)

    traffic = {
        "count_ideals": (
            idd.count_ideals, lambda: profiles(idd.make_quadratic_field(-1))),
        "rational_harmonic_prefix": (
            rational_harmonic_prefix,
            lambda: profiles(idd.make_rational_field())),
        "class_number_imag_quadratic": (
            idd.class_number_imag_quadratic,
            lambda: main(["field-info", "--field", "Q(sqrt -5)"])),
    }
    assert sorted(traffic) == sorted(CACHES)
    for name, (cache, run) in traffic.items():
        cache.cache_clear()
        run()
        assert cache.cache_info().hits >= 1, name
    assert "class_number: 2" in capsys.readouterr().out

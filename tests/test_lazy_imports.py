"""The package loads each submodule on first use, and each command of the
command line loads only the modules it runs.

Every check runs in a fresh interpreter: by the time these tests run, the
test session has imported every module, so an in-process check could not
see an eager import come back, nor a command that fails to import what
it needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import idealdensity

SRC = str(Path(idealdensity.__file__).resolve().parents[1])

#: Every public name of the package namespace, by the submodule that
#: defines it.
NAMESPACE = {
    "density": ("DensityReport", "MultDensityState", "a_limit",
                "check_density_inequality", "density_profile",
                "finite_ie_density", "multiplicative_density",
                "restrict_family", "sieve_multiples_density"),
    "families": ("AFamily", "ExplicitFamily", "NormIntervalFamily",
                 "PrimePowerFamily", "parse_family"),
    "fields": ("NumberField", "PrimeIdeal", "analytic_residue_imag_quadratic",
               "class_number_imag_quadratic", "make_quadratic_field",
               "make_rational_field", "parse_field", "primes_up_to_norm",
               "split_prime"),
    "ideals": ("Ideal", "NormCounter", "count_ideals", "divides",
               "enumerate_ideals", "ideal_count", "ideal_counts",
               "integer_ideal", "intersect", "make_ideal"),
    "zeta": ("dedekind_zeta", "euler_products_at", "harmonic_ideal_sum",
             "mertens_ratio", "mertens_target", "partial_euler_product"),
}

#: The modules that ``import idealdensity.cli`` loads.
CLI_MODULES = {"idealdensity", "idealdensity.cli", "idealdensity.errors",
               "idealdensity.fields", "idealdensity.ideals"}


def python(*args, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def facts(code: str):
    """The JSON value that ``code`` leaves in ``out``, run in a fresh
    interpreter; ``loaded()`` there lists the package modules imported."""
    prelude = ("import json, sys\n"
               "def loaded():\n"
               "    return sorted(m for m in sys.modules\n"
               "                  if m.split('.')[0] == 'idealdensity')\n")
    run = python("-c", prelude + code + "\nprint(json.dumps(out))")
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


class TestImportGraph:
    def test_package_import_loads_no_submodule(self):
        assert facts("import idealdensity\nout = loaded()") == ["idealdensity"]

    @pytest.mark.parametrize("argv, extra", [
        (["count", "--field", "Q(sqrt -1)", "--max-norm", "1000"], set()),
        (["field-info", "--field", "Q(sqrt -5)"], set()),
        (["mertens", "--field", "Q(sqrt 5)", "--cutoff", "1000"],
         {"idealdensity.zeta"}),
    ], ids=["count", "field-info", "mertens"])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, extra):
        if argv[0] != "field-info":
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        code, modules, decimal = facts(
            "import idealdensity.cli\n"
            f"code = idealdensity.cli.main({argv!r})\n"
            "out = [code, loaded(), 'decimal' in sys.modules]")
        assert code == 0
        # density, families and experiments stay unloaded, and so does
        # decimal, which only density's A_exact reads.
        assert set(modules) == CLI_MODULES | extra
        assert not decimal


class TestNamespace:
    def test_every_name_is_its_submodule_object(self):
        same = facts(
            "import importlib\n"
            "import idealdensity as idd\n"
            f"namespace = {NAMESPACE!r}\n"
            "out = {m: [getattr(idd, n) is getattr(\n"
            "           importlib.import_module('idealdensity.' + m), n)\n"
            "           for n in names] for m, names in namespace.items()}")
        assert same == {m: [True] * len(names)
                        for m, names in NAMESPACE.items()}

    def test_all_and_dir_list_every_name(self):
        names, listed = facts("import idealdensity as idd\n"
                              "out = [idd.__all__, dir(idd)]")
        expected = {n for names in NAMESPACE.values() for n in names}
        assert set(names) == expected and len(names) == len(expected)
        assert expected <= set(listed)

    def test_unknown_attribute_raises_attribute_error(self):
        assert facts(
            "import idealdensity as idd\n"
            "try:\n"
            "    idd.no_such_name\n"
            "except AttributeError as exc:\n"
            "    out = [str(exc), hasattr(idd, '__wrapped__'), loaded()]\n") \
            == ["module 'idealdensity' has no attribute 'no_such_name'",
                False, ["idealdensity"]]

    def test_star_import_binds_every_name(self):
        missing = facts("namespace = {}\n"
                        "exec('from idealdensity import *', namespace)\n"
                        "import idealdensity\n"
                        "out = [n for n in idealdensity.__all__\n"
                        "       if n not in namespace]")
        assert missing == []

    def test_submodule_resolves_as_an_attribute_first(self):
        assert facts(
            "import idealdensity\n"
            "before = loaded()\n"
            "fields = idealdensity.fields\n"
            "out = [before, fields is sys.modules['idealdensity.fields'],\n"
            "       fields.parse_field('Q(sqrt -1)').discriminant]") \
            == [["idealdensity"], True, -4]


#: One run of each subcommand at a small size, and its documented exit
#: code: 3 where the experiment's verdict misses at that size.
COMMANDS = {
    "field-info": (["field-info", "--field", "Q(sqrt -1)"], 0),
    "count": (["count", "--field", "Q(sqrt -1)", "--max-norm", "1000"], 0),
    "mertens": (["mertens", "--field", "Q(sqrt 5)", "--cutoff", "1000"], 0),
    "density-explicit": (["density", "--aset", "explicit.json",
                          "--max-norm", "1000"], 0),
    "density-interval": (["density", "--field", "Q(sqrt -1)", "--aset",
                          "interval.json", "--max-norm", "1000"], 0),
    "primepower-free": (["experiment", "primepower-free", "--field", "Q",
                         "--max-norm", "10000"], 3),
    "main-theorem": (["experiment", "main-theorem", "--aset",
                      "explicit.json", "--max-norm", "100000"], 0),
    "besicovitch": (["experiment", "besicovitch", "--field", "Q(sqrt -1)",
                     "--max-norm", "10000"], 0),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_every_subcommand_runs_in_a_fresh_interpreter(tmp_path, name):
    (tmp_path / "explicit.json").write_text(
        json.dumps({"field": "Q", "kind": "explicit", "members": [2, 3]}))
    (tmp_path / "interval.json").write_text(json.dumps(
        {"field": "Q(sqrt -1)", "kind": "norm_intervals",
         "intervals": [[10, 20]]}))
    argv, expected = COMMANDS[name]
    if name != "field-info":
        argv = argv + ["--out", "out.csv"]
    run = python("-m", "idealdensity.cli", *argv, cwd=tmp_path)
    assert "Traceback" not in run.stderr, run.stderr
    assert run.returncode == expected, run.stderr
    # Both files, also where the verdict misses; field-info writes none.
    written = {"explicit.json", "interval.json"}
    if name != "field-info":
        written |= {"out.csv", "out.summary.json"}
    assert {p.name for p in tmp_path.iterdir()} == written

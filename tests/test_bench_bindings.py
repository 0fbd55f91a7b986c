"""The package names that the benchmark harness in ``bench/`` binds.

``bench/spans.py`` skips a traced target it cannot resolve, so a rename
in the package would empty that layer's metrics without an error; these
tests name every such target, and the attributes ``bench/`` reads
directly, so a rename fails here instead.
"""

import importlib.util
from pathlib import Path

import pytest

# spans resolves its targets among the modules imported so far.
from idealdensity import cli, density, experiments, families, ideals  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("target", spans.TARGETS + spans.MEMORY_TARGETS,
                         ids=lambda t: f"{t[0]}.{t[1]}")
def test_every_traced_target_resolves(target):
    module_name, qualname, _ = target
    assert spans._resolve(module_name, qualname) is not None


def test_names_bench_reads_directly():
    # spans rebinds these in every module that imported them.
    assert cli.count_ideals is ideals.count_ideals
    assert density.minimal_members is families.minimal_members
    # bench/run.py and bench/child.py call these.
    assert callable(ideals.gaussian_lattice_H)
    assert callable(ideals.count_ideals.__wrapped__)
    assert callable(ideals.NormCounter.H_of)

"""What the frozen benchmark under ``bench/`` reads from the package.

``bench/test_bench.py`` lies outside the default test paths, so these
checks run its contract with ``src/`` here, without a subprocess and
without putting ``bench/`` on ``sys.path``. One more check keeps
``bench/oracle.py``, which the routing tests compare the package with,
free of any import beyond the standard library.
"""

import ast
import sys

import numpy as np
import pytest

import synalloc
from synalloc import AllocationEngine, EngineConfig

from conftest import BENCH_DIR, ROOT, load_bench


def bench_constants(names):
    """The literal values assigned to ``names`` at the top level of bench/test_bench.py."""
    tree = ast.parse((BENCH_DIR / "test_bench.py").read_text())
    found = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id in names
    }
    assert set(found) == set(names)
    return found


@pytest.mark.parametrize("name", ["ALLOCATE_RESULT", "ARGMAX"])
def test_each_mutation_target_occurs_once_in_the_engine(name):
    original, mutated = bench_constants([name])[name]
    text = (ROOT / "src" / "synalloc" / "engine.py").read_text()
    assert text.count(original) == 1
    assert original != mutated


def test_the_span_tracer_patches_and_observes_the_engine():
    spans = load_bench("spans")
    tracer = spans.Tracer()
    rng = np.random.default_rng(4)
    initial = [rng.uniform(0, 10, size=(40, 3)) + 10 * i for i in range(2)]  # fewer than alpha
    originals = (synalloc.engine.extract_synopsis, synalloc.synopsis.CFTree.insert)
    with spans.patched(tracer, synalloc):  # every patched name must exist
        eng = AllocationEngine(EngineConfig(n_partitions=2, dimension=3, alpha=50), initial)
        for x in rng.uniform(0, 20, size=(12, 3)):
            eng.ingest(x)
        score = synalloc.engine.ensemble_similarity(eng.synopses[0].centroids[0], eng.synopses[0])
    assert (synalloc.engine.extract_synopsis, synalloc.synopsis.CFTree.insert) == originals
    # The observers read insert's (id, created), Synopsis.dominant[0].count and the score's weights.
    assert tracer.calls("setup", "synopsis.CFTree.insert") == 80 + 12
    assert tracer.calls("setup", "synopsis.extract_synopsis") == 2 + 12
    assert tracer.calls("setup", "similarity.ensemble_similarity") == 1
    assert tracer.counts[("setup", "synopsis.insert_created")] >= 2
    assert tracer.counts[("setup", "synopsis.fallback")] == 2 + 12  # no entry reaches alpha 50
    assert tracer.counts[("setup", "similarity.rows")] == len(eng.synopses[0].centroids)
    assert score.similarity == 1.0


def test_the_oracle_imports_only_the_standard_library():
    """Every routing test checks the engine against bench/oracle.py, so it must not import the code it checks."""
    tree = ast.parse((BENCH_DIR / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").partition(".")[0])
    assert imported and imported <= sys.stdlib_module_names, sorted(imported - sys.stdlib_module_names)

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from synalloc import ClusterFeature, Synopsis

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
SCRIPTS_DIR = ROOT / "scripts"
FIXTURES = Path(__file__).parent / "fixtures"
# The bench modules that a bench module imports by name, as its own directory on sys.path would serve them.
BENCH_SIBLINGS = {"run": ("oracle", "compare", "spans")}


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def _load_by_path(path: Path, module_name: str):
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module  # where dataclasses look a class's module up
    spec.loader.exec_module(module)
    return module


def load_bench(name: str):
    """The module ``bench/<name>.py``, loaded by file path so that ``bench/`` never goes on ``sys.path``.

    Its ``BENCH_SIBLINGS`` are loaded the same way and serve its imports of them by name while it loads.
    """
    siblings = {s: load_bench(s) for s in BENCH_SIBLINGS.get(name, ()) if s not in sys.modules}
    sys.modules.update(siblings)
    try:
        return _load_by_path(BENCH_DIR / f"{name}.py", f"bench_{name}")
    finally:
        for s in siblings:
            del sys.modules[s]


def load_script(name: str):
    """The script ``scripts/<name>.py``, loaded by file path as ``load_bench`` loads a bench module."""
    return _load_by_path(SCRIPTS_DIR / f"{name}.py", f"script_{name}")


def cf_of(points) -> ClusterFeature:
    """The cluster feature of ``points``, folded one point at a time with ``merge``."""
    cf = ClusterFeature.from_point(np.asarray(points[0], dtype=np.float64))
    for p in points[1:]:
        cf = cf.merge(ClusterFeature.from_point(np.asarray(p, dtype=np.float64)))
    return cf


def sum_left_to_right(a) -> np.ndarray:
    """Sums over the last axis of ``a``, as ``0.0 + a[..., 0] + a[..., 1] + ...`` in that order.

    The reference for every sum over M components: numpy's reduce starts from +0.0 too.
    """
    a = np.asarray(a, dtype=np.float64)
    total = np.zeros(a.shape[:-1])
    for j in range(a.shape[-1]):
        total = total + a[..., j]
    return total


def make_synopsis(centroids, partition_id=1, count=100, version=1) -> Synopsis:
    """Synopsis whose dominant clusters are point masses at the given centroids."""
    centroids = np.atleast_2d(np.asarray(centroids, dtype=np.float64))
    return Synopsis(
        partition_id=partition_id,
        counts=np.full(len(centroids), count, dtype=np.int64),
        linear_sums=count * centroids,
        square_sums=count * centroids * centroids,
        centroids=centroids.copy(),
        version=version,
    )


def tree_state(tree) -> tuple:
    """Everything a CF-tree's inserts write, as bytes: equal states are byte-identical trees."""
    n = tree._n
    columns = tuple(col[:n].tobytes() for col in (tree._count, tree._ls, tree._ss, tree._cent, tree._child))
    nodes = tuple((ids.dtype.str, ids.tobytes()) for ids in tree._nodes)
    dominant = (tree._dominant_alpha, tree._dominant[: tree._n_dominant].tobytes())
    return n, tree.total_points, tree._root, columns, nodes, dominant

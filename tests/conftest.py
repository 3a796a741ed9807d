import importlib.util
from pathlib import Path

import numpy as np
import pytest

from synalloc import ClusterFeature, Synopsis

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def load_bench(name: str):
    """The module ``bench/<name>.py``, loaded by file path so that ``bench/`` never goes on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cf_of(points) -> ClusterFeature:
    """The cluster feature of ``points``, folded one point at a time with ``merge``."""
    cf = ClusterFeature.from_point(np.asarray(points[0], dtype=np.float64))
    for p in points[1:]:
        cf = cf.merge(ClusterFeature.from_point(np.asarray(p, dtype=np.float64)))
    return cf


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

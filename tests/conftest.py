from pathlib import Path

import numpy as np
import pytest

from synalloc import Synopsis

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


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

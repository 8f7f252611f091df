import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veriml.data import BlobRecipe, Dataset, make_blobs, split_per_class
from veriml.errors import ParameterError
from veriml.rng import rng_gauss, rng_uniform


def test_blob_shapes_and_ranges():
    data = make_blobs(3, 50, 7, 0.1, seed=5)
    assert data.inputs.shape == (150, 7)
    assert data.labels.shape == (150,)
    assert data.n_classes == 3
    assert data.inputs.min() >= 0.0 and data.inputs.max() <= 1.0
    assert data.inputs.dtype == np.float64


def test_blob_labels_are_class_major():
    data = make_blobs(3, 10, 2, 0.1, seed=5)
    assert data.labels.tolist() == [0] * 10 + [1] * 10 + [2] * 10


def test_blobs_deterministic_and_seed_sensitive():
    a = make_blobs(2, 30, 4, 0.1, seed=9)
    b = make_blobs(2, 30, 4, 0.1, seed=9)
    c = make_blobs(2, 30, 4, 0.1, seed=10)
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, c.inputs)


@settings(max_examples=20)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=20),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=2 ** 32))
def test_blobs_always_in_unit_cube(n_classes, per, dim, seed):
    data = make_blobs(n_classes, per, dim, 0.5, seed)
    assert data.inputs.min() >= 0.0
    assert data.inputs.max() <= 1.0


def test_blobs_are_separable_by_construction():
    # tight clusters: per-class centroids stay far apart relative to spread
    data = make_blobs(3, 50, 5, 0.02, seed=3)
    centroids = [data.inputs[data.labels == c].mean(axis=0) for c in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(centroids[i] - centroids[j]) > 0.1


def test_dataset_validation():
    with pytest.raises(ParameterError):
        Dataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), 2)
    with pytest.raises(ParameterError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)  # label 2 out of range


@pytest.mark.parametrize("spread", [0.0, -0.1, float("nan"), float("inf")])
def test_make_blobs_rejects_spread_outside_zero_to_inf(spread):
    # a NaN spread used to come back as an all-zero dataset
    with pytest.raises(ParameterError):
        make_blobs(2, 3, 2, spread, 1)


def test_subset_picks_rows():
    data = make_blobs(2, 5, 3, 0.1, seed=1)
    sub = data.subset([0, 5, 9])
    assert sub.inputs.shape == (3, 3)
    assert np.array_equal(sub.inputs[1], data.inputs[5])
    assert sub.labels.tolist() == [0, 1, 1]


def test_split_per_class_is_disjoint_and_class_major():
    data = make_blobs(3, 10, 2, 0.1, seed=2)
    train, held = split_per_class(data, 7)
    assert len(train) == 21 and len(held) == 9
    assert train.labels.tolist() == [0] * 7 + [1] * 7 + [2] * 7
    assert held.labels.tolist() == [0] * 3 + [1] * 3 + [2] * 3
    # no row appears in both halves
    seen = {row.tobytes() for row in train.inputs}
    assert all(row.tobytes() not in seen for row in held.inputs)
    # together they are exactly the pool
    assert len(train) + len(held) == len(data)


def test_split_per_class_rejects_degenerate():
    data = make_blobs(2, 5, 2, 0.1, seed=2)
    with pytest.raises(ParameterError):
        split_per_class(data, 5)
    with pytest.raises(ParameterError):
        split_per_class(data, 0)


def test_recipe_builds_same_dataset():
    recipe = BlobRecipe(2, 20, 3, 0.1, 77)
    a, b = recipe.build(), recipe.build()
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_recipe_pool_is_built_once_per_process_and_read_only():
    recipe = BlobRecipe(2, 20, 3, 0.1, 77)
    pool = recipe.build()
    assert recipe.build() is pool
    assert BlobRecipe(2, 20, 3, 0.1, 77).build() is pool
    assert BlobRecipe(2, 20, 3, 0.1, 78).build() is not pool
    with pytest.raises(ValueError):
        pool.inputs[0, 0] = 0.5
    with pytest.raises(ValueError):
        pool.labels[0] = 1
    fresh = make_blobs(2, 20, 3, 0.1, 77)
    assert np.array_equal(pool.inputs, fresh.inputs)
    # what callers cut from the shared pool is theirs to change
    train, held = split_per_class(pool, 5)
    train.inputs[0, 0] = 0.5
    held.labels[0] = 1
    assert np.array_equal(recipe.build().inputs, fresh.inputs)


def test_recipe_canonical_bytes_distinguish():
    base = BlobRecipe(2, 20, 3, 0.1, 77)
    assert base.canonical_bytes() == BlobRecipe(2, 20, 3, 0.1, 77).canonical_bytes()
    for other in (BlobRecipe(3, 20, 3, 0.1, 77), BlobRecipe(2, 21, 3, 0.1, 77),
                  BlobRecipe(2, 20, 4, 0.1, 77), BlobRecipe(2, 20, 3, 0.2, 77),
                  BlobRecipe(2, 20, 3, 0.1, 78)):
        assert base.canonical_bytes() != other.canonical_bytes()


def _scalar_blobs(n_classes, n_per_class, dim, spread, seed):
    """make_blobs by its definition: one rng_uniform per center coordinate,
    one rng_gauss per point coordinate, in class/sample/coordinate order."""
    state = seed
    centers = []
    for _ in range(n_classes * dim):
        u, state = rng_uniform(state)
        centers.append(0.2 + 0.6 * u)
    rows = []
    for c in range(n_classes):
        for _ in range(n_per_class):
            row = []
            for d in range(dim):
                g, state = rng_gauss(state)
                row.append(min(1.0, max(0.0, centers[c * dim + d] + spread * g)))
            rows.append(row)
    return np.array(rows, dtype=np.float64)


RECIPES = [(2, 1, 2, 0.05), (3, 4, 2, 0.3), (2, 2, 4, 5.0), (3, 300, 3, 0.3)]


def _check_blobs(seed, recipe):
    n_classes, per, dim, spread = recipe
    data = make_blobs(n_classes, per, dim, spread, seed)
    want = _scalar_blobs(n_classes, per, dim, spread, seed)
    assert data.inputs.tobytes() == want.tobytes()
    assert data.labels.tolist() == [c for c in range(n_classes) for _ in range(per)]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1])
@pytest.mark.parametrize("recipe", RECIPES)
def test_make_blobs_is_its_scalar_definition_at_fixed_seeds(seed, recipe):
    _check_blobs(seed, recipe)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1), st.sampled_from(RECIPES))
def test_make_blobs_is_its_scalar_definition(seed, recipe):
    _check_blobs(seed, recipe)


def test_wide_spread_blobs_hit_both_clamps():
    data = make_blobs(2, 50, 4, 5.0, seed=2 ** 64 - 1)
    assert data.inputs.tobytes() == _scalar_blobs(2, 50, 4, 5.0, 2 ** 64 - 1).tobytes()
    assert (data.inputs == 0.0).any() and (data.inputs == 1.0).any()

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlconsist.textmetrics import (
    average_ranks,
    cosine,
    pearson,
    spearman,
    spearman_detailed,
)

from oracles import pearson_textbook, spearman_d2

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
vectors = st.lists(finite_floats, min_size=2, max_size=25)


def test_average_ranks_no_ties():
    assert average_ranks([10.0, 30.0, 20.0]).tolist() == [1.0, 3.0, 2.0]


def test_average_ranks_with_ties():
    assert average_ranks([10, 20, 20, 30, 30]).tolist() == [1.0, 2.5, 2.5, 4.5, 4.5]


def loop_average_ranks(values):
    """The element-by-element tie walk that average_ranks vectorises."""
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(len(a), dtype=np.float64)
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


@pytest.mark.parametrize(
    "values",
    [
        [],
        [5.0],
        [3.0, 3.0, 3.0],
        [0.0, -0.0, 1.0, 0.0],
        [math.nan, 1.0, math.nan, 1.0, 0.5],
        [math.nan, math.nan],
        [math.inf, -math.inf, math.inf, 2.0],
    ],
)
def test_average_ranks_matches_loop_with_ties_and_nan(values):
    got = average_ranks(values)
    assert got.tobytes() == loop_average_ranks(values).tobytes()


@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, 1.0, math.nan, math.inf]), max_size=30))
def test_average_ranks_matches_loop_on_random_ties(values):
    assert average_ranks(values).tobytes() == loop_average_ranks(values).tobytes()


def test_spearman_identity_and_reversal():
    x = [0.2, 0.5, 0.9, 0.1]
    assert spearman(x, x) == 1.0
    assert spearman(x, [-v for v in x]) == -1.0


def test_spearman_derived_case():
    # d = (0, -1, 1), sum d^2 = 2, n = 3 -> 1 - 12/24 = 0.5
    assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-15)


def test_spearman_hand_computed_tied_case():
    # ranks of x: [1, 2.5, 2.5, 4.5, 4.5]; pearson vs [1..5] = 3/sqrt(10)
    rho = spearman([10, 20, 20, 30, 30], [1, 2, 3, 4, 5])
    assert rho == pytest.approx(3 / math.sqrt(10), abs=1e-12)


def test_spearman_matches_d2_oracle_on_random_tiefree():
    rng = random.Random(2024)
    for trial in range(1000):
        n = rng.randint(2, 40)
        x = rng.sample(range(100000), n)
        y = rng.sample(range(100000), n)
        assert spearman(x, y) == pytest.approx(spearman_d2(x, y), abs=1e-12)


def test_spearman_monotone_transform_invariance():
    rng = random.Random(7)
    for trial in range(100):
        n = rng.randint(3, 30)
        x = [rng.uniform(0.1, 50.0) for _ in range(n)]
        y = [rng.uniform(0.1, 50.0) for _ in range(n)]
        base = spearman(x, y)
        assert spearman([2 * v + 7 for v in x], y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, [v**3 for v in y]) == pytest.approx(base, abs=1e-12)


def test_spearman_symmetry():
    rng = random.Random(11)
    for trial in range(50):
        x = [rng.random() for _ in range(8)]
        y = [rng.random() for _ in range(8)]
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-15)


def test_spearman_degenerate_flag():
    value, degenerate = spearman_detailed([1.0, 1.0, 1.0], [1, 2, 3])
    assert value == 0.0 and degenerate
    value, degenerate = spearman_detailed([1, 2, 3], [5.0, 5.0, 5.0])
    assert value == 0.0 and degenerate
    value, degenerate = spearman_detailed([1, 2, 3], [4, 5, 6])
    assert value == 1.0 and not degenerate


def test_spearman_input_errors():
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1], [2])


@given(vectors, vectors)
def test_spearman_bounded(x, y):
    if len(x) != len(y):
        x = x[: min(len(x), len(y))]
        y = y[: len(x)]
    if len(x) < 2:
        return
    assert -1.0 - 1e-12 <= spearman(x, y) <= 1.0 + 1e-12


def test_pearson_matches_textbook():
    rng = random.Random(3)
    for trial in range(100):
        n = rng.randint(2, 30)
        x = [rng.uniform(-5, 5) for _ in range(n)]
        y = [rng.uniform(-5, 5) for _ in range(n)]
        assert pearson(x, y) == pytest.approx(pearson_textbook(x, y), abs=1e-12)


def test_pearson_zero_variance():
    assert pearson([1.0, 1.0], [2.0, 3.0]) == 0.0


def test_cosine_examples():
    assert cosine([3.0, 4.0], [3.0, 4.0]) == pytest.approx(1.0, abs=1e-15)
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1, 0], [1, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_cosine_zero_norm():
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine([1, 2, 3], [1, 2])


def test_cosine_scale_and_sign():
    rng = np.random.default_rng(5)
    for trial in range(30):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        base = cosine(u, v)
        alpha = float(rng.uniform(0.1, 9.0))
        assert cosine(alpha * u, v) == pytest.approx(base, abs=1e-12)
        assert cosine(-u, v) == pytest.approx(-base, abs=1e-12)

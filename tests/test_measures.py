import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdlearn.errors import AllZero, NegativeEntry
from wdlearn.measures import (
    DiscreteMeasure,
    GroundSpace,
    MeasureDataset,
    normalize_to_measure,
    read_dataset,
    write_dataset,
)


@pytest.fixture
def line01():
    return GroundSpace.line([0.0, 1.0])


class TestGroundSpace:
    def test_grid_enumeration_row_major(self):
        g = GroundSpace.grid((2, 3))
        assert g.size == 6 and g.dim == 2
        np.testing.assert_array_equal(g.points[1], [0.0, 1.0])
        np.testing.assert_array_equal(g.points[3], [1.0, 0.0])

    def test_cost_matrix_is_euclidean_distance_to_the_p(self):
        g = GroundSpace.grid((2, 2), p=3.0)
        C = g.cost_matrix()
        assert C[0, 3] == pytest.approx(np.sqrt(2.0) ** 3)
        assert np.allclose(C, C.T) and np.all(np.diag(C) == 0.0)

    @pytest.mark.parametrize("shape", [(8, 8), (3, 5)])
    def test_cost_matrix_on_a_unit_grid_is_exact_and_cached(self, shape):
        # at p = 2 the cost is the integer squared distance, not sqrt(.)**2
        g = GroundSpace.grid(shape)
        C = g.cost_matrix()
        i, j = np.divmod(np.arange(g.size), shape[1])
        want = (i[:, None] - i[None, :]) ** 2 + (j[:, None] - j[None, :]) ** 2
        np.testing.assert_array_equal(C, want)
        assert not C.flags.writeable and g.cost_matrix() is C

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            GroundSpace([[0.0], [0.0]])

    def test_rejects_bad_metric_order(self):
        for p in (1.0, 0.5, -1.0, np.nan, np.inf, [2], None):
            with pytest.raises(ValueError, match=re.escape(f"metric order p must be finite and exceed 1, got {p}")):
                GroundSpace.line([0.0, 1.0], p=p)

    @pytest.mark.parametrize(
        "points, grid_shape, message",
        [
            (np.zeros((2, 2, 2)), None, "points must be a (m, d) array"),
            ([[0.0, 0.0], [0.0, 1.0]], (3, 1), "grid shape does not match the number of points"),
            ([[0.0, 0.0], [0.0, 1.0]], (2,), "grid shape rank does not match point dimension"),
        ],
        ids=["points", "count", "rank"],
    )
    def test_rejects_malformed_shapes(self, points, grid_shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GroundSpace(points, grid_shape=grid_shape)

    def test_rejects_mismatched_grid(self):
        with pytest.raises(ValueError):
            GroundSpace([[0.0, 0.0], [1.0, 1.0]], grid_shape=(2, 1))


class TestDiscreteMeasure:
    def test_unit_mass_enforced(self, line01):
        with pytest.raises(ValueError):
            DiscreteMeasure(line01, [0.7, 0.2])

    def test_small_mass_error_renormalized(self, line01):
        mu = DiscreteMeasure(line01, [0.5 + 2e-10, 0.5])
        assert abs(mu.weights.sum() - 1.0) <= 1e-12

    def test_negative_entry_rejected(self, line01):
        with pytest.raises(NegativeEntry):
            DiscreteMeasure(line01, [1.1, -0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, line01, bad):
        # a ValueError up front, not a failed renormalization certificate
        with pytest.raises(ValueError, match="^measure weights must be finite$"):
            DiscreteMeasure(line01, [bad, 0.5])


class TestNormalize:
    def test_uniform(self, line01):
        g = GroundSpace.line([0.0, 1.0, 2.0, 3.0])
        mu = normalize_to_measure(g, [1, 1, 1, 1])
        np.testing.assert_allclose(mu.weights, 0.25)

    def test_single_atom(self, line01):
        g = GroundSpace.line([0.0, 1.0, 2.0, 3.0])
        mu = normalize_to_measure(g, [2, 0, 0, 0])
        np.testing.assert_allclose(mu.weights, [1, 0, 0, 0])

    def test_forced_arithmetic(self, line01):
        mu = normalize_to_measure(line01, [3, 1])
        np.testing.assert_allclose(mu.weights, [0.75, 0.25])

    def test_all_zero(self, line01):
        with pytest.raises(AllZero):
            normalize_to_measure(line01, [0.0, 0.0])

    def test_negative(self, line01):
        with pytest.raises(NegativeEntry):
            normalize_to_measure(line01, [1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, line01, bad):
        with pytest.raises(ValueError, match="^raw vector has a non-finite entry$"):
            normalize_to_measure(line01, [1.0, bad])

    @settings(max_examples=40, deadline=None)
    @given(
        raw=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_always_a_probability_vector(self, raw):
        g = GroundSpace.line(np.arange(len(raw), dtype=float))
        if sum(raw) == 0.0:
            with pytest.raises(AllZero):
                normalize_to_measure(g, raw)
        else:
            mu = normalize_to_measure(g, raw)
            assert np.all(mu.weights >= 0.0)
            assert abs(mu.weights.sum() - 1.0) <= 1e-12


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        g = GroundSpace.grid((2, 3))
        train = [DiscreteMeasure(g, rng.dirichlet(np.ones(6))) for _ in range(3)]
        test = [DiscreteMeasure(g, rng.dirichlet(np.ones(6))) for _ in range(2)]
        ds = MeasureDataset(g, train, test)
        path = tmp_path / "ds.txt"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert back.ground.grid_shape == (2, 3)
        assert back.ground.p == 2.0
        np.testing.assert_allclose(back.train_matrix, ds.train_matrix)
        np.testing.assert_allclose(back.test_matrix, ds.test_matrix)

    @pytest.mark.parametrize("n_train, n_test", [(2, 0), (0, 2), (0, 0)])
    def test_an_empty_split_has_a_row_width(self, n_train, n_test):
        g = GroundSpace.grid((2, 3))
        mus = [DiscreteMeasure.dirac(g, i) for i in range(n_train + n_test)]
        ds = MeasureDataset(g, mus[:n_train], mus[n_train:])
        assert ds.train_matrix.shape == (n_train, 6)
        assert ds.test_matrix.shape == (n_test, 6)
        for name, n in (("train", n_train), ("test", n_test), ("all", n_train + n_test)):
            measures, W = ds.split(name)
            assert W.shape == (len(measures), 6) == (n, 6)

    def test_mixed_ground_rejected(self):
        g1 = GroundSpace.grid((1, 2))
        g2 = GroundSpace.grid((2, 1))
        mu = DiscreteMeasure(g2, [0.5, 0.5])
        with pytest.raises(ValueError):
            MeasureDataset(g1, [mu], [])

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3 2.0 1\n" + " ".join(["0.2"] * 6) + "\n")
        with pytest.raises(ValueError):
            read_dataset(path)
        path.write_text("2 3 nan 1 0\n" + " ".join([repr(1 / 6)] * 6) + "\n")
        with pytest.raises(ValueError, match="line 1: metric order p must be finite and exceed 1, got nan"):
            read_dataset(path)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_weight_names_its_line(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        good = " ".join([repr(1 / 6)] * 6)
        path.write_text(f"2 3 2.0 2 0\n{good}\n{bad} " + " ".join([repr(1 / 5)] * 5) + "\n")
        with pytest.raises(ValueError, match="^dataset file, line 3: measure weights must be finite$"):
            read_dataset(path)

    def test_negative_count_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3 2.0 -1 0\n")
        with pytest.raises(ValueError, match="^dataset file, line 1: negative measure count -1$"):
            read_dataset(path)

    def test_write_needs_a_2d_grid(self, tmp_path):
        for ground in (GroundSpace([[0.0, 0.0], [1.0, 3.0]]), GroundSpace.grid((2,))):
            ds = MeasureDataset(ground, [DiscreteMeasure.dirac(ground, 0)], [])
            with pytest.raises(ValueError, match="dataset files require a 2-d pixel-grid ground space"):
                write_dataset(tmp_path / "ds.txt", ds)
        assert not (tmp_path / "ds.txt").exists()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 3 2.0 2 0\n" + " ".join([repr(1 / 6)] * 6) + "\n")
        with pytest.raises(ValueError, match="ended early: line 3 should hold measure 2 of 2"):
            read_dataset(path)


def _random_dataset(rows, cols, n_train, n_test, seed):
    rng = np.random.default_rng(seed)
    g = GroundSpace.grid((rows, cols))
    ms = [DiscreteMeasure(g, rng.dirichlet(np.ones(g.size))) for _ in range(n_train + n_test)]
    return MeasureDataset(g, ms[:n_train], ms[n_train:])


datasets = st.builds(
    _random_dataset,
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)


class TestDatasetFileProperties:
    """Round trips and corruptions of the dataset text format."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("datasets") / "ds.txt"

    @settings(max_examples=40, deadline=None)
    @given(ds=datasets)
    def test_roundtrip_is_bitwise(self, path, ds):
        write_dataset(path, ds)
        back = read_dataset(path)
        assert back.ground.grid_shape == ds.ground.grid_shape and back.ground.p == ds.ground.p
        for split in ("train", "test"):
            mine, theirs = getattr(ds, split), getattr(back, split)
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                np.testing.assert_array_equal(a.weights, b.weights)

    @settings(max_examples=60, deadline=None)
    @given(ds=datasets, data=st.data())
    def test_every_cut_ends_early(self, path, ds, data):
        write_dataset(path, ds)
        text = path.read_text()
        cut = data.draw(st.integers(0, len(text) - 1))
        path.write_text(text[:cut])
        with pytest.raises(ValueError, match="dataset file ended early: line"):
            read_dataset(path)

    @settings(max_examples=30, deadline=None)
    @given(
        ds=datasets,
        blanks=st.integers(0, 2),
        junk=st.sampled_from(["0.5", "x", "1 2 3", "  7"]),
    )
    def test_trailing_data_names_its_line(self, path, ds, blanks, junk):
        write_dataset(path, ds)
        text = path.read_text() + "\n" * blanks
        path.write_text(text)
        read_dataset(path)  # blank lines at the end are fine
        path.write_text(text + junk + "\n")
        line = 2 + len(ds.train) + len(ds.test) + blanks
        with pytest.raises(ValueError, match=f"line {line}: data after the last record"):
            read_dataset(path)

    @settings(max_examples=30, deadline=None)
    @given(ds=datasets, data=st.data())
    def test_measure_of_wrong_length_names_its_line(self, path, ds, data):
        n = len(ds.train) + len(ds.test)
        if n == 0:
            return
        write_dataset(path, ds)
        lines = path.read_text().split("\n")
        i = data.draw(st.integers(1, n))
        values = lines[i].split()
        lines[i] = " ".join(values[:-1] if data.draw(st.booleans()) else values + ["0.0"])
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=f"line {i + 1}: measure {i} of {n} needs"):
            read_dataset(path)

"""Loader, serializer, lambda_max, and density."""

import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc.datamat import SparseDataset, density, lambda_max, load_libsvm, save_libsvm
from spdc.errors import DataError

from conftest import make_dataset


def write(tmp_path, text, name="data.svm"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoader:
    def test_two_line_file(self, tmp_path):
        ds = load_libsvm(write(tmp_path, "+1 1:2\n-1 1:1\n"))
        assert ds.n == 2 and ds.d == 1
        assert np.allclose(ds.row_norms, [2.0, 1.0])
        assert np.array_equal(ds.labels, [1.0, -1.0])

    def test_normalize_unit_norms(self, tmp_path):
        ds = load_libsvm(write(tmp_path, "+1 1:2\n-1 1:1\n"), normalize=True)
        assert np.allclose(ds.row_norms, [1.0, 1.0], rtol=1e-12)

    def test_normalize_idempotent(self, tmp_path):
        path = write(tmp_path, "+1 1:2 3:1\n-1 2:4\n+1 1:0.5 2:0.25 3:8\n")
        ds1 = load_libsvm(path, normalize=True)
        out = tmp_path / "norm.svm"
        save_libsvm(ds1, out)
        ds2 = load_libsvm(out, normalize=True)
        assert np.allclose(ds1.row_norms, ds2.row_norms, rtol=1e-12)
        assert np.allclose(ds1._csr.toarray(), ds2._csr.toarray(), rtol=1e-12)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        ds = load_libsvm(write(tmp_path, "# header\n\n+1 1:1\n# mid\n-1 2:3\n"))
        assert ds.n == 2 and ds.d == 2

    def test_d_is_max_index(self, tmp_path):
        ds = load_libsvm(write(tmp_path, "+1 7:1\n-1 2:1\n"))
        assert ds.d == 7

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("+1 1:x\n", "line 1"),
            ("+1 1:1\n-1 nonsense\n", "line 2"),
            ("+1 1:1 1:2\n", "duplicate"),
            ("+1 3:1 2:1\n", "increasing"),
            ("+1 0:1\n", "1-based"),
            ("2 1:1\n", "label"),
            ("+1 1:1\n-1 2:nan\n", "line 2: feature 2 has non-finite value nan"),
            ("+1 1:inf\n", "line 1: feature 1 has non-finite"),
            ("+1 1:-1e400\n", "line 1: feature 1 has non-finite"),
            ("nan 1:1\n", "line 1: label 'nan' is not finite"),
        ],
    )
    def test_malformed_lines(self, tmp_path, text, fragment):
        with pytest.raises(DataError, match=fragment):
            load_libsvm(write(tmp_path, text))

    def test_zero_row_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no nonzero"):
            load_libsvm(write(tmp_path, "+1 1:0\n"))
        with pytest.raises(DataError):
            load_libsvm(write(tmp_path, "+1\n"))

    def test_regression_labels_allowed(self, tmp_path):
        ds = load_libsvm(write(tmp_path, "0.5 1:1\n-2.25 2:1\n"), classification=False)
        assert np.array_equal(ds.labels, [0.5, -2.25])
        with pytest.raises(DataError, match="line 2: label 'inf' is not finite"):
            load_libsvm(write(tmp_path, "0.5 1:1\ninf 2:1\n"), classification=False)

    def test_round_trip(self, tmp_path):
        ds = make_dataset(15, 8, seed=3, density=0.4)
        out = tmp_path / "rt.svm"
        save_libsvm(ds, out)
        again = load_libsvm(out)
        assert ds.equals(again)

    def test_round_trip_twice_is_stable(self, tmp_path):
        text = "+1 1:0.1 3:-2.5\n-1 2:1e-3\n+1 1:1 2:2 3:3\n"
        ds1 = load_libsvm(write(tmp_path, text))
        out = tmp_path / "rt2.svm"
        save_libsvm(ds1, out)
        assert ds1.equals(load_libsvm(out))

    @given(
        rows=st.lists(
            st.dictionaries(
                st.integers(1, 30),
                st.floats(-1e12, 1e12, allow_nan=False).filter(lambda v: v != 0.0),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=12,
        ),
        labels=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, rows, labels):
        lines = []
        for row in rows:
            y = labels.draw(st.sampled_from(["+1", "-1"]))
            feats = " ".join(f"{j}:{v!r}" for j, v in sorted(row.items()))
            lines.append(f"{y} {feats}")
        path = tmp_path_factory.mktemp("ht") / "prop.svm"
        path.write_text("\n".join(lines) + "\n")
        ds = load_libsvm(path)
        out = path.with_suffix(".rt")
        save_libsvm(ds, out)
        assert ds.equals(load_libsvm(out))


class TestRowColDuality:
    def test_random_entries_agree(self):
        ds = make_dataset(30, 12, seed=11, density=0.3)
        rng = np.random.default_rng(0)
        for _ in range(200):
            i = int(rng.integers(ds.n))
            j = int(rng.integers(ds.d))
            assert ds.value(i, j) == ds.value_by_col(i, j)

    def test_full_matrix_agrees(self):
        ds = make_dataset(10, 6, seed=5)
        assert np.array_equal(ds._csr.toarray(), ds._csc.toarray())

    def test_row_norms_match_recomputation(self):
        ds = make_dataset(25, 9, seed=8)
        for i in range(ds.n):
            _, vals = ds.row(i)
            ref = np.linalg.norm(vals)
            assert abs(ds.row_norms[i] - ref) <= 1e-12 * ref


class TestLambdaMax:
    def test_hand_value(self):
        ds = SparseDataset(sp.csr_matrix(np.array([[2.0], [1.0]])), [1.0, 1.0])
        assert lambda_max(ds) == pytest.approx(1.5, abs=0)

    def test_cancellation(self):
        ds = SparseDataset(sp.csr_matrix(np.array([[1.0], [1.0]])), [1.0, -1.0])
        assert lambda_max(ds) == 0.0

    def test_single_instance(self):
        ds = SparseDataset(sp.csr_matrix(np.array([[3.0]])), [1.0])
        assert lambda_max(ds) == 3.0

    def test_zero_weight_is_optimal_above_lambda_max(self):
        # with alpha_i = y_i (= -f'(0)) and lam > lambda_max, w = 0 has zero
        # primal violation everywhere: the stationarity threshold matches
        from spdc.objective import ProblemSpec, primal_violations

        ds = make_dataset(30, 8, seed=2)
        spec = ProblemSpec(gamma=1.0, lam=1.01 * lambda_max(ds))
        psi = primal_violations(np.zeros(ds.d), ds.labels, ds, spec)
        assert np.all(psi == 0.0)


class TestDensity:
    def test_half(self):
        ds = SparseDataset(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]])), [1.0, -1.0])
        assert density(ds) == 0.5

    def test_dense(self):
        ds = make_dataset(6, 4, seed=1, density=1.1)
        assert density(ds) == 1.0

    def test_counts_stored_nonzeros(self):
        ds = make_dataset(20, 10, seed=9, density=0.35)
        assert density(ds) == ds.nnz / 200


W8A = os.environ.get("SPDC_W8A_PATH", "")


@pytest.mark.skipif(not (W8A and os.path.exists(W8A)), reason="w8a file not available")
def test_w8a_shape_and_density():
    ds = load_libsvm(W8A)
    assert (ds.n, ds.d) == (45546, 300)
    assert abs(density(ds) - 0.042418) <= 1e-6

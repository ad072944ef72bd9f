"""Loader, serializer, lambda_max, and density."""

import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc.cli import synth
from spdc.datamat import (SparseDataset, density, example_path, lambda_max, load_libsvm,
                          save_libsvm)
from spdc.errors import DataError

from conftest import make_dataset
from oracles import reference_load_libsvm, reference_row_norms


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

    def test_infinite_label_rejected(self, tmp_path):
        with pytest.raises(DataError, match="line 2: label 'inf' is not finite"):
            load_libsvm(write(tmp_path, "+1 1:1\ninf 2:1\n"))

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


LABELS = ("+1", "-1", "1", "1.0", "-1.00", "+1e0")
ZEROS = ("0", "0.0", "-0", "0e0")
FILLERS = ("", "   ", "\t", "# comment 1:2 3:x", "  #indented comment")


def random_lines(seed, n_rows, max_len, filler_share, long_runs):
    """Lines (without newlines) of a valid file: +-1 labels, rows of 1 to
    max_len entries with values of magnitude 1e-300 to 1e300 and explicit
    zeros, mixed separators, comments and blank lines, and, when long_runs
    is set, runs of blank lines long enough to move rows across blocks."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_rows):
        while rng.random() < filler_share:
            lines.append(FILLERS[rng.integers(len(FILLERS))])
        if long_runs and rng.random() < 0.3:
            lines += [""] * int(rng.integers(1, 300))
        length = int(rng.integers(1, max_len + 1))
        idx = np.sort(rng.choice(np.arange(1, 2 * max_len + 1), size=length, replace=False))
        vals = rng.choice([-1.0, 1.0], size=length) * 10.0 ** rng.uniform(-300, 300, length)
        vals[rng.random(length) < 0.1] = 0.0
        if not vals.any():
            vals[-1] = 1.5
        fmt = ("{!r}", "{:.6g}", "{:.3e}")[rng.integers(3)]
        feats = [f"{j}:{fmt.format(float(v))}" if v else f"{j}:{ZEROS[rng.integers(4)]}"
                 for j, v in zip(idx, vals)]
        sep = (" ", "\t", "  ")[rng.integers(3)]
        pad = ("", " ", "\t")[rng.integers(3)]
        lines.append(pad + sep.join([LABELS[rng.integers(len(LABELS))]] + feats) + pad)
    return lines


def write_lines(path, lines, seed):
    """Write lines as bytes with LF or CRLF endings picked per line."""
    rng = np.random.default_rng(seed)
    ends = np.where(rng.random(len(lines)) < 0.5, b"\n", b"\r\n")
    path.write_bytes(b"".join((ln if isinstance(ln, bytes) else ln.encode()) + end
                              for ln, end in zip(lines, ends)))
    return path


def assert_same_dataset(ds, ref):
    """n, d and every array of the dataset equal the reference bit for bit; the
    index arrays are the reference's values as ``np.intp``, whatever its dtype."""
    assert (ds.n, ds.d) == (ref.n, ref.d)
    pairs = [(ds.labels, ref.labels), (ds.row_norms, ref.row_norms)]
    pairs += [(ds._csr.indptr, ref.csr.indptr.astype(np.intp)),
              (ds._csr.indices, ref.csr.indices.astype(np.intp)),
              (ds._csr.data, ref.csr.data)]
    for mine, theirs in pairs:
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()


def data_error(fn, *args, **kwargs):
    with pytest.raises(DataError) as info:
        fn(*args, **kwargs)
    return str(info.value)


# one bad line each, as bytes; the last two are rejected by this loader only
DEFECTS = (
    b"+1 1:x", b"+1 3", b"+1 1:2:3", b"+1 :3", b"+1 3:", b"+1 0:1", b"+1 2:1 2:3",
    b"+1 3:1 2:1", b"2 1:1", b"inf 1:1", b"nan 1:1", b"abc 1:1", b"+1 1:nan",
    b"-1 2:-inf", b"+1 1:1e400", b"+1 1:0 4:0", b"+1", b"-1 1:1 # trailing",
    b"+1 1 2:3:4", b"+1 2: 3:4", b"+1 1.5:3", b"+1 1e2:3", b"+1 1:0x10",
    b"+1 1:\xff", b"# caf\xe9",
)
# tokens Python's int and float read, some of which numpy's text reader refuses
PYTHON_TOKENS = ("1_0:5", "\u0663:5", "+3:2", "01:5", "1:.5", "1:5.", "1:1E5", "1:+2")
NOT_UTF8 = (b"+1 1:\xff", b"# caf\xe9")


class TestBulkLoader:
    """The block-wise loader against the frozen line-by-line loader."""

    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40),
           max_len=st.sampled_from([1, 3, 9, 40, 300]),
           filler_share=st.sampled_from([0.0, 0.3]), long_runs=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_valid_files_match_reference(self, tmp_path_factory, seed, n_rows, max_len,
                                         filler_share, long_runs):
        lines = random_lines(seed, n_rows, max_len, filler_share, long_runs)
        path = write_lines(tmp_path_factory.mktemp("bulk") / "ok.svm", lines, seed)
        for normalize in (False, True):
            assert_same_dataset(load_libsvm(path, normalize=normalize),
                                reference_load_libsvm(path, normalize=normalize))

    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 30),
           long_runs=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_error_names_first_bad_line(self, tmp_path_factory, seed, n_rows, long_runs,
                                        data):
        lines = random_lines(seed, n_rows, 12, 0.2, long_runs)
        spots = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3,
                                   unique=True))
        defects = [data.draw(st.sampled_from(DEFECTS)) for _ in spots]
        bad = list(lines)
        for spot, defect in zip(spots, defects):
            bad[spot] = defect
        folder = tmp_path_factory.mktemp("bad")
        got = data_error(load_libsvm, write_lines(folder / "bad.svm", bad, seed))
        first = min(range(len(spots)), key=spots.__getitem__)
        if defects[first] in NOT_UTF8:
            assert got == f"line {spots[first] + 1}: not valid UTF-8 text"
        else:
            # with one bad line, the frozen loader's message is the one to give
            one = list(lines)
            one[spots[first]] = defects[first]
            path = write_lines(folder / "one.svm", one, seed)
            assert got == data_error(reference_load_libsvm, path)

    @pytest.mark.parametrize("token", PYTHON_TOKENS)
    def test_tokens_only_python_reads_load_as_reference(self, tmp_path, token):
        # three blocks of lines; the token sits in the middle one, whose bulk
        # parse may refuse it, and must then be parsed line by line
        lines = [f"{(-1, 1)[i % 2]:+d} {i % 9 + 11}:{i * 0.37!r} 30:-2" for i in range(300)]
        lines[200] = f"-1 {token} 20:3"
        path = write_lines(tmp_path / "python.svm", lines, 0)
        for normalize in (False, True):
            assert_same_dataset(load_libsvm(path, normalize=normalize),
                                reference_load_libsvm(path, normalize=normalize))

    def test_huge_index_rejected(self, tmp_path):
        path = write(tmp_path, "+1 1:1\n-1 99999999999999999999:1\n")
        assert data_error(load_libsvm, path) == (
            "line 2: feature index 99999999999999999999 is too large")

    def test_index_beyond_a_sizable_weight_vector_rejected(self, tmp_path):
        # the largest feature count whose float64 vector numpy can size
        bound = np.iinfo(np.intp).max // 8
        ds = load_libsvm(write(tmp_path, f"+1 1:1\n-1 {bound}:1\n"))
        assert ds.d == bound
        for index in (bound + 1, 2**62):
            assert data_error(load_libsvm, write(tmp_path, f"+1 1:1\n-1 {index}:1\n")) == (
                f"line 2: feature index {index} is too large")
        # the line-by-line check passes it on to name a later bad line
        text = f"+1 1:1\n-1 {bound}:1\n+1 2:nan\n"
        assert data_error(load_libsvm, write(tmp_path, text)) == (
            "line 3: feature 2 has non-finite value nan")

    def test_no_data_lines(self, tmp_path):
        for text in ("", "# only a comment\n\n"):
            path = write(tmp_path, text)
            assert data_error(load_libsvm, path) == data_error(reference_load_libsvm, path)

    @given(lengths=st.lists(st.one_of(st.integers(1, 300), st.sampled_from([7, 8, 9, 128, 129])),
                            min_size=1, max_size=30),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_grouped_row_norms_match_per_row_loop(self, lengths, seed):
        rng = np.random.default_rng(seed)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        data = rng.choice([-1.0, 1.0], size=indptr[-1]) * 10.0 ** rng.uniform(-300, 300,
                                                                                indptr[-1])
        indices = np.concatenate([np.arange(k) for k in lengths])
        ds = SparseDataset(sp.csr_matrix((data, indices, indptr)), np.ones(len(lengths)))
        ref = reference_row_norms(indptr, data)
        assert ds.row_norms.tobytes() == ref.tobytes()


def column_layout_product(ds, alpha):
    """``X^T alpha`` from a sorted CSC copy of the matrix, the product of the
    two-layout dataset."""
    csc = sp.csc_matrix(ds._csr)
    csc.sort_indices()
    return csc.T @ alpha


def signed_alpha(rng, n):
    """Duals over 12 decades with a share of exact zeros and negative zeros."""
    alpha = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-6, 6, n)
    alpha[rng.random(n) < 0.3] = 0.0
    alpha[rng.random(n) < 0.2] = -0.0
    return alpha


class TestRmatvec:
    """``X^T alpha`` from the row layout, bit for bit as from a column layout."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           d=st.sampled_from([1, 2, 7, 60, 5000]), per_row=st.integers(1, 9),
           shared_col=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_column_layout(self, seed, n, d, per_row, shared_col):
        rng = np.random.default_rng(seed)
        rows, cols = [], []
        common = int(rng.integers(d))
        for i in range(n):
            row = set(rng.choice(d, size=min(per_row, d), replace=False).tolist())
            if shared_col:
                row.add(common)  # one column present in every row
            rows += [i] * len(row)
            cols += sorted(row)
        vals = rng.choice([-1.0, 1.0], size=len(cols)) * 10.0 ** rng.uniform(-6, 6, len(cols))
        ds = SparseDataset(sp.csr_matrix((vals, (rows, cols)), shape=(n, d)), np.ones(n))
        for _ in range(3):
            alpha = signed_alpha(rng, n)
            got, want = ds.rmatvec(alpha), column_layout_product(ds, alpha)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_loaded_file_matches_column_layout(self, tmp_path):
        path = tmp_path / "wide.svm"
        synth(n=300, d=400, sparsity=0.05, dual_skew=0.5, seed=11, out_path=str(path))
        rng = np.random.default_rng(3)
        for source in (path, example_path()):
            for normalize in (False, True):
                ds = load_libsvm(source, normalize=normalize)
                for _ in range(20):
                    alpha = signed_alpha(rng, ds.n)
                    got = ds.rmatvec(alpha)
                    want = column_layout_product(ds, alpha)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestRowColDuality:
    def test_row_norms_match_recomputation(self):
        ds = make_dataset(25, 9, seed=8)
        for i in range(ds.n):
            _, vals = ds.row(i)
            ref = np.linalg.norm(vals)
            assert abs(ds.row_norms[i] - ref) <= 1e-12 * ref


def _int64_csr(matrix):
    csr = sp.csr_matrix(matrix)
    csr.indptr, csr.indices = csr.indptr.astype(np.int64), csr.indices.astype(np.int64)
    assert csr.indices.dtype == csr.indptr.dtype == np.int64  # scipy >= 1.10 keeps them
    return csr


class TestIndexArrays:
    """Read-only ``np.intp`` index arrays from every input, and summed duplicates."""

    @pytest.mark.parametrize("make", [sp.csr_matrix, _int64_csr, sp.coo_matrix, np.asarray],
                             ids=["int32 csr", "int64 csr", "coo", "dense"])
    def test_constructor_inputs(self, make):
        dense = np.array([[0.0, 2.5, 0.0, -1.0], [3.0, 0.0, 0.0, 0.0], [0.0, 0.5, 4.0, 0.0]])
        ds = SparseDataset(make(dense), np.ones(3))
        self._check(ds)
        assert np.array_equal(ds._csr.toarray(), dense)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_loader(self, tmp_path, normalize):
        self._check(load_libsvm(write(tmp_path, "+1 2:2.5 4:-1\n-1 1:3\n+1 2:0.5 3:4\n"),
                                normalize=normalize))

    @staticmethod
    def _check(ds):
        indptr, indices, _ = ds.csr_arrays()
        assert indptr is ds._csr.indptr and indices is ds._csr.indices
        for arr in (indptr, indices):
            assert arr.dtype == np.intp and not arr.flags.writeable
        for i in range(ds.n):
            cols, _ = ds.row(i)
            assert cols.dtype == np.intp and not cols.flags.writeable
            assert np.shares_memory(cols, indices)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rmatvec_reads_the_row_layout(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(30, 12)) * (rng.random((30, 12)) < 0.4)
        dense[np.arange(30), rng.integers(12, size=30)] = 1.5  # no empty row
        ds = SparseDataset(sp.csr_matrix(dense), np.ones(30))
        # the transpose holds the CSR's own intp arrays: nothing is cast per call
        for mine, theirs in zip((ds._csc_t.data, ds._csc_t.indices, ds._csc_t.indptr),
                                ds.csr_arrays()[::-1]):
            assert mine is theirs or np.shares_memory(mine, theirs)
        assert ds._csc_t.indices.dtype == ds._csc_t.indptr.dtype == np.intp
        alpha = rng.normal(size=30) * (rng.random(30) < 0.5)  # with exact zeros
        assert ds.rmatvec(alpha).tobytes() == (ds._csr.T @ alpha).tobytes()
        assert ds._csc_t.indices.dtype == np.intp

    def test_duplicate_entries_are_summed(self):
        matrix = sp.csr_matrix((np.array([3.0, 4.0, 1.0]), np.array([0, 0, 1]),
                                np.array([0, 2, 3])), shape=(2, 2))
        ds = SparseDataset(matrix, np.ones(2))
        assert ds.nnz == 2
        cols, vals = ds.row(0)
        assert cols.tolist() == [0] and vals.tolist() == [7.0]
        assert ds.row_norms[0] == ds.matvec(np.array([1.0, 0.0]))[0] == 7.0

    def test_duplicates_summing_to_zero_empty_the_row(self):
        matrix = sp.csr_matrix((np.array([3.0, -3.0, 1.0]), np.array([0, 0, 1]),
                                np.array([0, 2, 3])), shape=(2, 2))
        with pytest.raises(DataError, match="instance 0 has zero norm"):
            SparseDataset(matrix, np.ones(2))

    def test_label_count_must_match_instance_count(self):
        with pytest.raises(DataError, match=r"label count \(2,\) does not match "
                                            r"instance count 3"):
            SparseDataset(sp.csr_matrix(np.eye(3)), np.ones(2))


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

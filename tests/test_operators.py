"""Measurement operators against a dense sensing-matrix oracle.

Every family must satisfy the adjoint chain

    <A(u v*), z> = u* G v   where  G = adjoint(z),

evaluated three ways: through apply_rank_one, through left_apply_adjoint,
and through right_apply_adjoint.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchycgm import (
    CodedDiffractionOperator,
    DimensionMismatch,
    EntrySamplingOperator,
    IndexOutOfRange,
    ParseError,
    entry_sampling_from_file,
    read_triples,
    write_triples,
)
from helpers import adjoint_via_dense, dense_sensing_matrix, random_mask


def _rand_vec(rng, size, complex_field):
    if complex_field:
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)
    return rng.standard_normal(size)


def _check_adjoint_chain(op, rng, trials=5, tol=1e-12):
    complex_field = op.field == np.complex128
    for _ in range(trials):
        u = _rand_vec(rng, op.m, complex_field)
        v = _rand_vec(rng, op.n, complex_field)
        z = _rand_vec(rng, op.d, complex_field)
        s1 = np.vdot(op.apply_rank_one(u, v), z)
        s2 = op.left_apply_adjoint(z, u) @ v
        s3 = np.vdot(u, op.right_apply_adjoint(z, v))
        scale = max(abs(s1), 1.0)
        assert abs(s1 - s2) <= tol * scale
        assert abs(s1 - s3) <= tol * scale


def _check_against_dense(op, rng, tol=1e-12):
    A = dense_sensing_matrix(op)
    complex_field = op.field == np.complex128
    u = _rand_vec(rng, op.m, complex_field)
    v = _rand_vec(rng, op.n, complex_field)
    X = np.outer(u, np.conj(v))
    np.testing.assert_allclose(op.apply_rank_one(u, v), A @ X.ravel(), atol=tol)
    z = _rand_vec(rng, op.d, complex_field)
    G = adjoint_via_dense(op, z)
    np.testing.assert_allclose(op.right_apply_adjoint(z, v), G @ v, atol=tol)
    np.testing.assert_allclose(op.left_apply_adjoint(z, u), u.conj() @ G, atol=tol)


class TestEntrySampling:
    def test_known_values(self):
        op = EntrySamplingOperator(2, 3, [0, 1, 1], [2, 0, 1])
        got = op.apply_rank_one([1.0, 2.0], [3.0, 4.0, 5.0])
        # u[rows] * v[cols] by hand
        np.testing.assert_array_equal(got, [5.0, 6.0, 8.0])

    def test_adjoint_chain(self):
        rng = np.random.default_rng(0)
        rows, cols = random_mask(rng, 7, 5, 0.4)
        _check_adjoint_chain(EntrySamplingOperator(7, 5, rows, cols), rng)

    def test_against_dense(self):
        rng = np.random.default_rng(1)
        rows, cols = random_mask(rng, 6, 4, 0.5)
        _check_against_dense(EntrySamplingOperator(6, 4, rows, cols), rng)

    @pytest.mark.parametrize(
        "rows, cols, run_rows, run_lengths",
        [
            ([0, 0, 1, 1, 1, 3], [0, 2, 1, 2, 3, 0], [0, 1, 3], [2, 3, 1]),
            ([0, 1, 0, 2, 1], [0, 1, 2, 3, 3], [0, 1, 0, 2, 1], [1, 1, 1, 1, 1]),
            ([3, 1, 0, 4, 2], [1, 3, 0, 2, 2], [3, 1, 0, 4, 2], [1, 1, 1, 1, 1]),
            ([4, 4, 4, 0], [0, 3, 1, 1], [4, 0], [3, 1]),
        ],
        ids=["row-grouped", "interleaved", "one-per-row", "empty-rows"],
    )
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_row_runs_against_dense(self, rows, cols, run_rows, run_lengths, complex_input):
        op = EntrySamplingOperator(5, 4, rows, cols)
        np.testing.assert_array_equal(op.run_rows, run_rows)
        np.testing.assert_array_equal(op.run_lengths, run_lengths)
        np.testing.assert_array_equal(op.rows, rows)
        rng = np.random.default_rng(len(run_rows))
        u, v = rng.standard_normal(5), rng.standard_normal(4)
        z = rng.standard_normal(op.d)
        if complex_input:
            # a real-field operator refuses a complex vector in every slot
            cu, cv, cz = u + 1j * u, v + 1j * v, z + 1j * z
            calls = [
                lambda: op.apply_rank_one(cu, v),
                lambda: op.apply_rank_one(u, cv),
                lambda: op.left_apply_adjoint(cz, u),
                lambda: op.left_apply_adjoint(z, cu),
                lambda: op.right_apply_adjoint(cz, v),
                lambda: op.right_apply_adjoint(z, cv),
            ]
            for call in calls:
                with pytest.raises(DimensionMismatch, match="complex"):
                    call()
            return
        A = dense_sensing_matrix(op)
        G = adjoint_via_dense(op, z)
        X = np.outer(u, np.conj(v))
        np.testing.assert_allclose(op.apply_rank_one(u, v), A @ X.ravel(), atol=1e-12)
        np.testing.assert_allclose(op.right_apply_adjoint(z, v), G @ v, atol=1e-12)
        np.testing.assert_allclose(op.left_apply_adjoint(z, u), u.conj() @ G, atol=1e-12)

    def test_real_input_is_computed_in_float64(self):
        op = EntrySamplingOperator(2, 3, [0, 1, 1], [2, 0, 1])
        z = np.array([1.0, 2.0, 3.0])
        for got in (
            op.apply_rank_one(np.array([1, 2]), np.array([3, 4, 5], dtype=np.float32)),
            op.left_apply_adjoint(z, np.array([1, 2])),
            op.right_apply_adjoint(z, np.array([1, 2, 3], dtype=np.float32)),
        ):
            assert got.dtype == np.float64
        np.testing.assert_array_equal(op.left_apply_adjoint(z, [1, 2]), [4.0, 6.0, 1.0])

    def test_row_grouped_ledger_charge(self):
        # columns plus three scalars per row run, below the 2d of stored row and column indices
        rng = np.random.default_rng(4)
        rows, cols = random_mask(rng, 20, 30, 0.5)
        order = np.lexsort((cols, rows))
        op = EntrySamplingOperator(20, 30, rows[order], cols[order])
        assert op.scalars == op.d + 3 * np.unique(rows).size
        assert op.scalars < 2 * op.d

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EntrySamplingOperator(3, 3, [0, 0], [1, 1])
        with pytest.raises(ValueError, match="duplicate"):
            EntrySamplingOperator(3, 3, [2, 0, 1, 0], [1, 2, 0, 2])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            EntrySamplingOperator(3, 3, [0, 3], [0, 0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            EntrySamplingOperator(3, 3, [0, 1], [0])

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(2, 8),
        n=st.integers(2, 8),
    )
    def test_adjoint_chain_property(self, seed, m, n):
        rng = np.random.default_rng(seed)
        rows, cols = random_mask(rng, m, n, 0.5)
        op = EntrySamplingOperator(m, n, rows, cols)
        _check_adjoint_chain(op, rng, trials=2)


class TestCodedDiffraction:
    def test_measurement_dims(self):
        op = CodedDiffractionOperator(8, 3, seed=0)
        assert (op.m, op.n, op.d) == (8, 8, 24)
        assert op.field == np.complex128

    def test_adjoint_chain(self):
        rng = np.random.default_rng(2)
        _check_adjoint_chain(CodedDiffractionOperator(6, 3, seed=11), rng)

    def test_against_dense(self):
        rng = np.random.default_rng(3)
        _check_against_dense(CodedDiffractionOperator(5, 2, seed=7), rng)

    def test_real_input_equals_its_complex_embedding(self):
        # a complex-field operator takes real vectors as they are
        op = CodedDiffractionOperator(6, 3, seed=2)
        rng = np.random.default_rng(8)
        u, v, z = (rng.standard_normal(size) for size in (6, 6, op.d))
        cu, cv, cz = (x.astype(complex) for x in (u, v, z))
        pairs = [
            (op.apply_rank_one(u, v), op.apply_rank_one(cu, cv)),
            (op.left_apply_adjoint(z, u), op.left_apply_adjoint(cz, cu)),
            (op.right_apply_adjoint(z, v), op.right_apply_adjoint(cz, cv)),
        ]
        for real_in, complex_in in pairs:
            np.testing.assert_allclose(real_in, complex_in, atol=1e-14)

    def test_view_energy_is_modulated_signal_energy(self):
        # Each view is a unitary DFT of the modulated signal, so the
        # measurements of x x* summed within one view equal the energy of
        # the modulated signal in that view.
        op = CodedDiffractionOperator(16, 4, seed=5)
        rng = np.random.default_rng(4)
        x = _rand_vec(rng, 16, True)
        b = op.psd_measure(x)
        per_view = b.reshape(4, 16).sum(axis=1)
        expect = np.abs(op.modulations * x[None, :]) ** 2
        np.testing.assert_allclose(per_view, expect.sum(axis=1), rtol=1e-12)

    def test_psd_measure_matches_dense(self):
        op = CodedDiffractionOperator(5, 2, seed=9)
        rng = np.random.default_rng(5)
        u = _rand_vec(rng, 5, True)
        X = np.outer(u, u.conj())
        b = op.psd_measure(u)
        assert b.dtype == np.float64
        A = dense_sensing_matrix(op)
        np.testing.assert_allclose(b, (A @ X.ravel()).real, atol=1e-12)

    @pytest.mark.parametrize("n, views", [(8, 3), (8192, 10)])
    def test_one_sensing_for_u_u_star_rounds_like_two(self, n, views):
        # u u* senses u once; a copy of u takes the two-sensing path
        op = CodedDiffractionOperator(n, views, seed=4)
        u = _rand_vec(np.random.default_rng(6), n, True)
        np.testing.assert_array_equal(op.apply_rank_one(u, u), op.apply_rank_one(u, u.copy()))

    def test_seed_determinism(self):
        a = CodedDiffractionOperator(8, 2, seed=3)
        b = CodedDiffractionOperator(8, 2, seed=3)
        np.testing.assert_array_equal(a.modulations, b.modulations)

    @pytest.mark.parametrize("n, views, seed", [(8, 3, 0), (33, 5, 1), (64, 10, 2)])
    @pytest.mark.parametrize("complex_z", [False, True])
    def test_fused_adjoints_round_like_the_composition(self, n, views, seed, complex_z):
        # the one-buffer adjoints give the sense/adjoint composition bit for bit
        op = CodedDiffractionOperator(n, views, seed=seed)
        rng = np.random.default_rng(seed)
        z = _rand_vec(rng, op.d, complex_z)
        for x in (_rand_vec(rng, n, True), _rand_vec(rng, n, False)):
            np.testing.assert_array_equal(
                op.right_apply_adjoint(z, x), op._sense_adjoint(z * op._sense(x))
            )
            np.testing.assert_array_equal(
                op.left_apply_adjoint(z, x),
                np.conj(op._sense_adjoint(np.conj(z) * op._sense(x))),
            )

    def test_modulation_magnitudes(self):
        op = CodedDiffractionOperator(64, 8, seed=1)
        mags = np.abs(op.modulations).ravel()
        lo, hi = np.sqrt(2.0) / 2.0, np.sqrt(3.0)
        assert np.all(
            np.isclose(mags, lo, atol=1e-12) | np.isclose(mags, hi, atol=1e-12)
        )


class TestPsdMeasureContract:
    def test_needs_square_domain(self):
        op = EntrySamplingOperator(2, 3, [0], [0])
        with pytest.raises(DimensionMismatch):
            op.psd_measure(np.ones(3))


class TestTriplesIO:
    def test_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "obs.txt")
        rows = np.array([0, 2, 5])
        cols = np.array([1, 0, 3])
        vals = np.array([1.5, -2.25, 0.125])
        write_triples(path, rows, cols, vals)
        r, c, v = read_triples(path)
        np.testing.assert_array_equal(r, rows)
        np.testing.assert_array_equal(c, cols)
        np.testing.assert_array_equal(v, vals)

    def test_file_is_one_based(self, tmp_path):
        path = os.path.join(tmp_path, "obs.txt")
        write_triples(path, [0], [0], [3.0])
        with open(path) as fh:
            first = fh.readline().split()
        assert first[:2] == ["1", "1"]

    def test_parse_error_reports_line(self, tmp_path):
        path = os.path.join(tmp_path, "bad.txt")
        with open(path, "w") as fh:
            fh.write("1 1 2.0\n")
            fh.write("2 oops 1.0\n")
        with pytest.raises(ParseError) as exc:
            read_triples(path)
        assert exc.value.line == 2

    def test_entry_sampling_from_file_infers_shape(self, tmp_path):
        path = os.path.join(tmp_path, "obs.txt")
        write_triples(path, [0, 4], [2, 1], [1.0, 2.0])
        op, values = entry_sampling_from_file(path)
        assert (op.m, op.n) == (5, 3)
        np.testing.assert_array_equal(values, [1.0, 2.0])

    def test_entry_sampling_from_file_is_row_major(self, tmp_path):
        path = os.path.join(tmp_path, "obs.txt")
        rng = np.random.default_rng(9)
        rows, cols = random_mask(rng, 6, 5, 0.5)
        vals = rng.standard_normal(rows.size)
        write_triples(path, rows, cols, vals)
        op, values = entry_sampling_from_file(path, m=6, n=5)
        assert np.all(np.diff(op.rows * op.n + op.cols) > 0)
        loaded = zip(op.rows.tolist(), op.cols.tolist(), values.tolist())
        assert sorted(loaded) == sorted(zip(rows.tolist(), cols.tolist(), vals.tolist()))

    def test_entry_sampling_from_file_explicit_shape(self, tmp_path):
        path = os.path.join(tmp_path, "obs.txt")
        write_triples(path, [0, 1], [0, 1], [1.0, 2.0])
        op, _ = entry_sampling_from_file(path, m=10, n=7)
        assert (op.m, op.n) == (10, 7)
        with pytest.raises(IndexOutOfRange):
            entry_sampling_from_file(path, m=1, n=7)

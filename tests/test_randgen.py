"""Generator contracts: determinism, moments, sphere geometry, CSV ingestion."""

import numpy as np
import pytest

from rmt_equiv import randgen
from rmt_equiv.errors import DatasetError


class TestGaussianMatrix:
    def test_same_seed_identical(self):
        a = randgen.gaussian_matrix(2, 2, 7)
        b = randgen.gaussian_matrix(2, 2, 7)
        assert np.array_equal(a.entries, b.entries)

    def test_different_seed_differs(self):
        a = randgen.gaussian_matrix(4, 4, 7)
        b = randgen.gaussian_matrix(4, 4, 8)
        assert not np.array_equal(a.entries, b.entries)

    def test_mean_clt_bound(self):
        # CLT: sample mean of 10^6 unit-variance entries is within 4/1000 of 0
        X = randgen.gaussian_matrix(1000, 1000, 3)
        assert abs(X.entries.mean()) < 4e-3

    def test_column_norm_concentration(self):
        # chi-square concentration: a column's norm is near sqrt(512)
        X = randgen.gaussian_matrix(512, 512, 11)
        norms = np.linalg.norm(X.entries, axis=0) / np.sqrt(512)
        assert np.abs(norms - 1.0).max() < 0.2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            randgen.gaussian_matrix(0, 3, 0)

    def test_same_values_as_generator_standard_normal(self):
        X = randgen.gaussian_matrix(30, 20, 9)
        want = np.random.default_rng(9).standard_normal((30, 20))
        assert np.array_equal(X.entries, want)

    def test_variance_contract(self):
        X = randgen.gaussian_matrix(1000, 1000, 5)
        pn = X.entries.size
        assert abs(X.entries.var() - 1.0) < 4 / np.sqrt(pn)


class TestStream:
    def test_distinct_keys_draw_distinct_values(self):
        # neighbouring seeds too: seed s + 1 must not replay a key of seed s
        keys = [(seed, role, point, trial) for seed in (11, 12) for role in range(3)
                for point in range(4) for trial in range(4)]
        draws = [randgen.stream(*key).standard_normal(4) for key in keys]
        # the plain seed stream, which a sweep's first draw used to share
        draws.append(np.random.default_rng(11).standard_normal(4))
        assert len({tuple(v) for v in draws}) == len(draws)

    def test_same_key_same_stream(self):
        a = randgen.stream(5, 2, 3, 4).standard_normal(8)
        assert np.array_equal(a, randgen.stream(5, 2, 3, 4).standard_normal(8))


class TestLaguerreBidiagonal:
    def test_draws_a_then_s(self):
        a, s = randgen.laguerre_bidiagonal(np.random.default_rng(3), 4, 6)
        rng = np.random.default_rng(3)
        assert np.array_equal(a, np.sqrt(rng.chisquare([6, 5, 4, 3])))
        assert np.array_equal(s, np.sqrt(rng.chisquare([3, 2, 1])))

    def test_order_one_has_no_subdiagonal(self):
        a, s = randgen.laguerre_bidiagonal(np.random.default_rng(3), 1, 5)
        assert a.shape == (1,) and s.shape == (0,)


class TestGaussianProduct:
    # the shipped ck-depth shape, the ck-depth memory test's shapes (width
    # 4096, k = 16 or 64, n = 64), rows below one block, and rows = 1 mod 512,
    # whose equal blocks keep a last block of one row away from gemv
    @pytest.mark.parametrize("rows, k, n", [
        (8192, 256, 256), (4096, 16, 64), (4096, 64, 64), (1, 8, 5), (300, 12, 12),
        (512, 64, 64), (513, 64, 64), (1025, 16, 64), (4097, 64, 64), (8193, 256, 256)])
    def test_same_bits_and_stream_as_the_whole_draw(self, rows, k, n):
        M = np.random.default_rng(1).standard_normal((k, n))
        rng = np.random.default_rng(2)
        got = randgen.gaussian_product(rng, rows, M)
        want_rng = np.random.default_rng(2)
        want = want_rng.standard_normal((rows, k)) @ M
        assert np.array_equal(got, want)
        assert rng.standard_normal() == want_rng.standard_normal()

    @pytest.mark.parametrize("rows, sizes", [
        (512, [512]), (513, [256, 257]), (1025, [341, 342, 342]), (4096, [512] * 8)])
    def test_equal_blocks_of_at_most_512_rows(self, rows, sizes):
        drawn = []

        class Spy:
            def standard_normal(self, shape):
                drawn.append(shape[0])
                return np.zeros(shape)

        randgen.gaussian_product(Spy(), rows, np.eye(3))
        assert drawn == sizes


class TestRademacherMatrix:
    def test_support(self):
        X = randgen.rademacher_matrix(64, 64, 0)
        assert set(np.unique(X.entries)) == {-1.0, 1.0}

    def test_exact_unit_variance(self):
        X = randgen.rademacher_matrix(32, 32, 1)
        assert np.all(X.entries**2 == 1.0)

    def test_determinism(self):
        a = randgen.rademacher_matrix(8, 8, 42)
        b = randgen.rademacher_matrix(8, 8, 42)
        assert np.array_equal(a.entries, b.entries)

    def test_square_scm_matches_mp_law(self):
        # ESD of (1/n) X X^T at p = n = 1024 vs the c = 1 law
        from rmt_equiv.det_equiv import mp_cdf
        from rmt_equiv.spectral import ks_distance

        X = randgen.rademacher_matrix(1024, 1024, 6).entries
        lam = np.linalg.eigvalsh(X @ X.T / 1024)
        assert ks_distance(lam, mp_cdf(1.0)) <= 0.05


class TestSphereDataset:
    def test_unit_norms(self):
        X = randgen.sphere_dataset(16, 40, 0)
        assert np.abs(np.linalg.norm(X.entries, axis=0) - 1.0).max() < 1e-12

    def test_mean_inner_product(self):
        X = randgen.sphere_dataset(512, 256, 1)
        G = X.entries.T @ X.entries
        off = G[~np.eye(256, dtype=bool)]
        assert abs(off.mean()) < 3 / np.sqrt(512)

    def test_inner_product_variance(self):
        # Var(x_i . x_j) = 1/p for sphere pairs
        X = randgen.sphere_dataset(512, 256, 2)
        G = X.entries.T @ X.entries
        off = G[~np.eye(256, dtype=bool)]
        assert abs(off.var() - 1 / 512) < 0.2 / 512

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            randgen.sphere_dataset(1, 5, 0)


class TestLinearTargets:
    def test_noiseless(self):
        X = randgen.sphere_dataset(8, 12, 0)
        truth = randgen.GroundTruth(np.arange(8.0), 0.0)
        y = randgen.linear_targets(X, truth, 5)
        assert np.allclose(y, X.entries.T @ truth.beta_star, atol=0)

    def test_pure_noise_variance(self):
        n = 40_000
        X = randgen.gaussian_matrix(2, n, 0)
        truth = randgen.GroundTruth(np.zeros(2), 1.0)
        y = randgen.linear_targets(X, truth, 9)
        assert abs(y.var() - 1.0) < 4 / np.sqrt(n)

    def test_determinism(self):
        X = randgen.gaussian_matrix(4, 6, 0)
        truth = randgen.GroundTruth(np.ones(4), 0.5)
        assert np.array_equal(randgen.linear_targets(X, truth, 3),
                              randgen.linear_targets(X, truth, 3))

    def test_dimension_mismatch(self):
        X = randgen.gaussian_matrix(4, 6, 0)
        truth = randgen.GroundTruth(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            randgen.linear_targets(X, truth, 0)


class TestIngestDataset:
    def _write(self, tmp_path, text, name="data.csv"):
        f = tmp_path / name
        f.write_text(text, encoding="utf-8")
        return str(f)

    def test_label_filtering(self, tmp_path):
        path = self._write(tmp_path, "1,0.5,0.5\n2,1,0\n3,0,1\n")
        X, y = randgen.ingest_dataset(path, {1})
        assert X.n == 1 and np.array_equal(y, [1.0])

    def test_two_class_pm1(self, tmp_path):
        path = self._write(tmp_path, "2,1,0\n1,0,1\n2,1,1\n")
        X, y = randgen.ingest_dataset(path, {1, 2})
        assert np.array_equal(y, [1.0, -1.0, 1.0])

    def _random_rows(self, tmp_path):
        # 60 samples of 12 features whose scales span 1e-3 to 1e3, written
        # with every digit, so the normalization's rounding is exercised
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((60, 12)) * np.logspace(-3, 3, 12)
        return self._write(tmp_path, "".join(
            "1," + ",".join(map(repr, row)) + "\n" for row in feats.tolist()), "random.csv")

    def test_unit_sphere_normalization(self, tmp_path):
        for path in (self._write(tmp_path, "1,3,4\n1,1,1\n"), self._random_rows(tmp_path)):
            X, _ = randgen.ingest_dataset(path, {1})
            assert np.abs(np.linalg.norm(X.entries, axis=0) - 1.0).max() < 1e-12

    def test_zero_sample_rejected(self, tmp_path):
        # the label-3 row is filtered out, so the zero sample is filtered sample 1
        path = self._write(tmp_path, "1,0.5,0.5\n3,1,1\n1,0,0\n1,1,2\n")
        with pytest.raises(DatasetError,
                           match=r"^filtered sample 1 \(0-based\) has norm 0$"):
            randgen.ingest_dataset(path, {1})
        X, _ = randgen.ingest_dataset(path, {3})  # a zero row left out
        assert X.n == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            randgen.ingest_dataset(str(tmp_path / "nope.csv"), {1})

    def test_malformed_row_reports_index(self, tmp_path):
        path = self._write(tmp_path, "1,0.5,0.5\n1,oops,3\n")
        with pytest.raises(DatasetError, match="^row 2: "):
            randgen.ingest_dataset(path, {1})

    def test_empty_filter_result(self, tmp_path):
        path = self._write(tmp_path, "1,0.5,0.5\n")
        with pytest.raises(DatasetError, match=r"^no rows with labels \[9\]"):
            randgen.ingest_dataset(path, {9})

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        path = self._write(tmp_path, f"1,0.5,0.5\n1,{value},3\n")
        with pytest.raises(DatasetError, match="^row 2: non-finite feature$"):
            randgen.ingest_dataset(path, {1})

    def test_header_skip(self, tmp_path):
        path = self._write(tmp_path, "label,f1,f2\n1,0.5,0.5\n")
        X, _ = randgen.ingest_dataset(path, {1}, header=True)
        assert X.n == 1

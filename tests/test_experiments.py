import contextlib
import io
import math
import re
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import liftlab as ll
from liftlab import characterization, experiments, fileio
from liftlab.cli import dispatch
from liftlab.errors import InvalidParameterError, SizeLimitError
from liftlab.fileio import experiment_report_csv, experiment_report_text

from oracles import (
    bfs_components,
    brute_force_signing_min_radius,
    dense_half_root_radii,
    dense_root_radii,
    dense_scored_growth,
    dense_split_lambda_new,
    k4_top_radius_rate,
    lemma3_size_pair_list,
    lemma4_size_list,
    spanning_tree_free_edges,
)


class TestSeedDerivation:
    def test_splitmix64_reference_vectors(self):
        # published outputs of splitmix64 for consecutive seeds 0 and 1
        assert ll.splitmix64(0) == 0xE220A8397B1DCDAF
        assert ll.splitmix64(1) == 0x910A2DEC89025CC1

    def test_trial_seed_is_xor_of_mixed_index(self):
        assert ll.trial_seed(0, 5) == ll.splitmix64(5)
        assert ll.trial_seed(123, 5) == 123 ^ ll.splitmix64(5)

    def test_trial_seeds_distinct(self):
        seeds = {ll.trial_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestExperimentConfig:
    def test_two_lift_requires_k2(self):
        with pytest.raises(InvalidParameterError):
            ll.ExperimentConfig("complete 4", 3, 10, 0, (1.0,), "two_lift")

    def test_unknown_mode(self):
        with pytest.raises(InvalidParameterError):
            ll.ExperimentConfig("complete 4", 2, 10, 0, (1.0,), "three_lift")

    def test_trials_positive(self):
        with pytest.raises(InvalidParameterError):
            ll.ExperimentConfig("complete 4", 2, 0, 0, (1.0,), "two_lift")

    @pytest.mark.parametrize("constants", [(float("nan"),), (1.0, float("nan")), (-0.5,),
                                           (float("inf"),), (1.0, float("inf"))])
    def test_nan_negative_or_infinite_constants_rejected(self, constants):
        # a NaN constant once wrote `lambda + nan*sqrt(d) = 0.0` into the report
        with pytest.raises(InvalidParameterError,
                           match="^bound constants must be finite and nonnegative$"):
            ll.ExperimentConfig("complete 4", 2, 10, 0, constants, "two_lift")

    def test_resolve_base_specs(self):
        cases = {
            "complete 4": (4, 3),
            "complete_bipartite 3": (6, 3),
            "cycle 9": (9, 2),
            "random_regular 20 3 5": (20, 3),
        }
        for base, (n, d) in cases.items():
            cfg = ll.ExperimentConfig(base, 2, 1, 0, (1.0,), "two_lift")
            g = ll.resolve_base_graph(cfg)
            assert (g.n, g.d) == (n, d)

    def test_resolve_with_copies(self):
        cfg = ll.ExperimentConfig("complete 4", 2, 1, 0, (1.0,), "two_lift",
                                  copies=25)
        g = ll.resolve_base_graph(cfg)
        assert (g.n, g.d) == (100, 3)

    def test_resolve_rejects_garbage(self):
        for base in ("petersen 10", "complete", "complete x", "random_regular 10 3"):
            cfg = ll.ExperimentConfig(base, 2, 1, 0, (1.0,), "two_lift")
            with pytest.raises(InvalidParameterError):
                ll.resolve_base_graph(cfg)


class TestRunLiftTrials:
    def test_k2_two_lifts_always_have_lambda_new_one(self):
        cfg = ll.ExperimentConfig("complete 2", 2, 25, 7, (1.0, 2.0), "two_lift")
        report = ll.run_lift_trials(cfg)
        assert report.failed == 0
        assert all(r.lambda_new == pytest.approx(1.0, abs=1e-9)
                   for r in report.records)

    def test_reports_are_deterministic(self):
        cfg = ll.ExperimentConfig("random_regular 20 3 4", 2, 12, 99,
                                  (1.0, 2.0, 3.0), "two_lift")
        first = experiment_report_text(ll.run_lift_trials(cfg))
        second = experiment_report_text(ll.run_lift_trials(cfg))
        assert first == second

    def test_parallel_execution_matches_serial(self):
        cfg = ll.ExperimentConfig("random_regular 16 3 2", 4, 10, 42,
                                  (1.0, 3.0), "shift_lift")
        serial = ll.run_lift_trials(cfg, threads=1)
        parallel = ll.run_lift_trials(cfg, threads=4)
        assert experiment_report_text(serial) == experiment_report_text(parallel)
        assert experiment_report_csv(serial) == experiment_report_csv(parallel)

    def test_fraction_monotone_in_constant(self):
        cfg = ll.ExperimentConfig("random_regular 24 3 8", 2, 30, 17,
                                  (0.0, 0.5, 1.0, 2.0, 4.0), "two_lift")
        report = ll.run_lift_trials(cfg)
        add = [frac for _, frac in report.frac_additive]
        mult = [frac for _, frac in report.frac_multiplicative]
        assert add == sorted(add)
        assert mult == sorted(mult)
        assert all(0.0 <= f <= 1.0 for f in add + mult)

    def test_shift_mode_records_root_radii(self):
        cfg = ll.ExperimentConfig("random_regular 12 3 3", 4, 8, 5, (3.0,),
                                  "shift_lift")
        report = ll.run_lift_trials(cfg)
        assert report.failed == 0
        for record in report.records:
            assert record.root_radii is not None and len(record.root_radii) == 3
            assert record.lambda_new == pytest.approx(max(record.root_radii),
                                                      abs=1e-6)

    def test_quantiles_ordered(self):
        cfg = ll.ExperimentConfig("random_regular 20 4 6", 2, 20, 3, (1.0,),
                                  "two_lift")
        q = dict(ll.run_lift_trials(cfg).quantiles)
        assert q["min"] <= q["q25"] <= q["median"] <= q["q75"] <= q["max"]

    def test_tightness_matches_enumeration_oracle(self):
        # per-component probability that a uniform K_4 signing reaches radius
        # d = 3, from the 64-signing enumeration (both the all-plus and the
        # all-minus switching classes hit 3, so the rate is 1/4)
        rate = k4_top_radius_rate()
        assert rate == pytest.approx(16 / 64)
        copies = 25
        trials = 60
        cfg = ll.ExperimentConfig("complete 4", 2, trials, 11, (1.0,),
                                  "two_lift", copies=copies)
        report = ll.run_lift_trials(cfg)
        assert report.lam == pytest.approx(3.0, abs=1e-9)
        hit = np.mean([r.lambda_new >= 3 - 1e-9 for r in report.records])
        expected = 1.0 - (1.0 - rate) ** copies
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hit - expected) <= 3 * se


def _petersen_line_graph():
    """The line graph of the Petersen graph: 15 vertices, 4-regular, with
    spectrum {4, 2^5, -1^4, -2^5}, so lambda = 2 = sqrt(d) = d / log2(d)."""
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = sorted((a, b) for a, b in combinations(range(15), 2)
                   if set(petersen[a]) & set(petersen[b]))
    return ll.RegularGraph(15, 4, edges)


@pytest.mark.parametrize("lam", [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)])
def test_regime_flags_compare_with_the_stated_slack(lam, monkeypatch):
    # lambda = sqrt(d) = d / log2(d) = 2 exactly: a solver's last bit must
    # not decide either flag
    g = _petersen_line_graph()
    assert abs(ll.lambda_nontrivial_sparse(g) - 2.0) <= 1e-12
    monkeypatch.setattr(experiments, "lambda_nontrivial_sparse", lambda graph: lam)
    cfg = ll.ExperimentConfig("complete 5", 2, 1, 0, (1.0,), "two_lift")  # base unused
    report = ll.run_lift_trials(cfg, graph=g, threads=1)
    assert report.lam == lam and report.failed == 0
    assert report.lambda_above_sqrt_d is False
    assert report.moderately_expanding is True


def trial_assignment(g, cfg, index):
    """The shift assignment a campaign trial samples, rebuilt from its seed."""
    seed = ll.trial_seed(cfg.base_seed, index)
    if cfg.mode == "shift_lift":
        return ll.random_shift_lift(g, cfg.k, seed)
    return ll.signing_to_shifts(ll.random_signing(g, seed))


class TestTrialPathOracle:
    """Campaign values against the dense split of the built lift, which the
    trial path itself never computes."""

    def check_campaign(self, base, k, mode, copies=1, trials=3):
        cfg = ll.ExperimentConfig(base, k, trials, 31 + k, (3.0,), mode,
                                  copies=copies)
        g = ll.resolve_base_graph(cfg)
        report = ll.run_lift_trials(cfg)
        assert report.failed == 0, [r.error for r in report.records]
        for record in report.records:
            sa = trial_assignment(g, cfg, record.index)
            split = dense_split_lambda_new(g, sa)
            assert abs(record.lambda_new - split) <= 1e-9
            assert abs(ll.lambda_new_from_fibers(g, sa) - split) <= 1e-9
            if mode == "shift_lift":
                assert len(record.root_radii) == k - 1
                assert np.max(np.abs(np.subtract(record.root_radii,
                                                 dense_root_radii(g, sa)))) <= 1e-12
            else:
                assert record.root_radii is None

    @pytest.mark.parametrize("k", range(2, 9))
    def test_shift_mode_k2_to_k8(self, k):
        self.check_campaign("random_regular 20 3 5", k, "shift_lift")

    def test_two_lift_mode(self):
        self.check_campaign("random_regular 40 3 5", 2, "two_lift")

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_bipartite_base_ties_plus_minus(self, k):
        # every lift of K_{8,8} is bipartite: new eigenvalues come in +-pairs
        self.check_campaign("complete_bipartite 8", k, "shift_lift")
        if k == 2:
            self.check_campaign("complete_bipartite 8", 2, "two_lift")

    @pytest.mark.parametrize("mode,k", [("shift_lift", 3), ("shift_lift", 4),
                                        ("two_lift", 2)])
    def test_disjoint_copies_repeat_eigenvalues(self, mode, k):
        self.check_campaign("complete 4", k, mode, copies=10)

    def test_tiny_lift_of_a_single_edge(self):
        # K_2 with k = 2 is a lift of order 4; its new eigenvalue is +-1
        for mode in ("shift_lift", "two_lift"):
            self.check_campaign("complete 2", 2, mode, trials=4)
        sa = ll.ShiftAssignment(2, (1,))
        assert ll.lambda_new_from_fibers(ll.complete_graph(2), sa) == \
            pytest.approx(1.0, abs=1e-12)


class TestLoudFailures:
    @pytest.mark.parametrize("mode,k", [("shift_lift", 3), ("two_lift", 2)])
    def test_wrong_shift_in_fiber_operator_fails_every_trial(
            self, mode, k, monkeypatch, tmp_path):
        # adding 1 mod k to one edge's shift gives a different lift; negating
        # every shift would give the conjugate lift, with the same spectrum
        real = experiments.lambda_new_from_fibers

        def one_edge_off(g, sa):
            shifts = ((sa.shifts[0] + 1) % sa.k,) + sa.shifts[1:]
            return real(g, ll.ShiftAssignment(sa.k, shifts))

        monkeypatch.setattr(experiments, "lambda_new_from_fibers", one_edge_off)
        cfg = ll.ExperimentConfig("random_regular 40 3 2", k, 4, 5, (3.0,), mode)
        report = ll.run_lift_trials(cfg, threads=2)
        assert report.failed == cfg.trials
        text = experiment_report_text(report)
        assert f"failed = {cfg.trials}" in text
        for record in report.records:
            assert record.lambda_new is None
            assert "disagrees with the fiber-projected radius" in record.error
            assert (f"trial {record.index} seed {record.seed} failed lambda_new"
                    in text)

        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"base = random_regular 40 3 2\nmode = {mode}\n"
                            f"k = {k}\ntrials = 4\nseed = 5\n")
        out, csv = tmp_path / "report.txt", tmp_path / "trials.csv"
        assert dispatch(["mc", "--config", str(cfg_path), "--out", str(out),
                         "--csv", str(csv)]) == 3
        assert "failed = 4" in out.read_text()
        assert csv.read_text().splitlines()[1:] == [
            f"{i},{ll.trial_seed(5, i)}," for i in range(4)
        ]

    @pytest.mark.parametrize("mode,k", [("shift_lift", 3), ("two_lift", 2)])
    def test_fiber_operator_without_projection_fails_every_trial(
            self, mode, k, monkeypatch):
        # without P the fiber-constant vectors stay in: the radius is d
        real = characterization._mean_free_radius

        def no_projection(a, blocks, what):
            if what != "the fiber-sum-zero operator":
                return real(a, blocks, what)
            return characterization._lanczos_radius(a, what)

        monkeypatch.setattr(characterization, "_mean_free_radius", no_projection)
        cfg = ll.ExperimentConfig("random_regular 40 3 2", k, 4, 5, (3.0,), mode)
        report = ll.run_lift_trials(cfg, threads=2)
        assert report.failed == cfg.trials
        text = experiment_report_text(report)
        assert f"failed = {cfg.trials}" in text
        for record in report.records:
            assert record.lambda_new is None
            assert "disagrees with the fiber-projected radius" in record.error
            assert float(record.error.split()[-1]) == pytest.approx(3.0, abs=1e-9)

    def test_lanczos_non_convergence_is_a_failed_trial(self, monkeypatch):
        # a top Ritz vector whose last entry is 1 never passes the stop test,
        # so every solve runs to its step cap of 10 * order
        import scipy.linalg.lapack as lapack

        real = lapack.dstemr

        def unconverged(*args, **kwargs):
            found, w, z, info = real(*args, **kwargs)
            z[-1, 0] = 1.0
            return found, w, z, info

        monkeypatch.setattr(lapack, "dstemr", unconverged)
        cfg = ll.ExperimentConfig("random_regular 40 3 2", 4, 2, 5, (3.0,),
                                  "shift_lift")
        report = ll.run_lift_trials(cfg)
        assert report.failed == 2
        assert [r.error for r in report.records] == [
            "base lambda: Lanczos on the base graph did not converge in 400 steps"] * 2
        # the trial alone: roots from a dense stack (order 40), then the
        # fiber check; with every root solved by Lanczos, root 1 first
        g = ll.resolve_base_graph(cfg)
        assert experiments._run_one_trial(g, cfg, 0).error == (
            "Lanczos on the fiber-sum-zero operator did not converge in 1600 steps")
        monkeypatch.setattr(characterization, "_STACKED_MAX_N", 0)
        assert experiments._run_one_trial(g, cfg, 0).error == (
            "Lanczos on root 1 did not converge in 800 steps")


class TestSpotChecks:
    def test_no_violations_on_midsize_graph(self):
        g = ll.random_regular(60, 4, 15)
        for which in ("lemma3", "lemma4"):
            report = ll.lemma_inequality_spot_check(g, 400, 2, which)
            assert not report.not_applicable
            assert report.violations == 0
            assert report.max_ratio <= 1.0

    def test_not_applicable_reported(self):
        report = ll.lemma_inequality_spot_check(ll.complete_graph(2), 10, 0,
                                                "lemma3")
        assert report.not_applicable
        assert report.trials == 0

    def test_unknown_inequality_name(self, k4):
        with pytest.raises(InvalidParameterError):
            ll.lemma_inequality_spot_check(k4, 10, 0, "lemma5")

    def test_trials_below_one_rejected(self, k4):
        # a check over no trials would report 0/0 violations, like a pass
        for trials in (0, -3):
            with pytest.raises(InvalidParameterError, match="trials must be >= 1"):
                ll.lemma_inequality_spot_check(k4, trials, 0, "lemma4")

    # lam = 4 and 2 at n = 60, d = 4 put (n*lam/d)^2 on an integer, so a*b <
    # cap and lo*b >= cap are decided on their boundary; at (2, 1, 0.0) and
    # (100, 3, 0.1) the lemma3 table is empty
    SIZE_GRID = [
        (60, 4, 3.340125366733687), (60, 4, 4.0), (60, 4, 2.0), (12, 3, 2.6),
        (400, 4, 3.5), (1000, 6, 4.410116265019274), (2, 1, 0.0), (100, 3, 0.1),
    ]

    @pytest.mark.parametrize("n,d,lam", SIZE_GRID)
    def test_lemma3_size_ranges_match_the_pair_list(self, n, d, lam):
        rows = experiments._size_table(n, d, lam, "lemma3")
        assert all(col.dtype == np.int64 for col in rows)
        pairs = [(a, b) for b, lo, hi in zip(*map(np.ndarray.tolist, rows))
                 for a in range(lo, hi + 1)]
        assert pairs == lemma3_size_pair_list(n, d, lam)

    @pytest.mark.parametrize("n,d,lam", SIZE_GRID)
    def test_lemma4_size_rows_match_the_per_b_ranges(self, n, d, lam):
        rows = experiments._size_table(n, d, lam, "lemma4")
        assert all(col.dtype == np.int64 for col in rows)
        sizes = []
        for b, lo, hi in zip(*map(np.ndarray.tolist, rows)):
            assert hi == b
            ends = [b // 4**i for i in range(b.bit_length())]  # level i ends at b // 4^i
            sizes.append((b, tuple((lo, end) for end in ends if lo <= end)))
        assert sizes == lemma4_size_list(n, d, lam)

    def test_lemma3_runs_past_5000_vertices(self, tmp_path):
        # both size tables are O(n) rows, so neither lemma has a cap
        g = ll.random_regular(5002, 3, 1)
        path, out = tmp_path / "big.graph", tmp_path / "report"
        fileio.write_graph(g, str(path))
        with contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(["lemma-check", "--graph", str(path), "--which", "lemma3",
                             "--trials", "10", "--out", str(out)]) == 0
        assert "not_applicable = false" in out.read_text().splitlines()
        assert not ll.lemma_inequality_spot_check(g, 2, 0, "lemma4").not_applicable

    def test_sign_sum_mean_zero(self):
        g = ll.random_regular(60, 4, 15)
        u = np.zeros(60)
        v = np.zeros(60)
        u[:20] = 1.0
        v[20:50] = 1.0
        mean, sd, n = ll.sign_sum_stats(g, u, v, 10000, 3)
        assert abs(mean) <= 3 * sd / math.sqrt(n)

    def test_sign_sum_deterministic(self):
        g = ll.random_regular(30, 3, 1)
        u = np.zeros(30)
        v = np.zeros(30)
        u[:10] = 1.0
        v[10:25] = 1.0
        assert ll.sign_sum_stats(g, u, v, 2000, 9) == \
            ll.sign_sum_stats(g, u, v, 2000, 9)

    @pytest.mark.parametrize("draws,u_len,v_len", [
        (0, 30, 30), (-5, 30, 30), (10, 29, 30), (10, 30, 31), (10, 60, 30), (10, 30, 60)])
    def test_sign_sum_rejects_no_draws_and_vectors_not_of_length_n(self, draws, u_len, v_len):
        # draws = 0 divided by zero, draws = -5 returned (-0.0, sd, -5), and a
        # longer vector was read only up to index n - 1
        g = ll.random_regular(30, 3, 1)
        with pytest.raises(InvalidParameterError, match=re.escape(
                f"need draws >= 1 and u, v of shape (30,), got {draws}, ({u_len},), ({v_len},)")):
            ll.sign_sum_stats(g, np.ones(u_len), np.ones(v_len), draws, 9)


class TestSigningSearch:
    def test_k2_has_no_useful_signing(self):
        result = ll.exhaustive_signing_search(ll.complete_graph(2))
        assert result.num_signings == 2
        assert result.min_radius == pytest.approx(1.0)
        assert result.ramanujan_bound == 0.0
        assert not result.within_bound

    def test_k4_minimum_is_sqrt5(self, k4):
        result = ll.exhaustive_signing_search(k4)
        assert result.min_radius == pytest.approx(math.sqrt(5.0), abs=1e-9)
        assert result.within_bound  # sqrt(5) <= 2*sqrt(2)
        radius = ll.spectral_radius(ll.signed_adjacency(k4, result.best))
        assert radius == pytest.approx(result.min_radius, abs=1e-9)

    def test_c4_matches_per_signing_oracle(self):
        g = ll.cycle_graph(4)
        result = ll.exhaustive_signing_search(g)
        oracle = brute_force_signing_min_radius(4, g.edges)
        assert result.min_radius == pytest.approx(oracle, abs=1e-12)
        assert result.min_radius == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_size_cap(self, monkeypatch):
        # 34 edges, 17 vertices, one component: 2**18 classes, one over the cap
        def refuse(*args, **kwargs):
            raise AssertionError("a class was scored before the cap was checked")

        monkeypatch.setattr(experiments, "_root_radii", refuse)
        with pytest.raises(SizeLimitError, match=r"^exhaustive signing search capped at "
                                                 r"2\*\*17 switching classes, got 2\*\*18$"):
            ll.exhaustive_signing_search(ll.random_regular(17, 4, 0))

    def test_vertex_cap(self, monkeypatch):
        # C_49 has 2 switching classes but 49 vertices: refused before scoring
        def refuse(*args, **kwargs):
            raise AssertionError("a class was scored before the cap was checked")

        monkeypatch.setattr(experiments, "_root_radii", refuse)
        with pytest.raises(SizeLimitError, match=r"^exhaustive signing search capped at "
                                                 r"n=48 vertices, got 49$"):
            ll.exhaustive_signing_search(ll.cycle_graph(49))

    def test_largest_admitted_order(self):
        # a perfect matching on 48 vertices: 24 edges, one class, as under |E| <= 24
        g = ll.disjoint_copies(ll.complete_graph(2), experiments.SIGNING_SEARCH_MAX_N // 2)
        result = ll.exhaustive_signing_search(g)
        assert (g.n, result.num_signings, result.num_classes) == (48, 2**24, 1)
        assert result.min_radius == pytest.approx(1.0, abs=1e-12)

    def test_more_edges_than_the_old_edge_cap(self):
        # 30 edges but 2**11 classes: refused while the cap was |E| <= 24
        g = ll.random_regular(20, 3, 1)
        result = ll.exhaustive_signing_search(g)
        assert (result.num_signings, result.num_classes) == (2**30, 2**11)
        radius = ll.spectral_radius(ll.signed_adjacency(g, result.best))
        assert radius == pytest.approx(result.min_radius, abs=1e-12)
        for seed in range(16):
            signing = ll.random_signing(g, seed)
            assert ll.spectral_radius(ll.signed_adjacency(g, signing)) >= result.min_radius - 1e-12

    @pytest.mark.parametrize("g", [
        ll.cycle_graph(5),
        ll.complete_bipartite(3),
        ll.complete_graph(2),
        ll.disjoint_copies(ll.complete_graph(4), 2),
        ll.random_regular(8, 3, 11),
        ll.random_regular(8, 3, 12),
    ], ids=["C5", "K33", "K2", "2xK4", "rr8_3_a", "rr8_3_b"])
    def test_switching_classes_match_per_signing_oracle(self, g):
        result = ll.exhaustive_signing_search(g)
        m, n, c = g.num_edges, g.n, len(bfs_components(g.n, g.edges))
        assert result.num_signings == 2**m
        assert result.num_classes == 2 ** (m - n + c)
        # the n - c edges fixed to +1 reach every component, so they form a forest
        free = set(experiments._switching_free_edges(g))
        fixed = [edge for e, edge in enumerate(g.edges) if e not in free]
        assert len(fixed) == n - c and len(bfs_components(n, fixed)) == c
        oracle = brute_force_signing_min_radius(n, g.edges)
        assert result.min_radius == pytest.approx(oracle, abs=1e-12)
        radius = ll.spectral_radius(ll.signed_adjacency(g, result.best))
        assert radius == pytest.approx(result.min_radius, abs=1e-12)
        # the representative is the smallest code among its 2^n switchings
        signs = np.array(result.best.signs)
        eu, ev = ll.edge_endpoints(g)
        weights = 1 << np.arange(m, dtype=np.int64)
        best_code = int(weights[signs < 0].sum())
        for mask in range(1 << n):
            side = (mask >> np.arange(n)) & 1
            switched = np.where(side[eu] != side[ev], -signs, signs)
            assert best_code <= int(weights[switched < 0].sum())

    def test_search_at_the_edge_cap(self):
        g = ll.random_regular(16, 3, 4)
        assert g.num_edges == 24
        assert experiments._switching_free_edges(g).size <= experiments.SIGNING_SEARCH_CAP
        start = time.perf_counter()
        result = ll.exhaustive_signing_search(g)
        assert time.perf_counter() - start < 2.0
        assert result.num_classes == 2 ** (24 - 16 + 1)
        for seed in range(64):
            signing = ll.random_signing(g, seed)
            radius = ll.spectral_radius(ll.signed_adjacency(g, signing))
            assert radius >= result.min_radius - 1e-12


class TestGreedyGrowth:
    def test_zero_levels_returns_base_record(self, k4):
        traj = ll.greedy_lift_growth(k4, 0, 10, 2, 0)
        assert len(traj.records) == 1
        assert traj.records[0].n == 4
        assert traj.records[0].lambda_new is None
        assert not traj.truncated

    def test_exhaustive_first_level_matches_signing_search(self, k4):
        traj = ll.greedy_lift_growth(k4, 1, 64, 2, 0)
        search = ll.exhaustive_signing_search(k4)
        assert traj.records[1].lambda_new == pytest.approx(search.min_radius,
                                                           abs=1e-9)

    def test_five_level_growth_stays_nearly_ramanujan(self, k4):
        traj = ll.greedy_lift_growth(k4, 5, 50, 2, 3)
        assert traj.records[-1].n == 128
        assert traj.records[-1].lam <= 2 * math.sqrt(2) + 0.2
        sizes = [r.n for r in traj.records]
        assert sizes == [4, 8, 16, 32, 64, 128]

    def test_truncates_at_dense_solver_cap(self, k4):
        big = ll.disjoint_copies(k4, 160)  # n = 640; k = 8 lift would be 5120
        traj = ll.greedy_lift_growth(big, 1, 2, 8, 0)
        assert traj.truncated
        assert len(traj.records) == 1


# (base, levels, samples per level, k, seed); a base "<spec> xN" is N disjoint
# copies. K_{3,3} with 512 samples, K_4 with 729 at k = 3 and 2 x K_4 with
# 4096 run an exhaustive level 1 (one candidate per switching class), and
# the dense oracle scans all k^|E| candidates there; K_{3,3} samples level 2
GROWTH_CONFIGS = [
    ("complete 4", 5, 50, 2, 3),
    ("complete 4", 3, 12, 3, 5),
    ("complete 4", 3, 10, 4, 1),
    ("complete_bipartite 3", 2, 512, 2, 0),
    ("complete_bipartite 3", 4, 20, 2, 0),
    ("random_regular 12 4 5", 3, 20, 2, 7),
    ("cycle 7", 3, 25, 3, 2),
    ("complete 4", 1, 729, 3, 0),
    ("complete 4 x2", 1, 4096, 2, 0),
]


def _growth_base(base: str) -> ll.RegularGraph:
    spec, _, copies = base.partition(" x")
    return ll.resolve_base_graph(
        ll.ExperimentConfig(spec, 2, 1, 0, (), "two_lift", copies=int(copies or 1)))


@pytest.mark.parametrize("base,levels,samples,k,seed", GROWTH_CONFIGS)
def test_root_scored_growth_keeps_the_dense_oracle_lift(base, levels, samples, k, seed,
                                                        monkeypatch):
    g = _growth_base(base)
    kept = []
    build = experiments.build_shift_lift

    def recording_build(graph, sa):
        kept.append(sa)
        return build(graph, sa)

    monkeypatch.setattr(experiments, "build_shift_lift", recording_build)
    traj = ll.greedy_lift_growth(g, levels, samples, k, seed)
    oracle = dense_scored_growth(g, levels, samples, k, seed)
    assert [r.n for r in traj.records] == [n for n, *_ in oracle]
    assert kept == [sa for *_, sa in oracle[1:]]
    assert traj.records[0].lambda_new is None
    for rec, (_, lam, lam_new, _) in zip(traj.records, oracle):
        assert abs(rec.lam - lam) <= 1e-9
        if lam_new is not None:
            assert abs(rec.lambda_new - lam_new) <= 1e-9


class TestMoreGrowthAndChecks:
    def test_growth_with_k3_shift_lifts(self, k4):
        traj = ll.greedy_lift_growth(k4, 2, 12, 3, 5)
        assert [r.n for r in traj.records] == [4, 12, 36]
        assert all(r.lam <= 3.0 + 1e-9 for r in traj.records)

    def test_spot_check_deterministic(self):
        g = ll.random_regular(60, 4, 15)
        a = ll.lemma_inequality_spot_check(g, 100, 8, "lemma4")
        b = ll.lemma_inequality_spot_check(g, 100, 8, "lemma4")
        assert a == b


@pytest.mark.parametrize("base,k,classes", [
    ("complete 4", 2, 8), ("complete 4", 3, 27), ("complete 4 x2", 2, 64),
])
def test_exhaustive_level_scores_one_candidate_per_switching_class(base, k, classes,
                                                                    monkeypatch):
    g = _growth_base(base)
    m, n, c = g.num_edges, g.n, len(bfs_components(g.n, g.edges))
    assert classes == k ** (m - n + c)
    stacks, checked = [], []
    class_shifts, cross_check = experiments._class_shifts, experiments._fiber_cross_check

    def recording_class_shifts(free, m, k, codes):
        stacks.append(class_shifts(free, m, k, codes))
        return stacks[-1]

    def recording_check(graph, sa, lam_new):
        checked.append(sa)
        return cross_check(graph, sa, lam_new)

    monkeypatch.setattr(experiments, "_class_shifts", recording_class_shifts)
    monkeypatch.setattr(experiments, "_fiber_cross_check", recording_check)
    ll.greedy_lift_growth(g, 1, k**m, k, 0)
    # shift 0 on the forest, every code of the free edges once, in code order,
    # then the kept class alone
    *stacks, kept = stacks
    shifts = np.concatenate(stacks)
    free = experiments._switching_free_edges(g)
    forest = np.setdiff1d(np.arange(m), free)
    assert not shifts[:, forest].any()
    codes = shifts[:, free] @ k ** np.arange(free.size)
    assert codes.tolist() == list(range(classes))
    # the fiber cross-check runs once, on the kept class
    assert kept.shape == (1, m)
    assert [sa.shift_array.tolist() for sa in checked] == kept.tolist()


@pytest.mark.parametrize("base,k,samples,chunks", [
    ("complete 4", 3, 50, [50]),
    ("random_regular 12 4 5", 2, 20, [20]),
    # the stack limit at n = 128 is 2**20 // 128**2 = 64 rows
    ("random_regular 128 3 1", 2, 150, [64, 64, 22]),
])
def test_sampled_level_scores_the_seeded_draws_and_cross_checks_the_kept_one(
        base, k, samples, chunks, monkeypatch):
    g, seed = _growth_base(base), 6
    assert k**g.num_edges > samples
    stacks, scores, checked = [], [], []
    root_radii, cross_check = experiments._root_radii, experiments._fiber_cross_check

    def recording_root_radii(graph, k, shifts):
        stacks.append(shifts)
        scores.append(np.max(list(root_radii(graph, k, shifts)), axis=0))
        yield scores[-1]

    def recording_check(graph, sa, lam_new):
        checked.append((sa, lam_new))
        return cross_check(graph, sa, lam_new)

    monkeypatch.setattr(experiments, "_root_radii", recording_root_radii)
    monkeypatch.setattr(experiments, "_fiber_cross_check", recording_check)
    traj = ll.greedy_lift_growth(g, 1, samples, k, seed)
    draws = [ll.random_shift_lift(g, k, ll.trial_seed(seed, (1 << 32) | s)).shift_array
             for s in range(samples)]
    assert [len(stack) for stack in stacks] == chunks
    assert np.concatenate(stacks).tolist() == np.array(draws).tolist()
    # distinct radii here lie far more than CROSS_CHECK_TOL apart, so the tie
    # rule keeps the first draw of the lowest radius
    radii, tol = np.concatenate(scores), experiments.CROSS_CHECK_TOL
    gaps = np.diff(np.sort(radii))
    assert np.all((gaps < 1e-12) | (gaps > tol))
    kept = int(np.argmax(radii <= radii.min() + tol))
    # the kept draw's stacked radius is cross-checked and reported, not re-solved
    assert [(sa.shift_array.tolist(), lam) for sa, lam in checked] == [
        (draws[kept].tolist(), radii[kept])]
    assert traj.records[1].lambda_new == radii[kept]


@pytest.mark.parametrize("tol,radii,kept", [
    (0.0, [3.0, 1.0, 2.0, 1.0, 1.0], 1),
    (1e-6, [3.0, 1.0, 1.0 - 5e-7, 0.5, 0.5 - 5e-7, 0.5 - 2e-6, 0.5 - 2.5e-6], 5),
])
def test_pick_keeps_the_earliest_candidate_lower_by_more_than_tol(tol, radii, kept,
                                                                  monkeypatch):
    g = ll.complete_graph(4)
    # candidate i is the constant shift row i, scored radii[i]
    monkeypatch.setattr(experiments, "_root_radii",
                        lambda graph, k, shifts: iter([np.array(radii)[shifts[:, 0]]]))
    shifts, radius = experiments._pick(
        g, 8, tol, len(radii), lambda idx: np.repeat(idx[:, None], g.num_edges, axis=1))
    assert (shifts.tolist(), radius) == ([kept] * g.num_edges, radii[kept])


@pytest.mark.parametrize("k", [2, 3])
def test_both_sides_of_the_stack_size_rule_keep_the_same_lifts(k, monkeypatch):
    g = ll.random_regular(characterization._STACKED_MAX_N, 3, 2)
    build, solve = experiments.build_shift_lift, characterization._lanczos_radius
    runs = []
    for limit in (g.n, g.n - 1):  # dense root stacks, then Lanczos per candidate
        kept, solves = [], []

        def recording_build(graph, sa):
            kept.append(sa)
            return build(graph, sa)

        def recording_lanczos(op, what, *args):
            solves.append(what)
            return solve(op, what, *args)

        monkeypatch.setattr(characterization, "_STACKED_MAX_N", limit)
        monkeypatch.setattr(experiments, "build_shift_lift", recording_build)
        monkeypatch.setattr(characterization, "_lanczos_radius", recording_lanczos)
        traj = ll.greedy_lift_growth(g, 1, 12, k, 4)
        runs.append((traj, kept, sum(what.startswith("root ") for what in solves),
                     solves.count("the fiber-sum-zero operator")))
    (stacked, kept_stacked, *calls_stacked), (lanczos, kept_lanczos, *calls_lanczos) = runs
    assert kept_stacked == kept_lanczos
    assert [r.n for r in stacked.records] == [r.n for r in lanczos.records]
    for a, b in zip(stacked.records[1:], lanczos.records[1:]):
        assert abs(a.lam - b.lam) <= 1e-12 and abs(a.lambda_new - b.lambda_new) <= 1e-12
    # root j = 1 of each of the 12 candidates, solved once, by Lanczos or in a
    # stack; the fiber cross-check once, on the kept candidate
    assert (calls_stacked, calls_lanczos) == ([0, 1], [12, 1])


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_level_memory_follows_the_stack_not_the_samples():
    n, k = characterization._STACKED_MAX_N, 2
    g, rows = ll.random_regular(n, 3, 3), 2**20 // n**2
    stack_bytes = rows * n * n * 8  # one real root stack
    ll.greedy_lift_growth(g, 1, 1, k, 0)  # first-call imports stay out of the peaks
    peaks = [_traced_peak(lambda: ll.greedy_lift_growth(g, 1, samples, k, 0))
             for samples in (rows, 4 * rows)]
    # a stack of all 4 * rows samples alone would take 4 * stack_bytes
    assert peaks[1] < 2 * stack_bytes, peaks
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_stacked_scoring_memory_follows_the_stack_not_k():
    # 128 candidates of order 8 at k = 1024: their 512 radii each would take
    # four times the complex root stack they come from
    n, k, total = 8, 1024, 128
    g = ll.random_regular(n, 3, 1)
    shifts = np.random.default_rng(0).integers(0, k, (total, g.num_edges))
    stack_bytes = total * n * n * 16  # one complex root stack
    assert total * (k // 2) * 8 == 4 * stack_bytes
    experiments._pick(g, 4, 0.0, total, lambda idx: shifts[idx] % 4)
    peak = _traced_peak(lambda: experiments._pick(g, k, 0.0, total, lambda idx: shifts[idx]))
    assert peak < 2 * stack_bytes, peak


def test_switching_free_edges_match_the_spanning_tree_oracle():
    graphs = [ll.complete_graph(2), ll.complete_graph(4), ll.complete_bipartite(3),
              ll.cycle_graph(5), ll.disjoint_copies(ll.complete_graph(4), 3),
              ll.disjoint_copies(ll.random_regular(10, 3, 4), 2)]
    graphs += [ll.random_regular(n, d, n * d) for n in range(8, 51, 6) for d in (3, 4, 6)]
    for g in graphs:
        free = experiments._switching_free_edges(g)
        assert free.dtype == np.int64
        assert free.tolist() == spanning_tree_free_edges(g).tolist(), (g.n, g.d)


@pytest.mark.parametrize("base", ["complete 4", "complete_bipartite 3"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_best_class_matches_dense_root_radii_over_every_class(base, k):
    g = _growth_base(base)
    free = experiments._switching_free_edges(g)
    total = k**free.size
    shifts = experiments._class_shifts(free, g.num_edges, k, np.arange(total))
    radii = [max(dense_half_root_radii(g, ll.ShiftAssignment(k, row))) for row in shifts]
    lowest = min(radii)

    def kept_code(tol):
        best, radius, count = experiments._best_class(g, k, tol)
        assert count == total
        assert abs(radius - lowest) <= 1e-9
        assert not np.delete(best, free).any()
        return int(best[free] @ k ** np.arange(free.size))

    # tol 0 keeps a class at the lowest radius: the first in code order, or a
    # later one that rounding puts below it
    assert abs(radii[kept_code(0.0)] - lowest) <= 1e-9
    # distinct radii here lie far more than CROSS_CHECK_TOL apart, so that
    # rule keeps the first class of the lowest radius
    tol = experiments.CROSS_CHECK_TOL
    assert kept_code(tol) == next(i for i, r in enumerate(radii) if r <= lowest + tol)

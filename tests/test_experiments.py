import math
import time

import numpy as np
import pytest

import liftlab as ll
from liftlab import experiments
from liftlab.cli import dispatch
from liftlab.errors import InvalidParameterError, SizeLimitError
from liftlab.fileio import experiment_report_csv, experiment_report_text

from oracles import bfs_components, brute_force_signing_min_radius, k4_top_radius_rate


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


def trial_assignment(g, cfg, index):
    """The shift assignment a campaign trial samples, rebuilt from its seed."""
    seed = ll.trial_seed(cfg.base_seed, index)
    if cfg.mode == "shift_lift":
        return ll.random_shift_lift(g, cfg.k, seed)
    return ll.signing_to_shifts(ll.random_signing(g, seed))


def dense_split_lambda_new(g, sa):
    """lambda_new of the built lift by the dense old/new split."""
    lifted = ll.build_shift_lift(g, sa)
    return ll.split_old_new(
        ll.eig_symmetric(ll.adjacency_matrix(g)),
        ll.eig_symmetric(ll.adjacency_matrix(lifted.graph)),
        sa.k,
    ).lambda_new


def all_root_radii(g, sa):
    """Radius of every root matrix j = 1..k-1, each solved as complex Hermitian."""
    radii = []
    for j in range(1, sa.k):
        vals = ll.eig_hermitian(ll.shift_matrix(g, sa, ll.RootOfUnity(sa.k, j))).values
        radii.append(max(abs(vals[0]), abs(vals[-1])))
    return radii


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
                                                 all_root_radii(g, sa)))) <= 1e-12
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

    def test_lanczos_non_convergence_is_a_failed_trial(self, monkeypatch):
        import scipy.sparse.linalg as sla

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(sla, "eigsh", no_convergence)
        cfg = ll.ExperimentConfig("random_regular 40 3 2", 4, 2, 5, (3.0,),
                                  "shift_lift")
        report = ll.run_lift_trials(cfg)
        assert report.failed == 2
        assert all("Lanczos" in r.error and "No convergence" in r.error
                   for r in report.records)


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

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            ll.exhaustive_signing_search(ll.random_regular(18, 3, 0))

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
        assert g.num_edges == experiments.SIGNING_SEARCH_CAP
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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes a few minutes, dominated by the two campaigns
on the 500-vertex base graph.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import liftlab as ll
from liftlab import fileio
from liftlab.cli import dispatch

from oracles import k4_top_radius_rate


@contextmanager
def criterion(number, name, limit_seconds):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL "
              f"({time.perf_counter() - started:.1f}s)")
        raise
    elapsed = time.perf_counter() - started
    if elapsed > limit_seconds:
        print(f"ACCEPTANCE {number} {name}: FAIL "
              f"(runtime {elapsed:.1f}s over {limit_seconds}s)")
        raise AssertionError(f"runtime {elapsed:.1f}s over {limit_seconds}s cap")
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_shift_characterization():
    rng = np.random.default_rng(101)
    with criterion(1, "shift characterization exact on 200 random instances", 60):
        for _ in range(200):
            n = int(rng.integers(4, 13))
            d = int(rng.choice([3, 4]))
            if n * d % 2 or d >= n:
                n += 1
            g = ll.random_regular(n, d, int(rng.integers(0, 2**63)))
            k = int(rng.integers(2, 9))
            sa = ll.random_shift_lift(g, k, int(rng.integers(0, 2**63)))
            report = ll.verify_characterization(
                g, sa, tol=1e-8, window=1e-6, ortho_tol=1e-8
            )
            assert report.max_multiset_mismatch <= 1e-6
            assert (report.max_eigenvector_residual
                    <= 1e-8 * report.lift_frobenius_norm)
            assert report.max_cross_root_inner <= 1e-8


def test_criterion_2_two_lift_identities():
    rng = np.random.default_rng(202)
    with criterion(2, "2-lift spectra: base + signing, block matrix", 10):
        for _ in range(100):
            g = ll.random_regular(10, 4, int(rng.integers(0, 2**63)))
            s = ll.random_signing(g, int(rng.integers(0, 2**63)))
            a = ll.adjacency_matrix(g)
            a_s = ll.signed_adjacency(g, s)
            lifted = ll.build_lift(g, ll.signing_to_assignment(s))
            lift_spec = ll.eig_symmetric(ll.adjacency_matrix(lifted.graph))
            pooled = np.concatenate([
                ll.eig_symmetric(a).values,
                ll.eig_symmetric(a_s).values,
            ])
            assert ll.max_multiset_mismatch(lift_spec.values, pooled) <= 1e-6
            block_spec = ll.eig_symmetric(ll.two_lift_block_matrix(a, a_s))
            assert ll.max_multiset_mismatch(
                lift_spec.values, block_spec.values) <= 1e-6


def test_criterion_3_tightness_of_disjoint_cliques():
    with criterion(3, "25 disjoint K_4: lambda_new hits d at the predicted rate",
                   300):
        # oracle: exhaustive enumeration of the 64 signings of K_4; both the
        # all-plus and all-minus switching classes reach radius 3, so the
        # per-component rate is 16/64 = 1/4
        rate = k4_top_radius_rate()
        assert rate == pytest.approx(0.25)
        copies, trials = 25, 400
        cfg = ll.ExperimentConfig("complete 4", 2, trials, 2, (1.0,),
                                  "two_lift", copies=copies)
        report = ll.run_lift_trials(cfg)
        assert report.failed == 0
        assert report.lam == pytest.approx(3.0, abs=1e-9)
        hits = np.mean([r.lambda_new >= 3.0 - 1e-9 for r in report.records])
        expected = 1.0 - (1.0 - rate) ** copies
        se = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(hits - expected) <= 3.0 * se, (hits, expected, se)


def test_criterion_4_additive_bound_two_lifts():
    with criterion(4, "random_regular(500,6): lambda_new <= lambda + 3*sqrt(6)",
                   1200):
        cfg = ll.ExperimentConfig("random_regular 500 6 7", 2, 200, 1204,
                                  (1.0, 2.0, 3.0), "two_lift")
        report = ll.run_lift_trials(cfg, threads=2)
        assert report.failed == 0
        frac = dict(report.frac_additive)[3.0]
        assert frac >= 0.99, frac


def test_criterion_5_additive_bound_shift_lifts():
    with criterion(5, "random_regular(500,6): k=4 shift lifts bound + radii",
                   2400):
        cfg = ll.ExperimentConfig("random_regular 500 6 7", 4, 100, 1205,
                                  (1.0, 2.0, 3.0), "shift_lift")
        report = ll.run_lift_trials(cfg, threads=2)
        assert report.failed == 0
        frac = dict(report.frac_additive)[3.0]
        assert frac >= 0.95, frac
        for record in report.records:
            assert record.root_radii is not None
            assert abs(record.lambda_new - max(record.root_radii)) <= 1e-6


def test_criterion_6_k4_signing_search():
    with criterion(6, "min ||A_s|| over the 64 signings of K_4", 1):
        result = ll.exhaustive_signing_search(ll.complete_graph(4))
        assert result.num_signings == 64
        assert result.num_classes == 8
        assert result.min_radius <= 2.0 * math.sqrt(2.0) + 1e-9


def test_criterion_7_mixing_exhaustive():
    with criterion(7, "mixing bound over all subset pairs (n <= 12)", 120):
        graphs = [
            ll.complete_graph(5),
            ll.cycle_graph(6),
            ll.random_regular(10, 3, 71),   # Petersen-sized
            ll.random_regular(12, 4, 72),
        ]
        for g in graphs:
            lam = ll.lambda_nontrivial(
                ll.eig_symmetric(ll.adjacency_matrix(g)), g.d)
            report = ll.eml_check(g, lam)
            assert report.max_ratio <= lam + 1e-9, (g.n, g.d, report.max_ratio)


def test_criterion_8_cheeger_exhaustive():
    with criterion(8, "two-sided expansion bounds on the n <= 24 corpus", 600):
        corpus = [
            ll.complete_graph(4),
            ll.complete_graph(5),
            ll.cycle_graph(4),
            ll.cycle_graph(6),
            ll.cycle_graph(9),
            ll.complete_bipartite(3),
            ll.disjoint_copies(ll.complete_graph(4), 2),
            ll.random_regular(10, 3, 81),
            ll.random_regular(12, 4, 82),
            ll.random_regular(16, 3, 83),
            ll.random_regular(20, 3, 84),
            ll.random_regular(24, 3, 85),
        ]
        for g in corpus:
            report = ll.cheeger_check(g)
            assert report.passed, (g.n, g.d, report)


def test_criterion_9_toolkit_lemmas():
    rng = np.random.default_rng(909)
    with criterion(9, "dyadic reconstruction, rounding search, log-sum bound", 60):
        for _ in range(10000):
            n = int(rng.integers(1, 25))
            levels = rng.integers(1, 9, size=n)
            signs = rng.choice([-1.0, 0.0, 1.0], size=n)
            y = signs * np.ldexp(1.0, -levels)
            dd = ll.dyadic_decompose(y)
            recon = dd.reconstruct() if dd.terms else np.zeros_like(y)
            assert np.array_equal(recon, y)
        base = ll.random_regular(20, 4, 90)
        for t in range(100):
            m = ll.signed_adjacency(base, ll.random_signing(base, 9000 + t))
            x = rng.uniform(-0.5, 0.5, size=20)
            y = ll.discretize(x, m, seed=t, max_tries=10000)
            assert abs(y @ m @ y) >= abs(x @ m @ x) - 1e-12
            assert y @ y <= 4.0 * (x @ x) + 1e-12
        for r in (2.0, 4.0):
            for t in range(0, 11):
                for x_exp in (0.5, 1.0, 2.0):
                    lhs, rhs, _ = ll.geometric_log_sum_bound(r, t, 2.0 * r**t, x_exp)
                    assert lhs <= rhs


def test_criterion_10_inequality_spot_checks():
    with criterion(10, "sign-sum inequalities on random_regular(400,4)", 600):
        g = ll.random_regular(400, 4, 1010)
        for which in ("lemma3", "lemma4"):
            report = ll.lemma_inequality_spot_check(g, 10000, 1010, which)
            assert not report.not_applicable
            assert report.violations == 0, (which, report.violations)
        lam = ll.lambda_nontrivial(ll.eig_symmetric(ll.adjacency_matrix(g)), 4)
        b_rows, lo_rows, _ = ll.experiments._size_table(400, 4, lam, "lemma3")
        a, b = int(lo_rows[0]), int(b_rows[0])  # the first admissible pair
        rng = np.random.default_rng(4)
        u = np.zeros(400)
        v = np.zeros(400)
        u[rng.choice(400, size=a, replace=False)] = 1.0
        v[rng.choice(400, size=b, replace=False)] = 1.0
        mean, sd, draws = ll.sign_sum_stats(g, u, v, 100000, 1010)
        assert abs(mean) <= 3.0 * sd / math.sqrt(draws), (mean, sd)


def test_criterion_11_byte_determinism(tmp_path):
    with criterion(11, "byte-identical reruns, serial and parallel", 600):
        # library level: identical configs give identical serialized reports,
        # under 1 worker and under 4 workers
        cfg = ll.ExperimentConfig("random_regular 30 4 2", 3, 20, 1211,
                                  (1.0, 3.0), "shift_lift")
        texts = {
            fileio.experiment_report_text(ll.run_lift_trials(cfg, threads=t))
            for t in (1, 4, 1)
        }
        assert len(texts) == 1
        csvs = {
            fileio.experiment_report_csv(ll.run_lift_trials(cfg, threads=t))
            for t in (1, 4)
        }
        assert len(csvs) == 1

        # CLI level: every artifact-producing command is rerun-stable
        g_path = tmp_path / "base.graph"
        for _ in range(2):
            assert dispatch(["gen", "--family", "random_regular", "--n", "30",
                             "--d", "4", "--seed", "2", "--out", str(g_path)]) == 0
        blobs = []
        for run in range(2):
            lift_path = tmp_path / f"lift{run}.graph"
            spec_path = tmp_path / f"spec{run}.txt"
            verify_path = tmp_path / f"verify{run}.txt"
            mc_out = tmp_path / f"mc{run}.txt"
            mc_csv = tmp_path / f"mc{run}.csv"
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text(
                "base = random_regular 30 4 2\nmode = shift_lift\nk = 3\n"
                "trials = 8\nseed = 77\n"
            )
            assert dispatch(["lift", "--graph", str(g_path), "--k", "3",
                             "--seed", "9", "--out", str(lift_path)]) == 0
            assert dispatch(["spec", "--graph", str(g_path),
                             "--out", str(spec_path)]) == 0
            assert dispatch(["verify-shift", "--graph", str(g_path),
                             "--shifts", ",".join(["1"] * 60), "--k", "3",
                             "--out", str(verify_path)]) == 0
            assert dispatch(["mc", "--config", str(cfg_path),
                             "--out", str(mc_out), "--csv", str(mc_csv),
                             "--threads", str(run + 1)]) == 0
            blobs.append(tuple(p.read_bytes() for p in
                               (lift_path, spec_path, verify_path, mc_out, mc_csv)))
        assert blobs[0] == blobs[1]

import numpy as np
import pytest

import liftlab as ll
from liftlab import fileio
from liftlab.cli import dispatch
from liftlab.errors import FormatError, InvalidParameterError


class TestGraphFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        g = ll.random_regular(12, 3, 6)
        path = tmp_path / "g.graph"
        fileio.write_graph(g, str(path))
        assert fileio.read_graph(str(path)) == g
        first = path.read_bytes()
        fileio.write_graph(fileio.read_graph(str(path)), str(path))
        assert path.read_bytes() == first

    def test_emits_lf_and_sorted_edges(self, tmp_path, k4):
        path = tmp_path / "k4.graph"
        fileio.write_graph(k4, str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        assert raw.decode().splitlines()[0] == "4 3"

    def test_crlf_input_accepted(self, tmp_path, k4):
        text = fileio.graph_to_text(k4).replace("\n", "\r\n")
        path = tmp_path / "crlf.graph"
        path.write_bytes(text.encode())
        assert fileio.read_graph(str(path)) == k4

    def test_malformed_line_reports_number(self):
        with pytest.raises(FormatError, match="line 3"):
            fileio.graph_from_text("2 1\n0 1\n0 x\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            fileio.graph_from_text("2 2\n0 1\n0 1\n")

    def test_irregular_file_rejected(self):
        with pytest.raises(InvalidParameterError):
            fileio.graph_from_text("3 2\n0 1\n0 2\n1 2\n0 1\n")


class TestAssignmentFormat:
    def test_shift_round_trip(self, tmp_path):
        sa = ll.ShiftAssignment(5, (0, 3, 4, 1))
        path = tmp_path / "a.shift"
        fileio.write_assignment(sa, str(path))
        assert fileio.read_assignment(str(path)) == sa
        first = path.read_bytes()
        fileio.write_assignment(fileio.read_assignment(str(path)), str(path))
        assert path.read_bytes() == first

    def test_perm_round_trip(self, tmp_path, k4):
        a = ll.random_k_lift(k4, 3, 1)
        path = tmp_path / "a.perm"
        fileio.write_assignment(a, str(path))
        assert fileio.read_assignment(str(path)) == a

    def test_mixed_lines_load_as_permutations(self):
        loaded = fileio.assignment_from_text("3 2\nshift 1\nperm 0 2 1\n")
        assert isinstance(loaded, ll.LiftAssignment)
        assert loaded.perms == ((1, 2, 0), (0, 2, 1))

    def test_header_count_enforced(self):
        with pytest.raises(FormatError):
            fileio.assignment_from_text("2 3\nshift 1\nshift 0\n")

    def test_bad_body_line(self):
        with pytest.raises(FormatError, match="line 2"):
            fileio.assignment_from_text("2 1\nswap 1\n")


class TestSpectrumFormat:
    def test_descending_fifteen_digits(self, tmp_path, k5):
        spec = ll.eig_symmetric(ll.adjacency_matrix(k5))
        path = tmp_path / "s.spec"
        fileio.write_spectrum(spec, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "4"
        assert len(lines) == 5
        loaded = fileio.read_spectrum(str(path))
        assert np.allclose(loaded.values, spec.values, atol=1e-12)

    def test_fifteen_significant_digits(self, tmp_path):
        spec = ll.Spectrum(np.array([1 / 3, -2 / 7]))
        path = tmp_path / "s.spec"
        fileio.write_spectrum(spec, str(path))
        assert path.read_text() == "0.333333333333333\n-0.285714285714286\n"


class TestConfigFormat:
    def test_parse_and_defaults(self):
        raw = fileio.parse_config_text(
            "# campaign\nbase = complete 4\ntrials = 5\nseed = 9\n"
        )
        cfg = fileio.config_from_mapping(raw)
        assert cfg.mode == "two_lift" and cfg.k == 2 and cfg.copies == 1
        assert cfg.constants == (1.0, 2.0, 3.0)

    def test_missing_required_key(self):
        with pytest.raises(InvalidParameterError, match="trials"):
            fileio.config_from_mapping({"base": "complete 4", "seed": "1"})

    def test_bad_line_reports_number(self):
        with pytest.raises(FormatError, match="line 2"):
            fileio.parse_config_text("base = complete 4\nnonsense\n")

    def test_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("base = complete 4\ntrials = 5\nseed = 9\n")
        cfg = fileio.read_config(str(path), {"trials": 11, "seed": None})
        assert cfg.trials == 11 and cfg.base_seed == 9


class TestCli:
    def test_gen_writes_k4(self, tmp_path, capsys, k4):
        out = tmp_path / "k4.graph"
        code = dispatch(["gen", "--family", "complete", "--m", "4",
                         "--out", str(out)])
        assert code == 0
        assert fileio.read_graph(str(out)) == k4
        assert "n=4" in capsys.readouterr().out

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        for out in (a, b):
            assert dispatch(["gen", "--family", "random_regular", "--n", "30",
                             "--d", "3", "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lift_and_assignment_round_trip(self, tmp_path):
        g_path = tmp_path / "c5.graph"
        dispatch(["gen", "--family", "cycle", "--n", "5", "--out", str(g_path)])
        lift_path = tmp_path / "lift.graph"
        a_path = tmp_path / "lift.assign"
        code = dispatch(["lift", "--graph", str(g_path), "--k", "3",
                         "--seed", "2", "--out", str(lift_path),
                         "--save-assignment", str(a_path)])
        assert code == 0
        lifted = fileio.read_graph(str(lift_path))
        assert (lifted.n, lifted.d) == (15, 2)
        rebuilt = ll.build_lift(fileio.read_graph(str(g_path)),
                                fileio.read_assignment(str(a_path)))
        assert rebuilt.graph == lifted

    def test_spec_command(self, tmp_path, capsys):
        g_path = tmp_path / "k5.graph"
        dispatch(["gen", "--family", "complete", "--m", "5", "--out", str(g_path)])
        spec_path = tmp_path / "k5.spec"
        assert dispatch(["spec", "--graph", str(g_path), "--out", str(spec_path)]) == 0
        assert spec_path.read_text().splitlines()[0] == "4"
        assert "lambda=1" in capsys.readouterr().out

    def test_verify_shift_nine_cycle(self, tmp_path, capsys):
        g_path = tmp_path / "c3.graph"
        dispatch(["gen", "--family", "cycle", "--n", "3", "--out", str(g_path)])
        report_path = tmp_path / "verify.txt"
        code = dispatch(["verify-shift", "--graph", str(g_path),
                         "--shifts", "1,0,0", "--k", "3",
                         "--out", str(report_path)])
        assert code == 0
        assert "characterization holds" in capsys.readouterr().out
        report = report_path.read_text()
        assert "report = shift_characterization" in report
        # pooled spectrum equals the 9-cycle spectrum
        c9 = ll.eig_symmetric(ll.adjacency_matrix(ll.cycle_graph(9))).values
        lift_line = next(ln for ln in report.splitlines()
                         if ln.startswith("lift_spectrum"))
        values = np.array([float(tok) for tok in
                           lift_line.split("=")[1].split(",")])
        assert ll.max_multiset_mismatch(values, c9) <= 1e-9

    def test_eml_pass_and_bipartite_failure(self, tmp_path, capsys):
        k5_path = tmp_path / "k5.graph"
        dispatch(["gen", "--family", "complete", "--m", "5", "--out", str(k5_path)])
        assert dispatch(["eml", "--graph", str(k5_path)]) == 0
        k33_path = tmp_path / "k33.graph"
        dispatch(["gen", "--family", "complete_bipartite", "--m", "3",
                  "--out", str(k33_path)])
        assert dispatch(["eml", "--graph", str(k33_path)]) == 0
        # excluding -d from lambda makes the bound fail on bipartite graphs
        assert dispatch(["eml", "--graph", str(k33_path), "--bipartite"]) == 1

    def test_cheeger_command(self, tmp_path):
        path = tmp_path / "c6.graph"
        dispatch(["gen", "--family", "cycle", "--n", "6", "--out", str(path)])
        assert dispatch(["cheeger", "--graph", str(path)]) == 0

    def test_mc_byte_identical_reports(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "base = random_regular 16 3 4\nmode = shift_lift\nk = 3\n"
            "trials = 6\nseed = 21\nconstants = 1,3\n"
        )
        outs = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / name
            csv = tmp_path / (name + ".csv")
            assert dispatch(["mc", "--config", str(cfg_path), "--out", str(out),
                             "--csv", str(csv)]) == 0
            outs.append((out.read_bytes(), csv.read_bytes()))
        assert outs[0] == outs[1]

    def test_mc_threads_do_not_change_bytes(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "base = random_regular 14 3 8\ntrials = 6\nseed = 5\n"
        )
        blobs = []
        for threads, name in ((1, "a.txt"), (3, "b.txt")):
            out = tmp_path / name
            assert dispatch(["mc", "--config", str(cfg_path), "--out", str(out),
                             "--threads", str(threads)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_search_signing_command(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(path)])
        assert dispatch(["search-signing", "--graph", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2.2360679" in out
        assert "over 64 signings (8 switching classes)" in out

    def test_grow_command(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(path)])
        out = tmp_path / "growth.txt"
        assert dispatch(["grow", "--graph", str(path), "--levels", "2",
                         "--samples", "10", "--seed", "1", "--out", str(out)]) == 0
        assert "level 2" in out.read_text()

    def test_lemma_check_command(self, tmp_path):
        path = tmp_path / "g.graph"
        dispatch(["gen", "--family", "random_regular", "--n", "60", "--d", "4",
                  "--seed", "15", "--out", str(path)])
        assert dispatch(["lemma-check", "--graph", str(path), "--which",
                         "lemma3", "--trials", "50", "--seed", "2"]) == 0

    def test_usage_errors_exit_two(self, tmp_path):
        assert dispatch(["gen", "--family", "dodecahedron", "--out", "x"]) == 2
        assert dispatch(["gen", "--family", "complete", "--out",
                         str(tmp_path / "x")]) == 2  # missing --m
        assert dispatch(["spec", "--graph", str(tmp_path / "missing.graph")]) == 2
        assert dispatch(["nonsense"]) == 2

    def test_numerical_failures_exit_three(self, tmp_path, monkeypatch):
        path = tmp_path / "k4.graph"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(path)])
        import liftlab.cli as cli_module

        def boom(*args, **kwargs):
            raise ll.NumericalError("synthetic solver failure")

        monkeypatch.setattr(cli_module, "eig_symmetric", boom)
        assert dispatch(["spec", "--graph", str(path)]) == 3


class TestReportSerializers:
    def test_growth_report_round_trip_fields(self, k4):
        traj = ll.greedy_lift_growth(k4, 2, 8, 2, 1)
        text = fileio.growth_report_text(traj)
        assert "report = greedy_growth" in text
        assert "level 0 n 4" in text and "level 2 n 16" in text

    def test_spot_check_report_text(self):
        g = ll.random_regular(60, 4, 15)
        report = ll.lemma_inequality_spot_check(g, 40, 2, "lemma3")
        text = fileio.spot_check_report_text(report)
        assert "violations = 0" in text
        assert "not_applicable = false" in text

    def test_signing_search_report_text(self, k4):
        text = fileio.signing_search_report_text(ll.exhaustive_signing_search(k4))
        assert "within_bound = true" in text
        assert "num_signings = 64\nnum_classes = 8\n" in text

    def test_converse_mixing_report_text(self, k5):
        lam = ll.lambda_nontrivial(ll.eig_symmetric(ll.adjacency_matrix(k5)), 4)
        report = ll.converse_eml_alpha(k5, lam)
        text = fileio.converse_mixing_report_text(report)
        assert "alpha =" in text and "alpha_log_shape =" in text

    def test_cheeger_and_mixing_text(self, k4):
        assert "passed = true" in fileio.cheeger_report_text(ll.cheeger_check(k4))
        lam = ll.lambda_nontrivial(ll.eig_symmetric(ll.adjacency_matrix(k4)), 3)
        assert "passed = true" in fileio.mixing_report_text(ll.eml_check(k4, lam))


class TestCliExtraBranches:
    def test_lift_from_assignment_file(self, tmp_path):
        g_path = tmp_path / "c3.graph"
        dispatch(["gen", "--family", "cycle", "--n", "3", "--out", str(g_path)])
        a_path = tmp_path / "nine.assign"
        fileio.write_assignment(ll.ShiftAssignment(3, (1, 0, 0)), str(a_path))
        out = tmp_path / "lifted.graph"
        assert dispatch(["lift", "--graph", str(g_path), "--assignment",
                         str(a_path), "--out", str(out)]) == 0
        lifted = fileio.read_graph(str(out))
        assert (lifted.n, lifted.d) == (9, 2)

    def test_lift_two_lift_mode(self, tmp_path):
        g_path = tmp_path / "k4.graph"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(g_path)])
        out = tmp_path / "doubled.graph"
        assert dispatch(["lift", "--graph", str(g_path), "--mode", "two_lift",
                         "--seed", "3", "--out", str(out)]) == 0
        assert fileio.read_graph(str(out)).n == 8

    def test_verify_shift_from_assignment_file(self, tmp_path):
        g_path = tmp_path / "c3.graph"
        dispatch(["gen", "--family", "cycle", "--n", "3", "--out", str(g_path)])
        a_path = tmp_path / "nine.assign"
        fileio.write_assignment(ll.ShiftAssignment(3, (1, 0, 0)), str(a_path))
        assert dispatch(["verify-shift", "--graph", str(g_path),
                         "--assignment", str(a_path)]) == 0

    def test_verify_shift_rejects_perm_assignment(self, tmp_path, k4):
        g_path = tmp_path / "k4.graph"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(g_path)])
        a_path = tmp_path / "perms.assign"
        fileio.write_assignment(ll.random_k_lift(k4, 3, 0), str(a_path))
        assert dispatch(["verify-shift", "--graph", str(g_path),
                         "--assignment", str(a_path)]) == 2

    def test_eml_sampled_mode(self, tmp_path):
        g_path = tmp_path / "g.graph"
        dispatch(["gen", "--family", "random_regular", "--n", "30", "--d", "4",
                  "--seed", "1", "--out", str(g_path)])
        assert dispatch(["eml", "--graph", str(g_path), "--method", "sampled",
                         "--samples", "200", "--seed", "6"]) == 0

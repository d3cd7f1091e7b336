import re
import tracemalloc

import numpy as np
import pytest

import liftlab as ll
from liftlab import experiments, fileio
from liftlab.cli import _build_parser, dispatch
from liftlab.errors import FormatError, InvalidParameterError

from test_public_api import CLI_OPTIONS


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
        path = tmp_path / "crlf.graph"
        fileio.write_graph(k4, str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
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

    @pytest.mark.parametrize("line", ["shift 4", "shift -1"])
    def test_mixed_shift_lines_are_range_checked_as_in_shift_files(self, line):
        # they were read mod k: shift 4 as shift 1, shift -1 as shift k - 1
        for text in (f"3 2\nperm 0 2 1\n{line}\n", f"3 2\nshift 1\n{line}\n"):
            with pytest.raises(InvalidParameterError, match=r"^shifts must lie in \[0,3\)$"):
                fileio.assignment_from_text(text)

    def test_header_count_enforced(self):
        with pytest.raises(FormatError):
            fileio.assignment_from_text("2 3\nshift 1\nshift 0\n")

    def test_bad_body_line(self):
        with pytest.raises(FormatError, match="line 2"):
            fileio.assignment_from_text("2 1\nswap 1\n")


_SPELLINGS = {
    "underscore": lambda v: f"0_{v}",
    "arabic-indic": lambda v: chr(0x0660 + v),
    "fullwidth": lambda v: chr(0xFF10 + v),
    "devanagari": lambda v: chr(0x0966 + v),
}
# a valid K4 graph and shift assignment, and the position of each header token
_HEADED = {
    "n": (fileio.graph_from_text, "{} 3\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", 4),
    "d": (fileio.graph_from_text, "4 {}\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", 3),
    "k": (fileio.assignment_from_text, "{} 2\nshift 1\nshift 2\n", 3),
    "m": (fileio.assignment_from_text, "3 {}\nshift 1\nshift 2\n", 2),
}


@pytest.mark.parametrize("token, spelling", [(t, s) for t in _HEADED for s in _SPELLINGS],
                         ids=[f"{t} {s}" for t in _HEADED for s in _SPELLINGS])
def test_header_tokens_take_the_body_integer_grammar(token, spelling):
    # the ASCII spelling loads, and int() took each other one as the same value
    read, template, value = _HEADED[token]
    text = template.format(_SPELLINGS[spelling](value))
    read(template.format(value))
    header = text.partition("\n")[0]
    match = f"^line 1: non-integer header {re.escape(repr(header))}$"
    with pytest.raises(FormatError, match=match):
        read(text)


class TestSpectrumFormat:
    def test_descending_fifteen_digits(self, k5):
        spec = ll.eig_symmetric(ll.adjacency_matrix(k5))
        lines = fileio.spectrum_to_text(spec).splitlines()
        assert lines[0] == "4"
        assert len(lines) == 5
        assert np.allclose([float(ln) for ln in lines], spec.values, atol=1e-12)

    def test_fifteen_significant_digits(self):
        spec = ll.Spectrum(np.array([1 / 3, -2 / 7]))
        assert fileio.spectrum_to_text(spec) == "0.333333333333333\n-0.285714285714286\n"


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

    def test_unknown_keys_are_named(self):
        # misspelt keys once fell back to the defaults: mode two_lift, copies 1
        raw = fileio.parse_config_text(
            "base = complete 4\ntrials = 2\nseed = 1\nmdoe = shift_lift\ncopise = 2\n")
        with pytest.raises(InvalidParameterError,
                           match="^unknown config key 'mdoe', 'copise'; accepted: base, "
                                 "trials, seed, mode, k, copies, constants$"):
            fileio.config_from_mapping(raw)

    def test_repeated_key_reports_its_line(self):
        # the last value once won silently
        with pytest.raises(FormatError, match="^line 4: repeated key 'trials'$"):
            fileio.parse_config_text("base = complete 4\ntrials = 3\n# more\ntrials = 5\n")

    @pytest.mark.parametrize("extra,message", [
        ("mdoe = shift_lift\n", "error: unknown config key 'mdoe'; accepted: base, trials, "
                                "seed, mode, k, copies, constants\n"),
        ("trials = 5\n", "error: line 4: repeated key 'trials'\n"),
        ("constants = nan,1\n", "error: bad config value: bound constants must be "
                                "finite and nonnegative\n"),
        # an infinite constant once wrote `lambda + inf*sqrt(d) = 1.0` and exited 0
        ("constants = inf,1e400\n", "error: bad config value: bound constants must be "
                                     "finite and nonnegative\n"),
        # k = 2**63 once ended in a ValueError traceback from the root values, exit 1
        ("mode = shift_lift\nk = 9223372036854775808\n",
         f"error: lift order k*n = {4 * 2**63} exceeds 2**31\n"),
    ])
    def test_mc_rejects_bad_configs_before_any_trial(self, tmp_path, capsys, extra, message):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "report"
        cfg.write_text("base = complete 4\ntrials = 2\nseed = 1\n" + extra)
        assert dispatch(["mc", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    def test_mc_nan_constant_override_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("base = complete 4\ntrials = 2\nseed = 1\n")
        assert dispatch(["mc", "--config", str(cfg), "--constants", "nan,1"]) == 2
        assert "bound constants must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("constants", ["inf,1", "1,1e400"])
    def test_mc_infinite_constant_override_is_a_usage_error(self, tmp_path, capsys, constants):
        # it once ran the trials and wrote an infinite bound
        cfg, out = tmp_path / "exp.cfg", tmp_path / "report"
        cfg.write_text("base = complete 4\ntrials = 2\nseed = 1\n")
        assert dispatch(["mc", "--config", str(cfg), "--constants", constants,
                         "--out", str(out)]) == 2
        assert "bound constants must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()


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

    def test_lift_k_conflicting_with_the_assignment_is_a_usage_error(self, tmp_path, capsys):
        g_path, a_path, lift, replay, default = (
            str(tmp_path / f) for f in ("c5.graph", "a", "lift", "replay", "default"))
        dispatch(["gen", "--family", "cycle", "--n", "5", "--out", g_path])
        assert dispatch(["lift", "--graph", g_path, "--mode", "k_lift", "--k", "4",
                         "--seed", "1", "--out", lift, "--save-assignment", a_path]) == 0
        capsys.readouterr()
        assert dispatch(["lift", "--graph", g_path, "--assignment", a_path, "--k", "3",
                         "--out", replay]) == 2
        err = capsys.readouterr().err
        assert err == "error: --k 3 conflicts with the assignment's k=4\n", err
        assert not (tmp_path / "replay").exists()
        # an absent --k, or one equal to the file's, means the file's k
        for k_option in ([], ["--k", "4"]):
            assert dispatch(["lift", "--graph", g_path, "--assignment", a_path, *k_option,
                             "--out", replay]) == 0
            assert (tmp_path / "replay").read_bytes() == (tmp_path / "lift").read_bytes()
        # without --assignment, --k still defaults to 2
        assert dispatch(["lift", "--graph", g_path, "--out", default]) == 0
        assert fileio.read_graph(default).n == 10

    def test_lift_mode_or_seed_beside_the_assignment_is_a_usage_error(self, tmp_path, capsys):
        g_path, a_path, lift, replay = (
            str(tmp_path / f) for f in ("c5.graph", "a", "lift", "replay"))
        dispatch(["gen", "--family", "cycle", "--n", "5", "--out", g_path])
        assert dispatch(["lift", "--graph", g_path, "--mode", "k_lift", "--k", "4",
                         "--seed", "1", "--out", lift, "--save-assignment", a_path]) == 0
        for options, option in ((["--mode", "two_lift"], "--mode"),
                                (["--mode", "shift_lift"], "--mode"),
                                (["--seed", "9"], "--seed"), (["--seed", "0"], "--seed")):
            capsys.readouterr()
            assert dispatch(["lift", "--graph", g_path, "--assignment", a_path, *options,
                             "--out", replay]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {option} conflicts with --assignment\n", err
            assert not (tmp_path / "replay").exists()
        # without --assignment, --mode defaults to shift_lift and --seed to 0
        default, given = str(tmp_path / "default"), str(tmp_path / "given")
        assert dispatch(["lift", "--graph", g_path, "--k", "3", "--out", default]) == 0
        assert dispatch(["lift", "--graph", g_path, "--k", "3", "--mode", "shift_lift",
                         "--seed", "0", "--out", given]) == 0
        assert (tmp_path / "default").read_bytes() == (tmp_path / "given").read_bytes()

    def test_lift_k_other_than_two_beside_two_lift_is_a_usage_error(self, tmp_path, capsys):
        g_path, out = str(tmp_path / "k4.graph"), tmp_path / "lift"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", g_path])
        for k in ("3", "3000000000"):
            capsys.readouterr()
            assert dispatch(["lift", "--graph", g_path, "--mode", "two_lift", "--k", k,
                             "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --k {k} conflicts with --mode two_lift (k=2)\n", err
            assert not out.exists()
        # --k 2, or no --k, is the 2-lift two_lift builds
        for k_option in ([], ["--k", "2"]):
            assert dispatch(["lift", "--graph", g_path, "--mode", "two_lift", *k_option,
                             "--out", str(out)]) == 0
            assert fileio.read_graph(str(out)).n == 8

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
        # and is a usage error on graphs that are not bipartite
        assert dispatch(["eml", "--graph", str(k5_path), "--bipartite"]) == 2
        c7_path = tmp_path / "c7.graph"
        dispatch(["gen", "--family", "cycle", "--n", "7", "--out", str(c7_path)])
        assert dispatch(["eml", "--graph", str(c7_path), "--bipartite"]) == 2

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

    def test_mc_threads_below_one_are_usage_errors(self, tmp_path, monkeypatch, capsys):
        import liftlab.cli as cli_module

        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("base = random_regular 14 3 8\ntrials = 2\nseed = 5\n")
        requested = []
        real = cli_module.run_lift_trials

        def spy(cfg, threads):
            requested.append(threads)
            return real(cfg, threads=threads)

        monkeypatch.setattr(cli_module, "run_lift_trials", spy)
        for bad in ("-3", "0"):
            assert dispatch(["mc", "--config", str(cfg_path), "--threads", bad]) == 2
            assert f"must be >= 1, got {bad}" in capsys.readouterr().err
        assert requested == []
        # absent --threads reaches run_lift_trials as 1
        assert dispatch(["mc", "--config", str(cfg_path)]) == 0
        assert dispatch(["mc", "--config", str(cfg_path), "--threads", "2"]) == 0
        assert requested == [1, 2]

    def test_gen_copies_below_one_are_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "k4.graph"
        for bad in ("0", "-3"):
            assert dispatch(["gen", "--family", "complete", "--m", "4", "--copies", bad,
                             "--out", str(out)]) == 2
            assert f"must be >= 1, got {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_lemma_check_trials_below_one_are_usage_errors(self, tmp_path, capsys):
        g_path = tmp_path / "g.graph"
        fileio.write_graph(ll.random_regular(60, 4, 15), str(g_path))
        for bad in ("0", "-3"):
            assert dispatch(["lemma-check", "--graph", str(g_path), "--which", "lemma4",
                             "--trials", bad]) == 2
            assert f"must be >= 1, got {bad}" in capsys.readouterr().err
        assert dispatch(["lemma-check", "--graph", str(g_path), "--which", "lemma4",
                         "--trials", "1"]) == 0

    def test_verify_shift_bad_shift_tokens_are_usage_errors(self, tmp_path, capsys):
        g_path = tmp_path / "k4.graph"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(g_path)])
        for shifts, token in (("1,x,0,0,0,0", "'x'"), ("", "''")):
            assert dispatch(["verify-shift", "--graph", str(g_path), "--shifts", shifts,
                             "--k", "3"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --shifts: ") and err.rstrip().endswith(token), err

    def test_verify_shift_options_conflicting_with_the_assignment_are_usage_errors(
            self, tmp_path, capsys):
        g_path, a_path, out = (str(tmp_path / f) for f in ("k4.graph", "s3.assign", "out"))
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", g_path])
        fileio.write_assignment(ll.ShiftAssignment(3, [1, 1, 1, 1, 1, 2]), a_path)
        capsys.readouterr()
        for options, message in (
            (["--k", "5"], "--k 5 conflicts with the assignment's k=3"),
            (["--shifts", "1,1,1,1,1,1", "--k", "2"], "--shifts conflicts with --assignment"),
            (["--shifts", "1,1,1,1,1,2"], "--shifts conflicts with --assignment"),
        ):
            assert dispatch(["verify-shift", "--graph", g_path, "--assignment", a_path,
                             *options, "--out", out]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "out").exists()
        # a --k equal to the file's k checks the file's lift
        assert dispatch(["verify-shift", "--graph", g_path, "--assignment", a_path,
                         "--k", "3", "--out", out]) == 0
        assert "characterization holds" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["shift_lift", "k_lift", "header 3000000000",
                                        "header 100000000000000000000"])
    def test_lift_over_the_order_cap_fails_before_any_k_wide_array(self, tmp_path, capsys,
                                                                  monkeypatch, source):
        import liftlab.cli as cli_module

        g_path, a_path = str(tmp_path / "k4.graph"), str(tmp_path / "big.assign")
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", g_path])
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("an (m, k) array was built")

        for name in ("shift_to_assignment", "random_k_lift", "build_lift"):
            monkeypatch.setattr(cli_module, name, refuse)
        if source.startswith("header"):
            k = int(source.split()[1])
            (tmp_path / "big.assign").write_text(f"{k} 6\n" + "shift 1\n" * 6)
            options = ["--assignment", a_path]
        else:
            k = 3000000000
            options = ["--mode", source, "--k", str(k)]
        assert dispatch(["lift", "--graph", g_path, *options,
                         "--out", str(tmp_path / "lift")]) == 2
        assert capsys.readouterr().err == f"error: lift order k*n = {4 * k} exceeds 2**31\n"
        assert not (tmp_path / "lift").exists()

    @pytest.mark.parametrize("error,message", [
        (MemoryError("Unable to allocate 22.4 GiB for an array"),
         "Unable to allocate 22.4 GiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_out_of_memory_is_a_one_line_failure(self, tmp_path, capsys, monkeypatch,
                                                 error, message):
        import liftlab.cli as cli_module

        g_path = str(tmp_path / "k4.graph")
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", g_path])
        capsys.readouterr()

        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_module, "shift_to_assignment", exhausted)
        assert dispatch(["lift", "--graph", g_path, "--k", "3",
                         "--out", str(tmp_path / "lift")]) == 3
        assert capsys.readouterr().err == f"failure: {message}\n"

    def test_search_signing_command(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(path)])
        assert dispatch(["search-signing", "--graph", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2.2360679" in out
        assert "over 64 signings (8 switching classes)" in out

    def test_search_signing_over_the_vertex_cap_is_a_usage_error(self, tmp_path, capsys):
        # two switching classes, but 15000 vertices and 2**15000 signings
        path = tmp_path / "c15000.graph"
        fileio.write_graph(ll.cycle_graph(15000), str(path))
        assert dispatch(["search-signing", "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: exhaustive signing search capped at n=48 vertices, "
                                "got 15000\n")

    def test_grow_command(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(path)])
        out = tmp_path / "growth.txt"
        assert dispatch(["grow", "--graph", str(path), "--levels", "2",
                         "--samples", "10", "--seed", "1", "--out", str(out)]) == 0
        assert "level 2" in out.read_text()

    @pytest.mark.parametrize("k", ["1", "0", "-1"])
    def test_grow_k_below_two_is_a_usage_error(self, tmp_path, capsys, k):
        path, out = tmp_path / "k4.graph", tmp_path / "growth.txt"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(path)])
        capsys.readouterr()
        # k**|E| <= --samples made these levels exhaustive, over no class
        assert dispatch(["grow", "--graph", str(path), "--levels", "1", "--samples", "10",
                         "--k", k, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: k must be >= 2\n"
        assert not out.exists()

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

    def test_gen_options_the_family_does_not_take_are_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        for argv, named in (
            (["complete", "--m", "4", "--n", "7"], "--n"),
            (["complete_bipartite", "--m", "3", "--d", "2"], "--d"),
            (["cycle", "--n", "5", "--m", "4"], "--m"),
            (["random_regular", "--n", "10", "--d", "3", "--m", "2"], "--m"),
            (["complete", "--m", "4", "--n", "7", "--d", "3"], "--n, --d"),
        ):
            capsys.readouterr()
            assert dispatch(["gen", "--family", *argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {argv[0]} does not take {named}\n", err
            assert not out.exists()
        # --seed has a default, so a family without one still accepts it
        assert dispatch(["gen", "--family", "complete", "--m", "4", "--seed", "9",
                         "--out", str(out)]) == 0
        assert fileio.read_graph(str(out)) == ll.complete_graph(4)

    def test_one_parser_serves_calls_around_a_usage_error(self, tmp_path, capsys):
        g_path, spec_path = tmp_path / "k4.graph", tmp_path / "k4.spec"
        assert dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(g_path)]) == 0
        assert dispatch(["spec", "--graph", str(g_path), "--bogus"]) == 2
        assert dispatch(["spec", "--graph", str(g_path), "--out", str(spec_path)]) == 0
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert float(spec_path.read_text().splitlines()[0]) == pytest.approx(3.0)
        assert _build_parser() is _build_parser()

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

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_verify_shift_nan_or_negative_tol_is_a_usage_error(self, tmp_path, capsys, tol):
        # --tol nan or inf once printed "characterization holds", --tol -1 "FAILED"
        g_path, out = tmp_path / "c3.graph", tmp_path / "report"
        dispatch(["gen", "--family", "cycle", "--n", "3", "--out", str(g_path)])
        capsys.readouterr()
        assert dispatch(["verify-shift", "--graph", str(g_path), "--k", "3", "--shifts",
                         "1,0,0", "--tol", tol, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: tol must be finite and >= 0, "
                                           f"got {float(tol)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["eml"], ["cheeger"], ["search-signing"],
                                         ["verify-shift", "--k", "2", "--shifts", "1,0,0"],
                                         ["grow", "--levels", "1", "--samples", "2"],
                                         ["lemma-check", "--which", "lemma4", "--trials", "2"]])
    def test_report_that_cannot_be_written_prints_no_summary(self, tmp_path, capsys, command):
        g_path = tmp_path / "c3.graph"
        dispatch(["gen", "--family", "cycle", "--n", "3", "--out", str(g_path)])
        capsys.readouterr()
        # --out names a directory, so the report write fails with an OSError
        assert dispatch([command[0], "--graph", str(g_path), *command[1:],
                         "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_verify_shift_rejects_perm_assignment(self, tmp_path, capsys, k4):
        g_path = tmp_path / "k4.graph"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(g_path)])
        a_path = tmp_path / "perms.assign"
        fileio.write_assignment(ll.random_k_lift(k4, 3, 0), str(a_path))
        capsys.readouterr()
        assert dispatch(["verify-shift", "--graph", str(g_path),
                         "--assignment", str(a_path)]) == 2
        assert capsys.readouterr() == ("", "error: verify-shift needs a shift assignment\n")

    def test_eml_sampled_mode(self, tmp_path):
        g_path = tmp_path / "g.graph"
        dispatch(["gen", "--family", "random_regular", "--n", "30", "--d", "4",
                  "--seed", "1", "--out", str(g_path)])
        assert dispatch(["eml", "--graph", str(g_path), "--method", "sampled",
                         "--samples", "200", "--seed", "6"]) == 0

    def test_eml_exhaustive_rejects_samples_and_seed(self, tmp_path, capsys):
        g_path, out = tmp_path / "k4.graph", tmp_path / "report"
        dispatch(["gen", "--family", "complete", "--m", "4", "--out", str(g_path)])
        for extra, named in ((["--samples", "5"], "samples"), (["--seed", "3"], "seed"),
                             (["--samples", "5", "--seed", "3"], "samples or seed")):
            capsys.readouterr()
            argv = ["eml", "--graph", str(g_path), "--method", "exhaustive", *extra]
            assert dispatch([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: exhaustive mode takes no {named}\n", err
            assert not out.exists()

    def test_eml_sampled_seed_defaults_to_0(self, tmp_path):
        g_path = tmp_path / "g.graph"
        dispatch(["gen", "--family", "random_regular", "--n", "30", "--d", "4",
                  "--seed", "1", "--out", str(g_path)])
        argv = ["eml", "--graph", str(g_path), "--method", "sampled", "--samples", "50"]
        assert dispatch([*argv, "--out", str(tmp_path / "default")]) == 0
        assert dispatch([*argv, "--seed", "0", "--out", str(tmp_path / "zero")]) == 0
        assert (tmp_path / "default").read_text() == (tmp_path / "zero").read_text()


# command -> its arguments besides its input file and output options
OUTPUT_CASE_ARGS = {
    "gen": ["--family", "complete", "--m", "4"],
    "lift": ["--k", "3"],
    "verify-shift": ["--k", "3", "--shifts", "1,0,2,0,1,0"],
    "grow": ["--levels", "1", "--samples", "2"],
    "lemma-check": ["--which", "lemma3", "--trials", "2"],
}


def _command_inputs(tmp_path, command):
    """The --graph or --config arguments of one command, on K_4."""
    fileio.write_graph(ll.complete_graph(4), str(tmp_path / "k4.graph"))
    (tmp_path / "exp.cfg").write_text("base = complete 4\ntrials = 2\nseed = 1\n")
    return (["--config", str(tmp_path / "exp.cfg")] if command == "mc" else
            [] if command == "gen" else ["--graph", str(tmp_path / "k4.graph")])


@pytest.mark.parametrize("command", list(CLI_OPTIONS))
def test_each_command_writes_exactly_its_output_options(tmp_path, capsys, command):
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    names = [o[2:] for o in CLI_OPTIONS[command] if o in ("--out", "--csv", "--save-assignment")]
    argv = [command, *_command_inputs(inputs, command), *OUTPUT_CASE_ARGS.get(command, []),
            *(arg for name in names for arg in ("--" + name, str(outputs / name)))]
    assert dispatch(argv) == 0
    assert sorted(p.name for p in outputs.iterdir()) == sorted(names)
    assert all((outputs / name).stat().st_size > 0 for name in names)
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1  # the summary alone, no spectrum


@pytest.mark.parametrize("command,option", [("spec", "--out"), ("eml", "--out"),
                                            ("lift", "--save-assignment"), ("mc", "--csv")])
def test_an_empty_output_path_is_a_usage_error(tmp_path, capsys, command, option):
    argv = [command, *_command_inputs(tmp_path, command), *OUTPUT_CASE_ARGS.get(command, [])]
    if command == "lift":
        argv += ["--out", str(tmp_path / "lift.graph")]
    assert dispatch([*argv, option, ""]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize("csv", ["nodir/x.csv", ""])
def test_mc_refuses_an_output_path_before_any_trial(tmp_path, capsys, monkeypatch, csv):
    trials = []
    monkeypatch.setattr(experiments, "_run_one_trial", lambda *a: trials.append(a[2]))
    argv = ["mc", *_command_inputs(tmp_path, "mc"), "--out", str(tmp_path / "r.txt")]
    assert dispatch([*argv, "--csv", csv and str(tmp_path / csv)]) == 2
    assert trials == [] and not (tmp_path / "r.txt").exists()
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory: ")


def test_lift_refuses_an_assignment_path_before_writing_the_lift(tmp_path, capsys):
    argv = ["lift", *_command_inputs(tmp_path, "lift"), "--out", str(tmp_path / "ok.graph"),
            "--save-assignment", str(tmp_path / "nodir" / "a")]
    assert dispatch(argv) == 2
    assert not (tmp_path / "ok.graph").exists()
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory: ")


def test_spec_over_the_dense_cap_builds_no_matrix(tmp_path, capsys):
    # the 5001 x 5001 adjacency matrix alone would take 200 MB
    g_path = tmp_path / "c5001.graph"
    fileio.write_graph(ll.cycle_graph(5001), str(g_path))
    tracemalloc.start()
    try:
        assert dispatch(["spec", "--graph", str(g_path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", "error: dense solver capped at n=5000, got 5001\n")
    assert peak < 10 * 2**20


NOT_UTF8 = {  # reader -> file bytes with 0x85, which no UTF-8 text holds, on line 3
    "read_graph": b"4 3\n0 1\n0 \x852\n0 3\n1 2\n1 3\n2 3\n",
    "read_assignment": b"3 6\nshift 0\nshift \x851\nshift 0\nshift 0\nshift 0\nshift 0\n",
    "read_config": b"base = complete 4\ntrials = 2\n# \x85\nseed = 1\n",
}


@pytest.mark.parametrize("reader", list(NOT_UTF8))
def test_a_byte_that_is_not_utf8_is_a_format_error(tmp_path, reader):
    path = tmp_path / "file"
    path.write_bytes(NOT_UTF8[reader])
    with pytest.raises(FormatError) as info:
        getattr(fileio, reader)(str(path))
    # UnicodeDecodeError is a ValueError too, so only the exact type tells them apart
    assert type(info.value) is FormatError
    assert str(info.value) == "line 3: byte 0x85 is not UTF-8"


def test_utf8_text_beyond_ascii_still_reads(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# λ ≤ 2√(d−1)\nbase = complete 4\ntrials = 2\nseed = 1\n", "utf-8")
    assert fileio.read_config(str(path)).trials == 2


@pytest.mark.parametrize("route", ["spec", "lift", "verify-shift", "mc", "mc-base"])
def test_a_file_that_is_not_utf8_exits_two_on_every_route(tmp_path, capsys, route):
    good, bad, out = tmp_path / "k4.graph", tmp_path / "bad", tmp_path / "out"
    fileio.write_graph(ll.complete_graph(4), str(good))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"base = file {bad}\ntrials = 2\nseed = 1\n")
    reader, argv = {
        "spec": ("read_graph", ["spec", "--graph", str(bad)]),
        "lift": ("read_assignment", ["lift", "--graph", str(good), "--assignment", str(bad)]),
        "verify-shift": ("read_assignment",
                         ["verify-shift", "--graph", str(good), "--assignment", str(bad)]),
        "mc": ("read_config", ["mc", "--config", str(bad)]),
        "mc-base": ("read_graph", ["mc", "--config", str(cfg)]),
    }[route]
    bad.write_bytes(NOT_UTF8[reader])
    assert dispatch([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: line 3: byte 0x85 is not UTF-8\n")
    assert not out.exists()

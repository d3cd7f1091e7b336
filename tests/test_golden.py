"""Golden bytes of the CLI artifacts and reports.

Each digest is the sha256 of a file or of the stdout written by the CLI.
The `gen` and `lift` digests were recorded from the per-edge-loop
implementation that the array-backed graphs, lifts and fileio replaced;
the report digests were recorded from the hand-written report writers and
the separate real and complex dense eigensolvers, before one `key = value`
emitter and one eigensolver took their place. Criterion 11 only checks that
a rerun gives the same bytes; these digests check that the bytes agree
across implementations, so a refactor must reproduce them exactly.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import liftlab as ll
from liftlab import fileio
from liftlab.cli import dispatch

# gen arguments -> digest of the written edge list. The three small
# random_regular cases restart the stub pairing (4, 9 and 18 restarts).
GEN_CASES = {
    "random_regular --n 12 --d 3 --seed 6":
        "98d050112c21b259684d91b4381d4bd903d761c499518b5eed98e43233341ee3",
    "random_regular --n 6 --d 3 --seed 4":
        "52426d279dca2d3eb2cedfd15608f56b4e7150390803ed3ec0c39dbb7fca31de",
    "random_regular --n 8 --d 5 --seed 14":
        "f1926a4cae5cbe40fe82ebd709a9e34a5b7a3468e60256554ba2dc4dbe66e6d9",
    "random_regular --n 10 --d 7 --seed 2":
        "80b33be598a27138935395f0e500f8182aa425fcf174b7ec04ffe2e6c55a71fc",
    "random_regular --n 500 --d 6 --seed 1":
        "cae54f89e095714abc1a50a0c1f9050850bf64de9819223e3499e361a82e880a",
    "random_regular --n 2000 --d 5 --seed 9":
        "83303a665c5cc8a779981dfc0cbe52dd00b94daf22f41afe6fbb03d9952a8fb6",
    "random_regular --n 20 --d 3 --seed 2 --copies 3":
        "9e3cac692c68fdefbd06d3d05155f60fd1f900eb87b901e23ed604019d5de3ff",
    "complete --m 6":
        "11563cef3b6f1d69fda1b84eb28d0d5bf7cc3da726a514138aa176dafdcffff7",
    "complete --m 4 --copies 2":
        "ed486170e4d116cc919e5b144bbcda6eae3fda8020f4335eea09d076b9eca1ea",
    "complete_bipartite --m 3":
        "87be0d005ae7f221ab73ec2c6f033095afd40020752bb3a8ea4507a53ac92825",
    "cycle --n 7":
        "7fafc86a75354a2f8b0644226a30e73349be6c7abc7dfb0ae1093fac4bf79c6f",
    "random_regular --n 1000 --d 3 --seed 4":
        "9173986b31fc7b889d604a8b9b58f9bded01325fbe50f96999cf602d307c95ac",
}

LIFT_BASE = "random_regular --n 40 --d 5 --seed 3"
LARGE_BASE = "random_regular --n 2000 --d 6 --seed 11"
# A 12-lift of WIDE_BASE has 5-digit vertex ids and 2-digit perm images.
# Its digests, and the WIDE_BASE gen digest, were recorded from the
# %-format edge-list and assignment writers, before the digit-table writer
# replaced them.
WIDE_BASE = "random_regular --n 1000 --d 3 --seed 4"

# (base, lift arguments) -> (digest of the lift, digest of the saved assignment)
LIFT_CASES = {
    (LIFT_BASE, "--mode two_lift --seed 5"): (
        "0e710e4896b87922ecedcacbb021180c24f31090afbd6b94e9269d7663e733f0",
        "192e68f1adfe6826ebf016a81e406104b23950069cdf662650fca255d07740d4",
    ),
    (LIFT_BASE, "--mode shift_lift --k 3 --seed 5"): (
        "625bc5c05ef33c5b538a44cf92c9212370645cbe02ea670a344f697b3ca7fb3e",
        "cfd5f4aefe266553aec9ccc468947a9a4f435a197ddb1a2f9de4531052ab1550",
    ),
    (LIFT_BASE, "--mode k_lift --k 4 --seed 5"): (
        "f42a829b05d246d2e0578841efe705623f4f9648192fbe359a1d2c9800effa2d",
        "6c156c931f450af748a15cf9ee598024d6ef5a362d09bd127066f8da5dd31bbf",
    ),
    (LIFT_BASE, "--mode k_lift --k 2 --seed 8"): (
        "ed2133c20485be0ce721a6ec0a89f38482dbbbd819907854c7eb4d384887d029",
        "950a60622de0dd0cb70ef9e7c815037b132f9c31734525030760ff693ebe8fa5",
    ),
    (LARGE_BASE, "--mode shift_lift --k 4 --seed 7"): (
        "aeb793432de437f065903f8801fdf6847af681d852f7fbdb9b71645673c113ec",
        "f4b41e30db826ed5ed875f58a93433a54b1ade6fab95e85b48d86880f741d637",
    ),
    (WIDE_BASE, "--mode k_lift --k 12 --seed 9"): (
        "cffc2fca9f78b7915e3681860f5c2f97d8653a3ad703af06a7103b7666895198",
        "2e3b3f204f900b9208646764410fa275ca737f9bdbdcc98c775c2914f936c046",
    ),
}

# digest of the lift replayed from an all-shift assignment file (k = 5)
SHIFT_REPLAY = "735684e177ec71c75617a674f6f1ac37ef2e1ad2abb77f2b396132e54e8bbd2b"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(list(argv))
    assert code == 0, f"exit {code} for {argv}"


def _gen(tmp: Path, spec: str) -> Path:
    out = tmp / "base.graph"
    _cli("gen", "--family", *spec.split(), "--out", str(out))
    return out


@pytest.mark.parametrize("spec", sorted(GEN_CASES))
def test_gen_bytes(tmp_path, spec):
    assert _sha256(_gen(tmp_path, spec)) == GEN_CASES[spec]


@pytest.mark.parametrize("case", sorted(LIFT_CASES), ids=lambda c: f"{c[0]} | {c[1]}")
def test_lift_and_replay_bytes(tmp_path, case):
    base_spec, lift_args = case
    base = _gen(tmp_path, base_spec)
    lift, assign, replay = (tmp_path / name for name in ("lift", "assign", "replay"))
    _cli("lift", "--graph", str(base), *lift_args.split(), "--out", str(lift),
         "--save-assignment", str(assign))
    assert (_sha256(lift), _sha256(assign)) == LIFT_CASES[case]
    _cli("lift", "--graph", str(base), "--assignment", str(assign), "--out", str(replay))
    assert replay.read_bytes() == lift.read_bytes()


def test_shift_file_replay_bytes(tmp_path):
    base = _gen(tmp_path, LIFT_BASE)
    shifts = ll.random_shift_lift(fileio.read_graph(str(base)), 5, 13)
    assign, lift = tmp_path / "assign", tmp_path / "lift"
    fileio.write_assignment(shifts, str(assign))
    _cli("lift", "--graph", str(base), "--assignment", str(assign), "--out", str(lift))
    assert _sha256(lift) == SHIFT_REPLAY


# Bases of the report digests stay at n <= 60: the last digits of a dense
# eigensolve can move with the BLAS thread count from n of about 300 on.
#
# The `eml` and `lemma3` digests were re-recorded when their lambda moved
# from the dense spectrum to lambda_nontrivial_sparse. Only the lambda line
# changed (and lemma3's max_ratio, whose bound uses lambda), each by at most
# 8e-15: complete 5 eml 1.0 -> 1.0000000000000002, K33 eml --bipartite
# 4.440892098500626e-16 -> 0.0, SMALL eml 2.5830822224039203 -> ...185, MID
# eml sampled 3.3401253667336874 -> ...954 (max_ratio unchanged), MID lemma3
# max_ratio 0.03269512311947214 -> 0.032695123119472105.
#
# The MID `eml --method sampled` and `lemma3` digests were re-recorded again
# when the Lanczos radius went from two largest-magnitude values to one:
# lambda 3.3401253667336954 -> 3.340125366733687 (max_ratio unchanged) and
# lemma3 max_ratio 0.032695123119472105 -> 0.03269512311947215.
#
# The SMALL `eml` and the MID `eml --method sampled` and `lemma3` digests were
# re-recorded a third time when the Lanczos radius moved to the squared
# operator (one largest value of x -> P(A(A x)), radius its square root):
# SMALL lambda 2.5830822224039185 -> 2.58308222240392, MID lambda
# 3.340125366733687 -> 3.340125366733685 (max_ratio unchanged), lemma3
# max_ratio 0.03269512311947215 -> 0.032695123119472154; at most 1.8e-15.
#
# The `complete 5` `eml` and the MID `eml --method sampled` and `lemma3`
# digests were re-recorded when the Lanczos radius moved from ARPACK to a
# plain three-term Lanczos (no stored basis): complete 5 lambda
# 1.0000000000000002 -> 1.0, MID lambda 3.340125366733685 ->
# 3.340125366733686 (max_ratio unchanged), lemma3 max_ratio
# 0.032695123119472154 -> 0.03269512311947215; at most 8.9e-16. Only these
# lines moved.
#
# The RR24 and RR18 `cheeger` digests were recorded from the byte-table cut
# scan, before the per-hi cut grid replaced it. Both scans read vertices past
# 16, the top mask byte (h = 5/11 and 8/9).
SMALL = "random_regular --n 12 --d 3 --seed 6"
MID = "random_regular --n 60 --d 4 --seed 15"
K33 = "complete_bipartite --m 3"
RR24 = "random_regular --n 24 --d 3 --seed 5"
RR18 = "random_regular --n 18 --d 4 --seed 7"

# (base, command arguments) -> (exit code, digest of the --out report or None
# when the command writes none, digest of its stdout). The stdout digests,
# the `--tol 0` case and the not-applicable `lemma-check` case were recorded
# before one runner in `cli.dispatch` took over reading --graph, writing
# --out and printing the summary: a FAILED `verify-shift` writes no report,
# a VIOLATED `eml` and a not-applicable `lemma-check` still write theirs.
REPORT_CASES = {
    ("complete --m 2", "lemma-check --which lemma3 --trials 5 --seed 0"):
        (0, "efa69b05bc2a73f74ce51b735b46a469da1dc74e1d14d872f807a4893a783ef2",
         "ecfe11791a88e1273f19fb847f4cb8cef32138d1e9d07b5c3dfbb09335233da5"),
    ("complete --m 4", "search-signing"):
        (0, "38498737880caef21fc1a27db9b585f9b771c93b5059a237afb607e7347b8e82",
         "18d7c5e7c71919e6922ca11f9aa7dcef10448601a73cc258a8d345ffa7f4421f"),
    ("complete --m 5", "eml"):
        (0, "55c0821feb40bb4f802342734762e6d621c0e64dbe13ca0ae7319f256de72a62",
         "3022745ef0f0b3b737d4aeb31a0941e93042b1e5164cf1745e632323ee099ccc"),
    (K33, "cheeger"):
        (0, "1d3b661a96bfe4d1d6cc9c6c466946e40ca5cb206bf4a3f17016ec45aee9d0b7",
         "968f0739c816fb7716fd6b2173a78600f21b657a489f4bd907bb747d445eea48"),
    (K33, "eml --bipartite"):
        (1, "f728bc6e46b4d16deb329a1f0b20d038a469e8f9db3381156b5ee9ca194a73cc",
         "6e4bcfee4394e85a55fe1c407ed9b09bd7e78d14bedcbdb0e1e33bb2cbf7e22d"),
    (K33, "spec"):
        (0, "f4283f99653aa159ee386229d73a3a8497cca5aa88e0514d2bacad541e1af959",
         "8f8e03351dfaced4df03224295dd7fc7f638142286bbce41fd38af40dfada2f0"),
    (K33, "verify-shift --k 4 --shifts 0,1,2,3,0,1,2,3,1"):
        (0, "dedde6a4617c828f880a98db4525583d76d23c7a74195006e73907d1e8b162df",
         "5514df93d869d1b05371fdac8b2facef51bc51af08aeb37617401115fb578281"),
    (K33, "verify-shift --k 4 --shifts 0,1,2,3,0,1,2,3,1 --tol 0"):
        (1, None,
         "c00d3f66bf83e518d304328299447fd710be43e306cd2c439ef87bc5b39e7c5e"),
    ("random_regular --n 10 --d 3 --seed 2", "search-signing"):
        (0, "dd645d4d96d9d0f98c7a1e31b90152d1acf4ae6cc3ddc1cebfd1000a9115c574",
         "e31113f706a4b6cae3e28b87344d907ef19edff651e6cf9e273d21163f69ae5b"),
    (SMALL, "cheeger"):
        (0, "5659239c7162e391853c01a24b9e17d4c173b9080a233a4d40739e601081530a",
         "b4794252428214c58121febfc93fd5b68a122de225a9c29493070f9a22db1373"),
    (SMALL, "eml"):
        (0, "dadf30561d828d1c07ad4040a7381a828d3e4de325317e0fb293363218b8c392",
         "b4a45ce7dcec893efad29ce44e4ae2127d8fc40c86001b04c11ff9c51f12fef6"),
    (SMALL, "verify-shift --k 3 --shifts 0,1,2,0,1,2,2,1,0,0,0,1,1,2,2,0,2,1"):
        (0, "8f074f415b53ac2798f0c00857811b57a36f14c46b0819fbc8bef9d5691a8dde",
         "a6fe61ae50847d0d9e4d0710746eea2084b5b3a199a70e0317b722183a63740b"),
    (RR18, "cheeger"):
        (0, "928ff2f433070b795ec92a3523b22dacbe0d8c98f6ab71334b5afdb311867ef6",
         "efa505af9cc7fe3eb01bfbc126b774fe780660c8fda94cb6ed862f89aa8958e9"),
    (RR24, "cheeger"):
        (0, "c155e40afd64724df262ceb7b151a78a92ceaee8be552fe383d22be447ba8a11",
         "f1e6a8c530c11bb01be8cac6d159faff4daad21849ae9fb645b7271d669e1685"),
    (MID, "eml --method sampled --samples 300 --seed 2"):
        (0, "c765d46d331b320294918cc67d08dd943e62e8698ca2c77d16233f84eb8c1dd4",
         "df6118c17452dd81e2dac2e0320452fa81bbeb4d4cd80f400b88edc78f6081d4"),
    (MID, "lemma-check --which lemma3 --trials 300 --seed 1"):
        (0, "8159c8b625f10c5c4f2beb681770ea1998fcfe5a52ac3d1c32192665930df960",
         "56653c354dc9a7d8249a6ac029ff886d2a5f44f965e534111c4bd1f6d257974f"),
    (MID, "lemma-check --which lemma4 --trials 300 --seed 1"):
        (0, "38541918585a016c9023094af5a2d459e5b6b31a5bd82c3d71adaec72236bccc",
         "3aa51f8ffbfe730944e0cd4d83f03cbc9727511f4023b5677c80890266a70e75"),
    (MID, "spec"):
        (0, "6457959d1ee62e9c0e5e930ce772568d6b6615e123b1e4df002567e2660fde6d",
         "5337f378c7a1c3978dd00573d7fc2941caba81f84f7ace03bcd64712694c41b1"),
}

# `mc` config -> (digest of the report, digest of the CSV). The shift_lift
# digests were re-recorded when the Lanczos radius went from two
# largest-magnitude values to one: the lambda line, the quantiles, the radii
# and the CSV values moved by at most 7.6e-15 (lambda 3.229884191454287 ->
# 3.2298841914542944, trial 0 lambda_new 3.3847475853613775 -> ...727).
#
# Both were re-recorded again when bases of order <= 128 moved from Lanczos
# root radii to dense root stacks (one root-radius routine). The radii, the
# lambda_new values, the quantiles and the CSV values moved by at most
# 6.3e-15 (random_regular 40 trial 3 lambda_new 3.3261614730588094 ->
# 3.326161473058803; 3 x K_4 trial 1 2.236067977499791 -> 2.23606797749979);
# lambda did not move. On 3 x K_4, lambda = d = 3 (the base is disconnected)
# and four trials have lambda_new = 3 exactly, which Lanczos gave as
# 3.0000000000000004 to 3.0000000000000013 and the stacks give as 3.0. So
# `frac lambda_new <= 1.0*lambda` moved 0.3333333333333333 -> 1.0, the exact
# value: a comparison at c*lambda = d had no slack then. The `frac` lines now
# compare with the absolute slack BOUND_SLACK, and neither digest moved.
#
# The random_regular 40 report was re-recorded when the Lanczos radius moved
# to the squared operator: only the lambda line moved, 3.2298841914542944 ->
# 3.229884191454286 (8.4e-15); its roots come from dense stacks, and the CSV
# did not change.
#
# It was re-recorded again when the Lanczos radius moved from ARPACK to a
# plain three-term Lanczos: only the lambda line moved, 3.229884191454286 ->
# 3.229884191454287 (8.9e-16), and the CSV did not change.
MC_CASES = {
    "base = complete 4\ncopies = 3\nmode = two_lift\ntrials = 6\nseed = 2\n"
    "constants = 0.5,1,2\n": (
        "ab79968970a7ef295c8c85f3b820a47621518d5b68708e271d032eb45becac44",
        "7e70aff816974c055bb07a719eb557e20c950ea0e0dd80710511c25ba44fa152",
    ),
    "base = random_regular 40 4 3\nmode = shift_lift\nk = 3\ntrials = 5\nseed = 11\n": (
        "f5bd9d53a23d32146772a8dca923d44cd2eb772ae5cf0ae9d0e56237b5943af7",
        "8f3c4aba5e4502626afdc7e9ca36661d9b8b59b81c978a92031bc75626facea9",
    ),
}

def _report_case_id(case):
    return f"{case[0]} | {case[1]}"


@pytest.mark.parametrize("case", sorted(REPORT_CASES), ids=_report_case_id)
def test_report_bytes(tmp_path, case):
    base_spec, args = case
    code, digest, stdout_digest = REPORT_CASES[case]
    out = tmp_path / "report"
    argv = [args.split()[0], "--graph", str(_gen(tmp_path, base_spec)),
            *args.split()[1:], "--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert dispatch(argv) == code
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == stdout_digest
    if digest is None:
        assert not out.exists()
    else:
        assert _sha256(out) == digest


@pytest.mark.parametrize("config", sorted(MC_CASES))
def test_mc_report_and_csv_bytes(tmp_path, config):
    cfg, out, csv = tmp_path / "exp.cfg", tmp_path / "report", tmp_path / "trials.csv"
    cfg.write_text(config)
    _cli("mc", "--config", str(cfg), "--threads", "1", "--out", str(out), "--csv", str(csv))
    assert (_sha256(out), _sha256(csv)) == MC_CASES[config]


# `grow` report digests, recorded after grow moved to root scoring with the
# CROSS_CHECK_TOL tie rule; the dense-scored reports before it differ in
# their last digits and, where candidates tied, in the kept lift. The K_4,
# C_7 and SMALL digests were re-recorded when the Lanczos radius went from
# two largest-magnitude values to one: each level keeps the same lift, and
# the lambda and lambda_new lines moved by at most 5.8e-15 (K_4 level 4
# 2.7379199118747035 -> ...093).
#
# The K_4, K_{3,3} and SMALL digests were re-recorded again when a level
# began to report the radius its candidate ranking computed (dense root
# stacks on graphs of order <= 128) instead of solving the kept candidate's
# roots a second time by Lanczos. Each level keeps the same n and the same
# lift, and the lambda and lambda_new lines moved by at most 8.5e-15: K_4
# level 5 2.7427625761389085 -> 2.7427625761389, K_{3,3} level 1 lambda_new
# 2.000000000000001 -> 2.0, SMALL level 2 2.7570681847639973 -> ...96. The
# C_7 bytes did not change.
#
# The K_{3,3} and SMALL digests were re-recorded when the Lanczos radius
# moved to the squared operator. Only the level-0 lambda (the sparse base
# lambda) moved, and the levels that carry it: K_{3,3} 3.0 ->
# 2.9999999999999996 (levels 0 and 1), SMALL 2.5830822224039185 ->
# 2.58308222240392; at most 1.3e-15. Every level builds the same lift as
# before (a spy on build_shift_lift), and the K_4 and C_7 bytes did not
# change.
#
# The K_{3,3} and C_7 digests were re-recorded when the Lanczos radius moved
# from ARPACK to a plain three-term Lanczos. Only the level-0 lambda moved,
# and the levels that carry it: K_{3,3} 2.9999999999999996 -> 3.0 (levels 0
# and 1), C_7 1.8019377358048385 -> 1.801937735804838; at most 4.4e-16. The
# K_4 and SMALL bytes did not change.
GROW_CASES = {
    ("complete --m 4", "--levels 5 --samples 50 --k 2 --seed 3"):
        "9d8806b4f83203849c1e613cbd3343cbc0d59a1970e14765ddae899700c2644d",
    (K33, "--levels 1 --samples 512 --k 2 --seed 0"):
        "d5b9673df9ac1112bceb7e1033fad04c887e55efa2363cbf0a85ac9181a0837f",
    ("cycle --n 7", "--levels 2 --samples 25 --k 3 --seed 2"):
        "b9ba812be11e7d7c0168ca30e55caba1fe7b34d559f3efda2b25bb8bbca785eb",
    (SMALL, "--levels 2 --samples 10 --k 4 --seed 1"):
        "1be2ace99ea824ab75fbaf72522f8c1a237917bda74453150878b636a8e1e926",
}


@pytest.mark.parametrize("case", sorted(GROW_CASES), ids=_report_case_id)
def test_grow_report_bytes(tmp_path, case):
    base_spec, args = case
    out = tmp_path / "report"
    _cli("grow", "--graph", str(_gen(tmp_path, base_spec)), *args.split(), "--out", str(out))
    assert _sha256(out) == GROW_CASES[case]

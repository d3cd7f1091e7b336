"""Golden bytes of the `gen` and `lift` artifacts.

Each digest is the sha256 of a file written by the CLI, recorded from the
per-edge-loop implementation that the array-backed graphs, lifts and fileio
replaced. Criterion 11 only checks that a rerun gives the same bytes; these
digests check that the bytes agree across implementations, so a refactor of
the storage, the lift construction, the stub pairing or the text writers must
reproduce them exactly.
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
}

LIFT_BASE = "random_regular --n 40 --d 5 --seed 3"
LARGE_BASE = "random_regular --n 2000 --d 6 --seed 11"

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

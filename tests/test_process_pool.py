"""Campaign trials in forked child processes: clamped pool size, identical
bytes under any worker count, separate processes, loud child deaths and
errors, and no child left running after the campaign (the autouse fixture
in conftest.py checks that after every test)."""
import os
import signal
import subprocess
import sys

import pytest

import liftlab as ll
from liftlab import experiments
from liftlab.cli import dispatch
from liftlab.errors import InvalidParameterError, NumericalError
from liftlab.fileio import experiment_report_csv, experiment_report_text

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_pool_size_is_clamped_without_starting_processes():
    # pure arithmetic: a huge request is cut to the trials and the CPUs
    assert experiments.pool_size(10**6, 10**9) == CPUS
    assert experiments.pool_size(10**6, 1) == 1
    assert experiments.pool_size(10**6, 3) == min(3, CPUS)
    assert experiments.pool_size(0, 5) == 1
    assert experiments.pool_size(-4, 5) == 1


@pytest.mark.parametrize("trials", [1, 2, 5, 7])
def test_reports_identical_across_worker_counts(trials):
    cfg = ll.ExperimentConfig("random_regular 16 3 2", 3, trials, 42,
                              (1.0, 3.0), "shift_lift")
    reports = [ll.run_lift_trials(cfg, threads=t) for t in (1, 2, 3)]
    assert reports[0].workers == 1 and reports[1].workers == min(2, trials, CPUS)
    assert [r.index for r in reports[2].records] == list(range(trials))
    assert len({experiment_report_text(r) for r in reports}) == 1
    assert len({experiment_report_csv(r) for r in reports}) == 1


@pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs")
def test_trials_run_in_two_worker_processes(monkeypatch, tmp_path):
    real = experiments._run_one_trial

    def record_pid(g, cfg, index):
        (tmp_path / f"{index}.pid").write_text(str(os.getpid()))
        return real(g, cfg, index)

    monkeypatch.setattr(experiments, "_run_one_trial", record_pid)
    cfg = ll.ExperimentConfig("random_regular 16 3 2", 3, 4, 42, (3.0,),
                              "shift_lift")
    report = ll.run_lift_trials(cfg, threads=2)
    assert report.failed == 0 and report.workers == 2
    pids = [int((tmp_path / f"{i}.pid").read_text()) for i in range(4)]
    # contiguous chunks: trials 0-1 in one forked child, 2-3 in the caller
    assert pids[0] == pids[1] != pids[2] == pids[3]
    assert pids[2] == os.getpid() != pids[0]


@pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs")
def test_dead_worker_raises(monkeypatch):
    real = experiments._run_one_trial

    def die_on_one(g, cfg, index):
        if index == 1:
            os._exit(1)
        return real(g, cfg, index)

    monkeypatch.setattr(experiments, "_run_one_trial", die_on_one)
    cfg = ll.ExperimentConfig("random_regular 16 3 2", 3, 4, 42, (3.0,),
                              "shift_lift")
    with pytest.raises(NumericalError, match="campaign worker process died"):
        ll.run_lift_trials(cfg, threads=2)


@pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs")
def test_dead_worker_makes_mc_exit_three(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("base = random_regular 16 3 2\nmode = shift_lift\n"
                        "k = 3\ntrials = 4\nseed = 42\n")
    out = tmp_path / "report.txt"
    script = (
        "import os\n"
        "from liftlab import experiments\n"
        "from liftlab.cli import main\n"
        "real = experiments._run_one_trial\n"
        "experiments._run_one_trial = (\n"
        "    lambda g, cfg, i: os._exit(1) if i == 1 else real(g, cfg, i))\n"
        "main()\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script, "mc", "--config", str(cfg_path),
         "--threads", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "campaign worker process died" in proc.stderr
    assert not out.exists()


def test_mc_summary_shows_workers_and_throughput(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("base = random_regular 16 3 2\nk = 3\nmode = shift_lift\n"
                        "trials = 4\nseed = 42\n")
    assert dispatch(["mc", "--config", str(cfg_path), "--threads", "2"]) == 0
    line = capsys.readouterr().out.strip()
    workers = min(2, CPUS)
    assert f", {workers} worker{'s' if workers > 1 else ''}, " in line
    assert line.endswith(" trials/s")


@pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs")
def test_error_in_a_child_chunk_reaches_the_caller(monkeypatch):
    real = experiments._run_one_trial

    def fail_on_zero(g, cfg, index):
        if index == 0:
            raise ValueError("trial zero broke")
        return real(g, cfg, index)

    monkeypatch.setattr(experiments, "_run_one_trial", fail_on_zero)
    cfg = ll.ExperimentConfig("random_regular 16 3 2", 3, 4, 42, (3.0,),
                              "shift_lift")
    with pytest.raises(ValueError, match="trial zero broke"):
        ll.run_lift_trials(cfg, threads=2)


def _record_forks(monkeypatch):
    """The pids os.fork returns to the caller, in order, from now on."""
    real_fork, forked = os.fork, []

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


@pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs")
def test_error_in_the_callers_chunk_propagates_and_children_are_reaped(monkeypatch):
    real_run = experiments._run_one_trial

    def fail_on_three(g, cfg, index):
        if index == 3:
            raise ValueError("trial three broke")
        return real_run(g, cfg, index)

    monkeypatch.setattr(experiments, "_run_one_trial", fail_on_three)
    forked = _record_forks(monkeypatch)
    cfg = ll.ExperimentConfig("random_regular 16 3 2", 3, 4, 42, (3.0,),
                              "shift_lift")
    with pytest.raises(ValueError, match="trial three broke"):
        ll.run_lift_trials(cfg, threads=2)
    assert len(forked) == 1
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs")
def test_base_lambda_is_solved_in_the_caller_while_the_children_run(monkeypatch):
    real_lambda = experiments.lambda_nontrivial_sparse
    cfg = ll.ExperimentConfig("random_regular 16 3 2", 3, 4, 42, (1.0, 3.0), "shift_lift")
    serial = ll.run_lift_trials(cfg, threads=1)
    forked, solved = _record_forks(monkeypatch), []

    def recording_lambda(g):
        solved.append((len(forked), os.getpid()))
        return real_lambda(g)

    monkeypatch.setattr(experiments, "lambda_nontrivial_sparse", recording_lambda)
    parallel = ll.run_lift_trials(cfg, threads=2)
    assert parallel.workers == 2 and solved == [(1, os.getpid())]
    assert experiment_report_text(parallel) == experiment_report_text(serial)
    assert experiment_report_csv(parallel) == experiment_report_csv(serial)


@pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs")
def test_base_lambda_failure_reads_the_same_in_one_and_two_processes(monkeypatch):
    # one process solves the base first and runs no trial after it fails;
    # with two, the caller runs none and kills the child it forked
    real_run, caller = experiments._run_one_trial, os.getpid()
    caller_trials = []

    def base_fails(g):
        raise NumericalError("Lanczos on the base graph failed: injected")

    def recording_run(g, cfg, index):
        if os.getpid() == caller:
            caller_trials.append(index)
        return real_run(g, cfg, index)

    monkeypatch.setattr(experiments, "lambda_nontrivial_sparse", base_fails)
    monkeypatch.setattr(experiments, "_run_one_trial", recording_run)
    forked = _record_forks(monkeypatch)
    cfg = ll.ExperimentConfig("random_regular 40 3 2", 3, 4, 5, (1.0, 3.0), "shift_lift")
    reports = [ll.run_lift_trials(cfg, threads=threads) for threads in (1, 2)]
    assert [r.workers for r in reports] == [1, 2] and len(forked) == 1
    assert caller_trials == []
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    for report in reports:
        assert report.failed == cfg.trials
        assert [r.error for r in report.records] == (
            ["base lambda: Lanczos on the base graph failed: injected"] * cfg.trials)
    assert len({experiment_report_text(r) for r in reports}) == 1
    assert len({experiment_report_csv(r) for r in reports}) == 1


@pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs")
def test_child_killed_by_a_signal_raises_naming_it(monkeypatch):
    real = experiments._run_one_trial

    def kill_on_one(g, cfg, index):
        if index == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(g, cfg, index)

    monkeypatch.setattr(experiments, "_run_one_trial", kill_on_one)
    cfg = ll.ExperimentConfig("random_regular 16 3 2", 3, 4, 42, (3.0,),
                              "shift_lift")
    with pytest.raises(NumericalError,
                       match="campaign worker process died: SIGKILL"):
        ll.run_lift_trials(cfg, threads=2)


def test_threads_below_one_raise_before_any_fork_or_trial(monkeypatch):
    started = []
    monkeypatch.setattr(experiments, "_run_one_trial", lambda *a: started.append("trial"))
    monkeypatch.setattr(os, "fork", lambda: started.append("fork"))
    cfg = ll.ExperimentConfig("random_regular 16 3 2", 3, 4, 42, (3.0,), "shift_lift")
    for bad in (0, -3):
        with pytest.raises(InvalidParameterError, match=f"^threads must be >= 1, got {bad}$"):
            ll.run_lift_trials(cfg, threads=bad)
    assert started == []

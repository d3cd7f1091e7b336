import os

import numpy as np
import pytest

import liftlab as ll


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped
    (a campaign forks children and must reap every one on every path)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({pid or 'still running'})")


@pytest.fixture
def k4():
    return ll.complete_graph(4)


@pytest.fixture
def k5():
    return ll.complete_graph(5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_base(rng, n_range=(6, 12), degrees=(3, 4)):
    """A random small regular base graph for randomized test loops."""
    while True:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        d = int(rng.choice(degrees))
        if n * d % 2 == 0 and d < n:
            return ll.random_regular(n, d, int(rng.integers(0, 2**63)))

"""The backward-leg worker of ``solve``: its life cycle and its answers.

Every answer is compared bit for bit with the serial solve, which runs where
``os.fork`` is missing.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import spreadimpact
from spreadimpact import _worker, solver
from spreadimpact.market import MarketParams
from spreadimpact.montecarlo import SimConfig, simulate_paths

BASE = dict(mu=0.08, sigma=0.16, gamma=5.0)
PARAMS = [MarketParams(epsilon=1e-3, lam=1e-4, **BASE),
          MarketParams(epsilon=1e-2, lam=1e-2, **BASE)]

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the worker needs os.fork")


def answer(sol):
    """What must not move: the rate, the band, and q's knots and
    coefficients, as bits, and the work of the legs shot."""
    return (sol.beta.hex(), sol.y_minus.hex(), sol.y_plus.hex(),
            sol.q.knots.tobytes(), sol.q.coeffs.tobytes(),
            repr(sol.diagnostics["leg_work"]))


@pytest.fixture(scope="module")
def serial():
    """The serial answers: without os.fork both legs run in the caller."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(os, "fork")
        return [answer(solver.solve(p)) for p in PARAMS]


def alive(pid):
    """Whether pid runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def wait_gone(pid, seconds):
    deadline = time.monotonic() + seconds
    while alive(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def run_python(code, **kwargs):
    src = os.path.dirname(os.path.dirname(spreadimpact.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(code)],
                            env=env, text=True, **kwargs)


SOLVE_ONCE = """
    import spreadimpact as si
    from spreadimpact import _worker
    si.solve(si.MarketParams(epsilon=1e-3, lam=1e-4, mu=0.08, sigma=0.16,
                             gamma=5.0))
"""


def test_worker_exits_when_its_caller_is_killed():
    proc = run_python(SOLVE_ONCE + """
    print(_worker._proc[0], flush=True)
    import sys; sys.stdin.read()
    """, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        worker = int(proc.stdout.readline())
        assert alive(worker)
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    assert wait_gone(worker, 2.0)


def test_normal_exit_leaves_no_child():
    # Registered before the package's own exit handler, so it runs after
    # it; a child still running or unreaped then shows in waitpid.
    proc = run_python("""
    import atexit, os

    def children():
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("none")
        else:
            print("child")

    atexit.register(children)
    """ + SOLVE_ONCE + """
    print(_worker._proc is not None)
    """, stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out.split() == ["True", "none"]


def test_forked_process_gets_its_own_worker(serial):
    solver.solve(PARAMS[0])
    parent_worker = _worker._proc[0]
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            same = answer(solver.solve(PARAMS[1])) == serial[1]
            own = _worker._proc[0] != parent_worker
            _worker.stop()
            os.write(write_end, b"%d %d" % (same, own))
        finally:
            os._exit(0)
    os.close(write_end)
    with open(read_end, "rb") as fh:
        reply = fh.read()
    os.waitpid(pid, 0)
    assert reply == b"1 1"
    assert _worker._proc[0] == parent_worker
    assert answer(solver.solve(PARAMS[0])) == serial[0]


def test_threads_solving_at_once(serial):
    # More threads than cores, switching as often as the interpreter can.
    got = {}

    def run(i):
        got[i] = answer(solver.solve(PARAMS[i % 2]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [got[i] for i in range(3)] == [serial[0], serial[1], serial[0]]


def test_fork_while_a_simulation_thread_runs(serial):
    # The worker is forked during this solve, while a simulation's thread
    # and its shock-drawing thread are alive: its policy holds it there.
    _worker.stop()
    inside, release = threading.Event(), threading.Event()

    def hold(y):
        inside.set()
        release.wait()
        return 0.0 * y

    cfg = SimConfig(horizon_T=1.0, dt=0.01, n_paths=2, burn_in_T=0.5)
    sim = threading.Thread(target=simulate_paths, args=(PARAMS[0], hold, cfg))
    sim.start()
    try:
        assert inside.wait(timeout=60)
        got = answer(solver.solve(PARAMS[0]))
        assert sim.is_alive()
    finally:
        release.set()
        sim.join(timeout=60)
    assert not sim.is_alive()
    assert got == serial[0]


def test_worker_killed_between_solves(serial):
    assert answer(solver.solve(PARAMS[0])) == serial[0]
    worker = _worker._proc[0]
    os.kill(worker, signal.SIGKILL)
    assert wait_gone(worker, 2.0)
    assert answer(solver.solve(PARAMS[1])) == serial[1]
    assert _worker._proc[0] != worker


def test_worker_ignores_sigint(serial):
    solver.solve(PARAMS[0])
    worker = _worker._proc[0]
    os.kill(worker, signal.SIGINT)
    time.sleep(0.2)
    assert alive(worker)
    assert answer(solver.solve(PARAMS[1])) == serial[1]
    assert _worker._proc[0] == worker


def test_work_counters_sum_both_processes(no_expansion_probes):
    # Every backward leg comes back from the worker and is counted, the
    # ones after a diverged forward leg included. The search opens at the
    # inner bracket, whose two probes hold the root here.
    sol = solver.solve(PARAMS[0])
    work = sol.diagnostics["leg_work"]
    evaluations = sol.diagnostics["bisection_iterations"] + 2
    assert work["search"]["legs"] == 2 * evaluations
    assert work["final"]["legs"] == 2
    assert (work["final"]["naccepted"] == sol.diagnostics["forward_steps"]
            + sol.diagnostics["backward_steps"])


def test_diverged_forward_legs_count_the_same_work(no_expansion_probes,
                                                   monkeypatch):
    # With the inner bracket out of reach the search shoots rates where the
    # forward leg diverges. Its backward leg is shot and counted with the
    # worker and without it.
    monkeypatch.setattr(solver, "friction_loss", lambda p: 1e3)
    sol = solver.solve(PARAMS[0])
    evaluations = sol.diagnostics["bisection_iterations"] + 2
    assert sol.diagnostics["leg_work"]["search"]["legs"] == 2 * evaluations
    monkeypatch.delattr(os, "fork")
    assert answer(solver.solve(PARAMS[0])) == answer(sol)

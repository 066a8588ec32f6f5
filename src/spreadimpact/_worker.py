"""One forked worker process per process, for the solver's backward legs.

:func:`beside` makes two calls of one function, one in the calling process
while the worker makes the other. The worker is forked by the first call
and reused for the rest of the caller's life; it serves the function of
that first call, as it stood at the fork (monkeypatches made later do not
reach it), so every call passes the same function.
Arguments and results go through two pipes as pickles. The worker ignores
SIGINT, answers None for a call that raises, and exits through
``os._exit`` once its request pipe closes: when the caller exits (an exit
handler closes the pipe and reaps the worker) or dies. A process forked
later closes its inherited pipe ends (so the parent's worker still sees
EOF when the parent dies) and forks its own worker. A lock keeps two
threads from interleaving their requests. Where ``os.fork`` is missing, a
fork fails, the worker has died or the call raised there, the caller
makes the call itself, after its own. On Python 3.12+ a fork while other
threads run emits a DeprecationWarning.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading

# (pid, request fd, reply file) of this process's worker, or None.
_proc = None
_lock = threading.Lock()


def _start(fn):
    """Fork the worker that serves fn: (pid, request fd, reply file)."""
    down_r, down_w = os.pipe()
    up_r, up_w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(down_r)
        os.close(up_w)
        return pid, down_w, open(up_r, "rb")
    try:
        import signal  # here: the caller need not import it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(down_w)  # so that the caller's death is an EOF here
        os.close(up_r)
        requests, replies = open(down_r, "rb"), open(up_w, "wb")
        while True:
            args = pickle.load(requests)
            try:
                reply = fn(*args)
            except Exception:
                reply = None
            pickle.dump(reply, replies)
            replies.flush()
    finally:
        os._exit(0)


def stop(reap: bool = True) -> None:
    """Close this process's pipe ends to its worker, which then exits, and
    reap it."""
    global _proc
    if _proc:
        pid, requests, replies = _proc
        _proc = None
        os.close(requests)
        replies.close()
        if reap:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _forget() -> None:
    """In a forked child: drop the parent's worker and renew the lock,
    which a parent thread may have held."""
    global _lock
    stop(reap=False)
    _lock = threading.Lock()


if hasattr(os, "fork"):
    os.register_at_fork(after_in_child=_forget)
    atexit.register(stop)


def beside(fn, here: tuple, there: tuple):
    """``(fn(*here), fn(*there))``, the second computed in the worker at the
    same time, else in the caller after the first; ``fn`` must not return
    None."""
    global _proc
    sent = reply = None
    with _lock:
        try:
            if hasattr(os, "fork"):
                _proc = _proc or _start(fn)
                os.write(_proc[1], pickle.dumps(there))
                sent = _proc
        except OSError:  # a failed fork, a dead worker
            stop()
        try:
            result = fn(*here)
        finally:
            if sent:
                try:
                    reply = pickle.load(sent[2])
                except (EOFError, pickle.UnpicklingError):  # it died
                    stop()
                except BaseException:  # an interrupt: out of step
                    stop()
                    raise
    return result, (fn(*there) if reply is None else reply)

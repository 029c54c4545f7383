"""Independent tasks run in forked worker processes.

``train`` runs its variants, and ``copula-check`` its blocks, through
``forked_map``: up to one worker per usable CPU (``workers``), and in the
calling process where one would do or the platform cannot fork.  A task's
outcome comes back pickled, so it should be small; everything it reads it
inherits from the parent.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys

__all__ = ["workers", "forked_map"]


def workers(tasks: int) -> int:
    """Forked workers for ``tasks`` independent tasks: one per usable CPU,
    at most one per task, and none (the tasks run in this process) where
    one would do or this platform cannot fork."""
    if not hasattr(os, "fork"):
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    count = min(tasks, cpus or 1)
    return count if count > 1 else 0


def _fork(task, i: int, siblings) -> tuple[int, int]:
    """Fork a worker that runs ``task(i)`` and writes its pickled outcome,
    ``(True, result)`` or ``(False, (exception, traceback text))``, to a
    pipe; returns the pipe's read end and the worker's pid."""
    # a worker's own writes (a warning) must not carry this process's buffered output
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return read_end, pid
    status = 1
    try:  # the worker leaves only through os._exit: no atexit, no stdio flush
        os.close(read_end)
        for fd in siblings:  # with this process's parent gone, a write must fail, not block
            os.close(fd)
        try:
            outcome = True, task(i)
        except Exception as exc:
            import traceback

            outcome = False, (exc, traceback.format_exc())
        with open(write_end, "wb") as fh:
            pickle.dump(outcome, fh)
        status = 0
    finally:
        os._exit(status)


def forked_map(task, count: int, workers: int):
    """Yield ``task(i)`` for i in range(count), in order; each in a forked
    process, up to ``workers`` at once, or all in this one when ``workers``
    is 0.

    Fork, not spawn: a worker inherits ``task`` and all it reads (dataset,
    configs, seed streams) from this process, and only its pickled outcome
    comes back.  An exception ``task`` raises in a worker is raised here; a
    worker that ends without an outcome (killed, say) raises RuntimeError.
    Workers still running when this generator closes are killed.  A worker
    whose parent died ends once its write to the pipe fails.
    """
    if not workers:
        yield from map(task, range(count))
        return
    import select  # here alone, with signal: a run in this process needs neither
    import signal

    poller = select.poll()
    running = {}  # pipe read end -> (task index, pid, bytes read so far)
    outcomes = {}  # task index -> its pickled outcome
    unstarted = iter(range(count))
    try:
        for i in range(count):
            while i not in outcomes:
                for j in itertools.islice(unstarted, workers - len(running)):
                    fd, pid = _fork(task, j, running)
                    running[fd] = j, pid, []
                    poller.register(fd, select.POLLIN)
                for fd, _ in poller.poll():
                    chunk = os.read(fd, 1 << 16)
                    if chunk:
                        running[fd][2].append(chunk)
                        continue
                    j, pid, chunks = running.pop(fd)
                    poller.unregister(fd)
                    os.close(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if code:
                        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                        raise RuntimeError(f"worker {pid} of task {j} ended ({how}) with no outcome")
                    outcomes[j] = b"".join(chunks)
            done, value = pickle.loads(outcomes.pop(i))
            if not done:
                exc, trace = value
                raise exc from RuntimeError(f"raised in worker process:\n{trace}")
            yield value
    finally:
        for fd, (_, pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)

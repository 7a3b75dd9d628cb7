"""Independent chunks of work in forked worker processes: :func:`chunk_map`
runs the chunks of a dataset save or load (:mod:`ual.datagen_metrics`) and the
inference steps of :func:`ual.pipeline.evaluate_dataset`, as one process would.
"""

import itertools
import os

from .errors import UalError

# A call of up to this many chunks runs in this process: the bundled 200 and
# 500 groups are 3 and 7 chunks to save, 2 and 4 to load, and forked workers
# raised the peak memory, and slowed the training, of a run that holds them,
# while 1,000 groups (13 and 9 chunks) save and load faster with workers. An
# inference pass's chunks are its steps (pipeline._INFER_STEP groups each): the
# bundled 200 val groups are 4, and 1,000 groups (16) run faster in workers
_IN_PROCESS_CHUNKS = 8


def _serve(fn, conn) -> None:
    """A worker process: ``(True, fn(chunk))``, or ``(False, error)``, for
    each chunk that ``conn`` brings, sent back on it."""
    while True:
        chunk = conn.recv()
        try:
            reply = True, fn(chunk)
        except Exception as exc:
            reply = False, exc
        conn.send(reply)


def chunk_map(fn, chunks, count: int, where):
    """``fn(chunk)`` of each of ``chunks``, ``count`` of them, yielded in order.

    A forked worker holds what ``fn`` holds, so a chunk can be the bounds of
    a part of it. The calls run in this process when ``count`` is at most
    ``_IN_PROCESS_CHUNKS``, when one CPU is usable, or where there is no
    ``fork``. Otherwise they run in ``min(CPUs, count)`` forked worker
    processes, by turns: chunk ``i`` goes to worker ``i mod workers``, whose
    reply is read, in chunk order, before it is sent chunk ``i + workers``.
    So each worker has one chunk at a time, and ``chunks`` is read as the
    results are taken. The first error in chunk order is raised; the workers
    are stopped when the generator ends or is closed. A worker that dies
    (killed, or out of memory) is a :class:`UalError` naming ``where``.
    """
    chunks = iter(chunks)
    forks = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    workers = min(len(os.sched_getaffinity(0)) if forks else 1, count)
    if count <= _IN_PROCESS_CHUNKS or workers <= 1:
        yield from map(fn, chunks)
        return
    # imported here: about 1.3 MB of modules, which a run with no worker does not hold
    import multiprocessing

    context = multiprocessing.get_context("fork")
    processes, conns = [], []
    try:
        for chunk in itertools.islice(chunks, workers):
            conn, theirs = context.Pipe()
            processes.append(context.Process(target=_serve, args=(fn, theirs), daemon=True))
            processes[-1].start()
            theirs.close()  # so that a dead worker's end reads as closed
            conn.send(chunk)
            conns.append(conn)
        sent = len(conns)
        for index in itertools.count():
            if index == sent:
                return
            conn = conns[index % len(conns)]
            ok, result = conn.recv()
            if not ok:
                raise result
            if (chunk := next(chunks, None)) is not None:
                conn.send(chunk)
                sent += 1
            yield result
    except (EOFError, ConnectionError) as exc:
        raise UalError(f"{where}: a worker process died (killed, or out of memory)") from exc
    finally:
        for process in processes:
            process.terminate()
            process.join()
            process.close()

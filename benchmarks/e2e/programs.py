"""Rank programs the ``des`` workload runs on simulated clusters.

They use only the stable communicator surface (``irecv``/``send``/
``wait``/``waitall``/``allreduce``/``bcast``), so the benchmark keeps
working while the simulator's internals are rewritten.  Every program
returns per-rank values that the harness digests, and checks what it
received, so a change that alters the simulation shows up as a failed
check rather than as a speed-up.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["allreduce", "halo", "ring", "tree"]


def _neighbours(rank: int, px: int, py: int) -> Tuple[int, int, int, int]:
    """(north, south, west, east) on a periodic row-major ``px`` x ``py`` grid."""
    i, j = rank % px, rank // px
    return (
        i + ((j - 1) % py) * px,
        i + ((j + 1) % py) * px,
        (i - 1) % px + j * px,
        (i + 1) % px + j * px,
    )


def halo(comm, grid: Sequence[int], words: Sequence[int]):
    """The HALO exchange: per entry of ``words``, N words north and 2N
    south, then N west and 2N east, each phase completing before the
    next.  Returns ``(finish time, bytes received)``; every rank must
    receive ``24 * sum(words)`` bytes."""
    north, south, west, east = _neighbours(comm.rank, grid[0], grid[1])
    received = 0
    for it, n in enumerate(words):
        for first, second, tag in ((north, south, 4 * it), (west, east, 4 * it + 2)):
            reqs = [comm.irecv(src=second, tag=tag), comm.irecv(src=first, tag=tag + 1)]
            yield from comm.send(first, 4 * n, tag=tag)
            yield from comm.send(second, 8 * n, tag=tag + 1)
            msgs = yield from comm.waitall(reqs)
            received += msgs[0].nbytes + msgs[1].nbytes
    return comm.now, received


def ring(comm, sizes: List[List[int]]):
    """Round ``k`` sends ``sizes[k][rank]`` bytes to the right neighbour.
    Returns ``(finish time, size mismatches seen)``; mismatches must be 0."""
    p, r = comm.size, comm.rank
    right, left = (r + 1) % p, (r - 1) % p
    mismatches = 0
    for k, row in enumerate(sizes):
        req = comm.irecv(src=left, tag=k)
        yield from comm.send(right, row[r], tag=k)
        msg = yield from comm.wait(req)
        if msg.nbytes != row[left]:
            mismatches += 1
    return comm.now, mismatches


def allreduce(comm, sizes: Sequence[int], dtype: str):
    """One ``allreduce`` per payload size; returns the finish time."""
    for nbytes in sizes:
        yield from comm.allreduce(nbytes, dtype=dtype)
    return comm.now


def tree(comm, sizes: Sequence[int]):
    """float64 ``allreduce`` then ``bcast`` per size: on BG/P both ride
    the collective tree, so no torus message is sent."""
    for nbytes in sizes:
        yield from comm.allreduce(nbytes, dtype="float64")
        yield from comm.bcast(nbytes)
    return comm.now

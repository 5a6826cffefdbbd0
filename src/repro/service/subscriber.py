"""The one queue type every result subscription hands out.

:class:`SubscriberQueue` is a C :class:`queue.SimpleQueue` that also
honours ``maxsize``.  ``get_nowait``, ``qsize`` and ``empty`` are
SimpleQueue's own, and so is ``get`` unless it is given a timeout; an
empty get still raises :class:`queue.Empty`.  ``put`` never blocks: a
full bounded queue raises :class:`queue.Full`.  There is no
``task_done``/``join``.

The bound is a check-then-put, which is sound because a subscriber
queue has one producer at a time — ``QueryService.pump`` under the
service lock, or the coordinator's merge / subscribe replay under the
coordinator lock — and consumers only ever shorten it.
"""

from __future__ import annotations

import queue
import time

_simple_put = queue.SimpleQueue.put
_simple_get = queue.SimpleQueue.get

#: Longest sleep between polls of a timed :meth:`SubscriberQueue.get`.
_POLL_CAP_S = 0.005


class SubscriberQueue(queue.SimpleQueue):
    """A bounded, never-blocking-on-put FIFO of result items.

    ``maxsize <= 0`` means unbounded, as for :class:`queue.Queue`.
    """

    __slots__ = ("maxsize",)

    def __init__(self, maxsize: int = 0) -> None:
        self.maxsize = maxsize

    def put(self, item, block: bool = True, timeout=None) -> None:
        """Append ``item``, or raise :class:`queue.Full` at the bound.

        ``block`` and ``timeout`` are accepted for ``queue.Queue``
        compatibility and ignored: a put never waits.
        """
        if 0 < self.maxsize <= self.qsize():
            raise queue.Full
        _simple_put(self, item)

    put_nowait = put

    def get(self, block: bool = True, timeout=None):
        """Remove and return the oldest item, as :meth:`queue.Queue.get`.

        A timed get polls :meth:`get_nowait` instead of handing the
        timeout to C: CPython's SimpleQueue can turn a deadline that
        passes while another consumer takes the item into an unbounded
        wait.
        """
        if timeout is None or not block:
            return _simple_get(self, block)
        if timeout < 0:
            raise ValueError("'timeout' must be a non-negative number")
        deadline = time.monotonic() + timeout
        pause = 0.0001
        while True:
            try:
                return self.get_nowait()
            except queue.Empty:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                time.sleep(min(pause, remaining))
                pause = min(2 * pause, _POLL_CAP_S)

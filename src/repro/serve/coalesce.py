"""Digest-keyed coalescing of identical in-flight requests.

The content-addressed point cache already makes *repeated* requests free;
this map makes *concurrent* identical requests cost one computation too.
A request joins the map under its engine point-cache key (or bundle
identity digest): the first joiner becomes the **leader** and runs the
computation, everyone else becomes a **follower** and awaits the leader's
future.  Streaming consumers subscribe a queue to the entry and receive
every in-order fold event the leader's computation produces — followers
of an adaptive point see the same progress stream the leader does.

The map is single-event-loop state: ``join``/``resolve``/``fail`` run on
the loop, while :meth:`InflightEntry.publish_threadsafe` is the one
thread-safe door (the engine folds on a worker thread and pushes progress
through ``loop.call_soon_threadsafe``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["CoalescingMap", "InflightEntry"]

#: Sentinel queued to every subscriber when the computation finishes.
_DONE = None


@dataclass
class InflightEntry:
    """One in-flight computation: a future plus progress subscribers."""

    key: str
    future: "asyncio.Future[object]"
    loop: asyncio.AbstractEventLoop
    #: requests awaiting ``future`` (the leader included)
    waiters: int = 1
    subscribers: List["asyncio.Queue[Optional[dict]]"] = field(default_factory=list)

    def subscribe(self) -> "asyncio.Queue[Optional[dict]]":
        """A queue of fold events; ``None`` marks the end of the stream."""
        queue: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        self.subscribers.append(queue)
        return queue

    def publish_threadsafe(self, event: dict) -> None:
        """Push one progress event to every subscriber (worker thread)."""
        self.loop.call_soon_threadsafe(self._publish, event)

    def _publish(self, event: Optional[dict]) -> None:
        for queue in self.subscribers:
            queue.put_nowait(event)

    def close_stream(self) -> None:
        self._publish(_DONE)


class CoalescingMap:
    """Keyed single-flight: N identical concurrent requests, one compute.

    Counters are cumulative across the server's lifetime: ``leaders`` is
    the number of computations actually started, ``followers`` the number
    of requests that joined one instead of computing, and ``promotions``
    the number of followers re-elected as leaders after their leader died
    mid-compute (the server's handler loop drives the re-election; a
    promoted follower re-joins the map and leads a fresh entry, which is
    safe because the computation is a pure function of its key).
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, InflightEntry] = {}
        self.leaders = 0
        self.followers = 0
        #: followers re-elected as leaders after their leader died
        self.promotions = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def __contains__(self, key: object) -> bool:
        """Is a computation for ``key`` in flight (would a join follow)?"""
        return key in self._inflight

    def join(self, key: str) -> Tuple[InflightEntry, bool]:
        """Join the in-flight computation for ``key``.

        Returns ``(entry, is_leader)``.  The leader must eventually call
        :meth:`resolve` or :meth:`fail` for the key, whatever happens.
        """
        entry = self._inflight.get(key)
        if entry is not None:
            entry.waiters += 1
            self.followers += 1
            return entry, False
        loop = asyncio.get_running_loop()
        entry = InflightEntry(key=key, future=loop.create_future(), loop=loop)
        self._inflight[key] = entry
        self.leaders += 1
        return entry, True

    def leave(self, entry: InflightEntry) -> None:
        """A waiter gave up (deadline, dropped connection) without a result.

        Only the waiter accounting changes: the leader keeps computing
        and the entry stays joinable — the departed client can simply ask
        again later (and will usually hit the point cache).
        """
        if entry.waiters > 0:
            entry.waiters -= 1

    def _pop(self, entry: InflightEntry) -> None:
        current = self._inflight.get(entry.key)
        if current is entry:
            del self._inflight[entry.key]

    def resolve(self, entry: InflightEntry, result: object) -> None:
        """Deliver the leader's result to every follower and subscriber."""
        self._pop(entry)
        if not entry.future.done():
            entry.future.set_result(result)
        entry.close_stream()

    def fail(self, entry: InflightEntry, exc: BaseException) -> None:
        """Propagate the leader's failure; followers re-raise it."""
        self._pop(entry)
        if not entry.future.done():
            if entry.waiters:
                entry.future.set_exception(exc)
            else:
                # Nobody will ever await this future; cancelling instead
                # of setting the exception avoids the "exception was
                # never retrieved" warning at GC time.
                entry.future.cancel()
        entry.close_stream()

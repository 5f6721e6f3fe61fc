"""Shared resources for simulation processes.

Provides the synchronisation primitives used throughout the machine
model:

``Resource``
    Counted, FIFO-queued capacity (e.g. CPU cores, file-system service
    slots).

``Store``
    A FIFO buffer of Python objects with blocking get (e.g. message
    queues, staging-node chunk queues).

``Mailbox``
    Tag- and source-addressable message store used by the simulated MPI
    point-to-point layer.

``SharedBandwidth``
    A processor-sharing bandwidth pipe: *n* concurrent transfers each
    progress at ``rate / n``.  Used for network links and the parallel
    file system's aggregate bandwidth.  Transfer completion times are
    recomputed exactly on every membership change, so the model is a
    precise fluid-flow approximation rather than a per-packet one.
    A *counted* transfer (``transfer(n, count=k)``) holds *k* equal
    flows that start together as one entry: one rate update, one
    wakeup and one completion event instead of *k*, with times
    bit-identical to *k* separate calls except for flows below the
    pipe's done threshold (see :class:`SharedBandwidth`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from repro.sim.engine import Engine, Event, SimulationError

__all__ = ["Resource", "Store", "Mailbox", "SharedBandwidth", "PreemptionError"]


class PreemptionError(Exception):
    """Raised inside a process whose resource grant was revoked."""


class Resource:
    """Counted capacity with FIFO granting.

    Usage::

        req = resource.request()
        yield req
        ...  # hold
        resource.release()
    """

    def __init__(self, env: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[tuple[Event, int]] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self, n: int = 1) -> Event:
        """Return an event that fires when *n* units are granted atomically.

        Multi-unit requests are granted all-or-nothing in FIFO order, so
        two processes each needing several units can never deadlock by
        holding partial grants.
        """
        if not 1 <= n <= self.capacity:
            raise ValueError(f"cannot grant {n} units of capacity {self.capacity}")
        ev = self.env.event()
        if not self._waiters and self._in_use + n <= self.capacity:
            self._in_use += n
            ev.succeed()
        else:
            self._waiters.append((ev, n))
        return ev

    def release(self, n: int = 1) -> None:
        """Return *n* units; grants queued waiters FIFO."""
        if n < 1 or self._in_use < n:
            raise SimulationError(f"release({n}) without matching grant")
        self._in_use -= n
        while self._waiters:
            ev, need = self._waiters[0]
            if self._in_use + need > self.capacity:
                break  # FIFO head-of-line: preserves fairness
            self._waiters.popleft()
            self._in_use += need
            ev.succeed()

    def cancel(self, ev: Event, n: int = 1) -> None:
        """Withdraw a pending or granted request (interrupted holder).

        If *ev* is still queued it is removed; if the grant already went
        through, the units are released.  Needed when a process waiting
        on a grant is interrupted (e.g. a staging-node crash), so the
        abandoned request cannot leak capacity.
        """
        for i, (wev, _need) in enumerate(self._waiters):
            if wev is ev:
                del self._waiters[i]
                return
        if ev.triggered:
            self.release(n)

    def use(self, duration: float, n: int = 1) -> Generator:
        """Convenience process body: acquire, hold *duration*, release."""
        req = self.request(n)
        yield req
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(n)


class Store:
    """Unbounded-or-bounded FIFO of items with blocking get/put."""

    def __init__(self, env: Engine, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Deposit *item*; blocks (unfired event) when full."""
        ev = self.env.event()
        if self._getters:
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Return event yielding the oldest item."""
        ev = self.env.event()
        if self._items:
            item = self._items.popleft()
            if self._putters:
                pev, pitem = self._putters.popleft()
                self._items.append(pitem)
                pev.succeed()
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev


class Mailbox:
    """Source/tag addressable message store (MPI-style matching).

    Messages are matched FIFO within a ``(source, tag)`` class, with
    wildcard support on both fields for receivers.
    """

    ANY = object()

    def __init__(self, env: Engine):
        self.env = env
        self._messages: Deque[tuple[Any, Any, Any]] = deque()  # (src, tag, payload)
        self._receivers: Deque[tuple[Any, Any, Event]] = deque()

    def deliver(self, source: Any, tag: Any, payload: Any) -> None:
        """Deposit a message; wakes a matching receiver if one waits."""
        for i, (rsrc, rtag, ev) in enumerate(self._receivers):
            if (rsrc is Mailbox.ANY or rsrc == source) and (
                rtag is Mailbox.ANY or rtag == tag
            ):
                del self._receivers[i]
                ev.succeed((source, tag, payload))
                return
        self._messages.append((source, tag, payload))

    def receive(self, source: Any = ANY, tag: Any = ANY) -> Event:
        """Return event yielding ``(source, tag, payload)`` of a match."""
        for i, (msrc, mtag, payload) in enumerate(self._messages):
            if (source is Mailbox.ANY or msrc == source) and (
                tag is Mailbox.ANY or mtag == tag
            ):
                del self._messages[i]
                ev = self.env.event()
                ev.succeed((msrc, mtag, payload))
                return ev
        ev = self.env.event()
        self._receivers.append((source, tag, ev))
        return ev

    def cancel(self, ev: Event) -> None:
        """Withdraw a pending ``receive``.

        A process interrupted while blocked on a mailbox must withdraw
        its receiver, otherwise the stale entry would silently consume
        (and lose) the next matching message.
        """
        for i, (_src, _tag, rev) in enumerate(self._receivers):
            if rev is ev:
                del self._receivers[i]
                return

    def purge(self, source: Any = ANY, tag: Any = ANY) -> list[tuple[Any, Any, Any]]:
        """Remove and return all queued messages matching source/tag.

        Used by the recovery protocol to flush requests addressed to a
        staging rank that died before serving them; the controller then
        re-delivers them to the failover target.
        """
        kept: Deque[tuple[Any, Any, Any]] = deque()
        removed = []
        for msrc, mtag, payload in self._messages:
            if (source is Mailbox.ANY or msrc == source) and (
                tag is Mailbox.ANY or mtag == tag
            ):
                removed.append((msrc, mtag, payload))
            else:
                kept.append((msrc, mtag, payload))
        self._messages = kept
        return removed

    @property
    def pending(self) -> int:
        return len(self._messages)


class _Transfer:
    """``count`` co-started flows of one size and weight, held as one entry."""

    __slots__ = ("size", "remaining", "event", "weight", "count")

    def __init__(self, size: float, event: Event, weight: float, count: int):
        self.size = float(size)
        self.remaining = float(size)
        self.event = event
        self.weight = weight
        self.count = count


class SharedBandwidth:
    """Processor-sharing fluid pipe.

    ``transfer(nbytes)`` returns an event that fires when the transfer
    completes; concurrent transfers share ``rate`` proportionally to
    their weights.  An optional ``degradation`` callable lets callers
    inject time-varying capacity (e.g. file-system interference):
    it receives the current simulated time and returns a multiplier in
    ``(0, 1]``, sampled at every membership change.

    ``transfer(nbytes, count=k)`` posts *k* flows of equal size and
    weight that start together (one per rank of a node in a
    collective).  They are held as one entry with one completion event,
    so the pipe recomputes its rates and arms its wakeup once instead of
    *k* times.  Each member progresses at ``rate * weight / total_w``
    with ``total_w = sum(weight * count)``; when that sum is exact
    (integer weights, as on NIC pipes, or ``count == 1``), every rate,
    residual and completion time is bit-identical to *k* separate calls
    made at the same instant.  The exception is a flow smaller than the
    pipe's done threshold (``rate * 1e-12`` bytes): *k* separate calls
    finish it when the next member joins, a counted flow at the next
    wakeup.
    """

    def __init__(
        self,
        env: Engine,
        rate: float,
        *,
        degradation: Optional[Callable[[float], float]] = None,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.rate = float(rate)
        self.degradation = degradation
        self._active: list[_Transfer] = []
        #: time up to which every active transfer's residual is accounted
        self._last_update = env.now
        self._wakeup: Optional[Event] = None
        self._bytes_moved = 0.0

    # -- public ----------------------------------------------------------
    @property
    def active_transfers(self) -> int:
        """Flows in progress (a counted transfer counts each member)."""
        return sum(t.count for t in self._active)

    @property
    def bytes_moved(self) -> float:
        """Total bytes that have completed through this pipe."""
        return self._bytes_moved

    def effective_rate(self) -> float:
        """Current capacity after the degradation multiplier."""
        mult = self.degradation(self.env.now) if self.degradation else 1.0
        if not (0.0 < mult <= 1.0):
            raise SimulationError(f"degradation multiplier {mult} outside (0,1]")
        return self.rate * mult

    def transfer(
        self, nbytes: float, *, weight: float = 1.0, count: int = 1
    ) -> Event:
        """Begin moving *nbytes* in each of *count* flows.

        The event fires when they complete (all members finish together).
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        if type(count) is not int or count < 1:
            raise ValueError(f"count must be a positive int, got {count!r}")
        done = self.env.event()
        if nbytes == 0:
            done.succeed(0.0)
            return done
        self._advance()
        self._active.append(_Transfer(nbytes, done, weight, count))
        self._reschedule()
        return done

    # -- internals ---------------------------------------------------------
    def _per_transfer_rates(self) -> list[float]:
        """Rate of one member of each entry."""
        total_w = sum(t.weight * t.count for t in self._active)
        rate = self.effective_rate()
        return [rate * t.weight / total_w for t in self._active]

    # Residual work below this many seconds (at current rate) counts as
    # done; prevents float-precision spins where the next wakeup cannot
    # advance the clock.
    _EPS_SECONDS = 1e-12

    def _advance(self) -> None:
        """Account progress of all active transfers up to `now`."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if not self._active:
            return
        rates = self._per_transfer_rates()
        finished: list[_Transfer] = []
        kept: list[_Transfer] = []
        for t, r in zip(self._active, rates):
            if dt > 0:
                t.remaining = max(0.0, t.remaining - r * dt)
            if t.remaining <= r * self._EPS_SECONDS:
                finished.append(t)
            else:
                kept.append(t)
        if finished:
            self._active = kept
            for t in finished:
                for _ in range(t.count):  # summed as separate flows would be
                    self._bytes_moved += t.size
                t.event.succeed(now)

    def _reschedule(self) -> None:
        """Schedule a wakeup at the earliest projected completion."""
        if self._wakeup is not None and not self._wakeup.triggered:
            # Cancel stale wakeup by letting it no-op: mark generation.
            self._wakeup._stale = True  # type: ignore[attr-defined]
        if not self._active:
            self._wakeup = None
            return
        rates = self._per_transfer_rates()
        eta = min(t.remaining / r for t, r in zip(self._active, rates))
        # Guarantee the clock actually advances past `now` in floats.
        floor = max(self.env.now * 1e-12, self._EPS_SECONDS)
        ev = self.env.timeout(max(eta, floor))
        self._wakeup = ev
        ev._add_callback(self._on_wakeup)

    def _on_wakeup(self, ev: Event) -> None:
        if getattr(ev, "_stale", False):
            return
        self._advance()
        self._reschedule()

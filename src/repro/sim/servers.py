"""Exact single-server building blocks: deterministic FIFO and PS.

The paper's proof machinery (Lemmas 7–10) compares, server by server,
the FIFO discipline against **Processor Sharing** with the same
deterministic work.  Both are implemented here exactly:

* :class:`FifoServer` — incremental Lindley recursion;
* :class:`PSServer` — egalitarian processor sharing tracked through the
  *fair-share integral* ``S(t) = ∫ 1/n(u) du``: a customer arriving at
  ``a`` with work ``w`` departs at the first ``t`` with
  ``S(t) = S(a) + w``.  This gives exact departure epochs in O(log n)
  per event with no per-customer bookkeeping on each update.

Ties: an arrival that coincides with a departure epoch is processed
*after* the departure (the departing customer's residual work hits zero
exactly then, and an instantaneous overlap renders zero service).

Who runs what: every engine (feed-forward, the chunked sweep, and the
fixed-point path solver) solves PS with one kernel in
:mod:`repro.sim.feedforward` that does :class:`PSServer`'s float
operations for every arc of a level at once.  :class:`PSServer` and
:func:`ps_departure_times` are its reference (tests compare it bit for
bit, and check the path engine's PS arc logs against it arc by arc)
and the Lemma 7 oracle.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["FifoServer", "PSServer", "ps_departure_times"]


class FifoServer:
    """Deterministic FIFO server with incremental arrivals.

    ``arrive(t)`` returns the departure time of that customer; arrivals
    must be fed in non-decreasing time order.
    """

    __slots__ = ("service", "_last_departure", "_last_arrival")

    def __init__(self, service: float = 1.0) -> None:
        if service <= 0.0:
            raise ValueError(f"service time must be > 0, got {service}")
        self.service = float(service)
        self._last_departure = -math.inf
        self._last_arrival = -math.inf

    def arrive(self, t: float) -> float:
        """Admit a customer at time *t*; return its departure time."""
        if t < self._last_arrival:
            raise ValueError(
                f"arrivals must be non-decreasing: {t} < {self._last_arrival}"
            )
        self._last_arrival = t
        start = self._last_departure if self._last_departure > t else t
        self._last_departure = start + self.service
        return self._last_departure

    @property
    def busy_until(self) -> float:
        """Time the server empties if no further arrivals occur."""
        return self._last_departure


class PSServer:
    """Deterministic egalitarian Processor-Sharing server.

    Maintains the fair-share integral ``S`` and a min-heap of departure
    thresholds ``S(a_i) + w_i``.  Events are driven externally:
    :meth:`next_departure_time` exposes the next epoch at which the
    minimum threshold is reached, and :meth:`advance` moves the clock.
    """

    __slots__ = ("_S", "_now", "_heap", "_seq")

    def __init__(self) -> None:
        self._S = 0.0
        self._now = 0.0
        self._heap: List[Tuple[float, int, int]] = []  # (threshold, seq, id)
        self._seq = 0

    @property
    def num_active(self) -> int:
        return len(self._heap)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, t: float) -> None:
        """Advance the clock to *t*, accruing fair share; no departures
        may be due strictly before *t* (caller drains them first)."""
        if t < self._now - 1e-12:
            raise ValueError(f"time moves backwards: {t} < {self._now}")
        n = len(self._heap)
        if n:
            self._S += (t - self._now) / n
        self._now = max(self._now, t)

    def arrive(self, t: float, customer_id: int = -1, work: float = 1.0) -> None:
        """Admit a customer with the given *work* at time *t*."""
        if work <= 0.0:
            raise ValueError(f"work must be > 0, got {work}")
        self.advance(t)
        heapq.heappush(self._heap, (self._S + work, self._seq, customer_id))
        self._seq += 1

    def next_departure_time(self) -> Optional[float]:
        """Epoch of the next departure if no more arrivals occur."""
        if not self._heap:
            return None
        threshold = self._heap[0][0]
        return self._now + (threshold - self._S) * len(self._heap)

    def pop_departure(self) -> Tuple[float, int]:
        """Advance to and remove the next departing customer.

        Returns ``(departure_time, customer_id)``.
        """
        t = self.next_departure_time()
        if t is None:
            raise RuntimeError("no active customers to depart")
        self.advance(t)
        threshold, _seq, cid = heapq.heappop(self._heap)
        # Snap the fair-share integral to the threshold to kill the
        # accumulated float drift for the remaining customers.
        self._S = threshold
        return t, cid


def ps_departure_times(
    arrivals: np.ndarray, work: float = 1.0
) -> np.ndarray:
    """Offline departure times of a deterministic PS server.

    *arrivals* must be sorted ascending; all customers carry the same
    *work* (the paper's unit packets), so departures preserve arrival
    order and ``out[i]`` is the departure of arrival ``i``.

    Lemma 7 guarantees ``fifo_departure_times(a) <= ps_departure_times(a)``
    elementwise — property-tested in the suite.
    """
    t = np.asarray(arrivals, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"arrivals must be 1-D, got shape {t.shape}")
    if t.shape[0] and np.any(np.diff(t) < 0):
        raise ValueError("arrivals must be sorted ascending")
    server = PSServer()
    out = np.empty(t.shape[0])
    i = 0
    n = t.shape[0]
    while i < n or server.num_active:
        nxt = server.next_departure_time()
        if i < n and (nxt is None or t[i] < nxt):
            server.arrive(t[i], customer_id=i, work=work)
            i += 1
        else:
            dep, cid = server.pop_departure()
            out[cid] = dep
    return out

"""Vectorised simulators for levelled and non-levelled queueing networks.

Two modules produce sample paths; wherever both run, they are
*identical*, FIFO and PS alike (cross-validated bit for bit in the test
suite):

* :mod:`repro.sim.feedforward` — the HPC path: because the equivalent
  networks Q/R are feed-forward (Property B), each level can be solved
  in one shot with a vectorised Lindley recursion
  (:func:`repro.sim.lindley.fifo_departure_times`) or Processor-Sharing
  kernel; no event heap at all.
* :mod:`repro.sim.fixedpoint` — the same kernels on explicit arc paths
  of non-levelled networks and schemes: FIFO in one time-ordered pass,
  **Processor Sharing** — what the paper's proof technique (Lemmas
  7–10, Prop 11) compares against — by sweeping to a fixed point.

:mod:`repro.sim.eventsim` holds the explicit arc paths themselves: their
packed layout and their construction for the built-in networks.

:mod:`repro.sim.servers` holds the exact single-server building blocks,
:mod:`repro.sim.measurement` the statistics collectors,
:mod:`repro.sim.slotted` the §3.4 synchronous variant, and
:mod:`repro.sim.run_spec` the scenario-runner entry point that
dispatches a :class:`~repro.runner.spec.ScenarioSpec` replication to
whichever engine its scheme admits.
"""

from repro.sim.lindley import (
    fifo_departure_times,
    fifo_waiting_times,
    unfinished_work,
)
from repro.sim.run_spec import ReplicationOutput, run_spec
from repro.sim.servers import FifoServer, PSServer, ps_departure_times
from repro.sim.measurement import DelayRecord, PopulationTracker, arc_arrival_counts

__all__ = [
    "ReplicationOutput",
    "run_spec",
    "fifo_departure_times",
    "fifo_waiting_times",
    "unfinished_work",
    "FifoServer",
    "PSServer",
    "ps_departure_times",
    "DelayRecord",
    "PopulationTracker",
    "arc_arrival_counts",
]

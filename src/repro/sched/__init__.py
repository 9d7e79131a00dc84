"""Event-driven wakeup scheduling for the simulation's clock domains.

``repro.sched`` replaces the dense "tick every component every cycle"
loop with timestamped wakeups over a cycle wheel: quiescent stretches
— engines blocked on empty queues, an idle NoC, an empty CDC — are
fast-forwarded instead of polled.  See DESIGN.md (sched layer) for the
architecture and the bit-identity contract with the dense loop, which
stays available as ``SimulationSession(dense=True)``.
"""

from repro.sched.scheduler import EventScheduler, Wakeable
from repro.sched.wheel import CycleWheel

__all__ = ["CycleWheel", "EventScheduler", "Wakeable"]

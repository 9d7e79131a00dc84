"""Simulation-session layer: build once, run many.

``FireGuardSystem`` construction is expensive — filter SRAM
programming, kernel assembly, engine construction — while a run only
mutates queue and cache state.  :class:`SimulationSession`
separates the two: it owns the cycle loop for one built system and an
explicit :meth:`~repro.sim.session.SimulationSession.reset` that
returns every component to its just-built state, so one system can
execute many traces with results bit-identical to fresh builds.

The cycle loop itself is event-driven (:mod:`repro.sched`): a
cycle-wheel scheduler per clock domain replaces per-cycle polling with
timestamped wakeups, bit-identical to the dense reference loop kept
behind ``REPRO_DENSE_LOOP=1``.

The runner's worker (:mod:`repro.runner.worker`) keeps one session
per distinct system configuration per worker process.
"""

from repro.sim.session import SimulationSession

__all__ = ["SimulationSession"]

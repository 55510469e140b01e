"""Deterministic fault injection for chaos testing.

:mod:`~repro.resilience.faultinject` is a fault-injection harness driven
by the ``REPRO_FAULTS`` environment variable (or
:func:`~repro.resilience.faultinject.install`): seeded, repeatable
injection of worker crashes and task timeouts in the process pool
(:mod:`repro.parallel`) and of slow, failing, shed or corrupt reads in
the serving layer (:mod:`repro.serve`) — what the resilience tests and
the CI chaos leg run on.

Every firing reports through :mod:`repro.obs` as a ``fault_injected``
event and the ``faults.injected`` counter.  Nothing in this package
imports :mod:`repro.core`, so any layer can depend on it without
cycles.

Training has no recovery path: an epoch with a non-finite loss or
gradient raises :class:`repro.core.aneci.DivergenceError`.
"""

from . import faultinject
from .faultinject import FaultPlan, FaultSpec, active_plan, fire, injected

__all__ = ["faultinject", "FaultPlan", "FaultSpec", "active_plan", "fire",
           "injected"]

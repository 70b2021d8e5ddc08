"""Discrete-event simulation engine underpinning the whole reproduction.

Public surface::

    from repro.simengine import Engine, US, MS

    env = Engine()

    def worker(env):
        yield env.timeout(3 * US)
        return "done"

    env.process(worker(env))
    env.run()
"""

from .budget import Budget, BudgetExceeded, BudgetSummary
from .engine import EmptySchedule, Engine, MS, NS, US
from .events import AllOf, AnyOf, Event, Interrupt, Timeout
from .process import Process
from .resources import SerialLink
from .rng import DEFAULT_SEED, derive_seed, make_rng, spawn

__all__ = [
    "Budget",
    "BudgetExceeded",
    "BudgetSummary",
    "Engine",
    "EmptySchedule",
    "US",
    "MS",
    "NS",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "SerialLink",
    "make_rng",
    "spawn",
    "derive_seed",
    "DEFAULT_SEED",
]

"""The BT nucleus: interrupt and exception handling (§II-A).

In a hybrid processor the nucleus services host-level interrupts; PowerChop
rides this path — a PVT miss raises an interrupt that transfers control to
the Criticality Decision Engine in the BT software (§IV-C1, via model
specific registers).  The nucleus here accounts the cycle cost of each
interrupt class and dispatches to registered handlers.
"""

from __future__ import annotations

from typing import Callable, Dict


class Nucleus:
    """Interrupt dispatcher with per-kind cycle costs."""

    def __init__(self) -> None:
        self._handlers: Dict[str, Callable[..., float]] = {}
        self._costs: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.cycles: float = 0.0

    def register(
        self, kind: str, handler: Callable[..., float], entry_cost_cycles: float
    ) -> None:
        """Register ``handler`` for interrupt ``kind``.

        ``entry_cost_cycles`` models the trap/MSR-exchange overhead; the
        handler returns any additional cycles it consumed.
        """
        if entry_cost_cycles < 0:
            raise ValueError("interrupt entry cost must be non-negative")
        self._handlers[kind] = handler
        self._costs[kind] = entry_cost_cycles

    def raise_interrupt(self, kind: str, *args, **kwargs) -> float:
        """Dispatch an interrupt; returns total cycles consumed."""
        if kind not in self._handlers:
            raise KeyError(f"no handler registered for interrupt {kind!r}")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        cycles = self._costs[kind] + self._handlers[kind](*args, **kwargs)
        self.cycles += cycles
        return cycles

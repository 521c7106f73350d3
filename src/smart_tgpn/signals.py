"""Timestamped runtime-signal histories.

A SignalState holds the piecewise-constant history of every declared
boolean and real signal. Histories start at time 0 and change-points are
strictly increasing per signal; a query at time ``t`` returns the value
set by the latest change-point at or before ``t``. Histories may extend
past "now" (a scenario script is preloaded), which is how the kernel
learns when the environment next changes. ConstantSignals is the
constant-in-time view the explorer and the static structure checks read
one fixed assignment through.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Union

SignalValue = Union[bool, float]

BOOL = "bool"
REAL = "real"


class SignalError(ValueError):
    """Bad signal declaration, value, or timestamp."""


class UndeclaredSignal(SignalError):
    """A guard or recording referenced a signal that was never declared."""


def as_bool(name: str, value) -> bool:
    """The boolean-signal rule: true, false, 1 or 0; else a SignalError."""
    if isinstance(value, bool) or value in (0, 1):
        return bool(value)
    raise SignalError(f"boolean signal {name!r} given non-boolean value {value!r}")


@dataclass
class SignalState:
    """Append-only signal histories keyed by signal name.

    ``declarations`` maps name -> "bool" | "real". Every declared signal
    gets an entry at time 0 (defaulting to False / 0.0).
    """

    declarations: dict[str, str] = field(default_factory=dict)
    histories: dict[str, list[tuple[int, SignalValue]]] = field(default_factory=dict)

    @classmethod
    def declare(
        cls,
        booleans: Iterable[str] = (),
        reals: Iterable[str] = (),
        initial: dict[str, SignalValue] | None = None,
    ) -> "SignalState":
        sigma = cls()
        for name in booleans:
            sigma.declarations[name] = BOOL
            sigma.histories[name] = [(0, False)]
        for name in reals:
            sigma.declarations[name] = REAL
            sigma.histories[name] = [(0, 0.0)]
        for name, value in (initial or {}).items():
            if name not in sigma.declarations:
                raise UndeclaredSignal(f"initial value for undeclared signal {name!r}")
            sigma.histories[name] = [(0, sigma._coerce(name, value))]
        return sigma

    def _coerce(self, name: str, value: SignalValue) -> SignalValue:
        kind = self.declarations.get(name)
        if kind is None:
            raise UndeclaredSignal(f"signal {name!r} is not declared")
        if kind == BOOL:
            return as_bool(name, value)
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise SignalError(f"real signal {name!r} given non-numeric value {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if not math.isfinite(number):
            raise SignalError(f"real signal {name!r} given non-finite value {value!r}")
        return number

    def value_at(self, name: str, time: int) -> SignalValue:
        history = self.histories.get(name)
        if history is None:
            raise UndeclaredSignal(f"signal {name!r} is not declared")
        if time < 0:
            raise SignalError(f"query at negative time {time}")
        idx = bisect.bisect_right(history, (time, float("inf"))) - 1
        return history[idx][1]

    def record(self, name: str, value: SignalValue, time: int) -> "SignalState":
        """Append a change-point. Timestamps must strictly increase per signal."""
        value = self._coerce(name, value)
        history = self.histories[name]
        last_time, last_value = history[-1]
        if time == last_time and value == last_value:
            return self
        if time < last_time or (time == last_time and time != 0):
            raise SignalError(
                f"out-of-order timestamp {time} for {name!r} (last change at {last_time})"
            )
        if time == 0:
            history[0] = (0, value)
        elif value != last_value:
            history.append((time, value))
        return self

    def next_change_after(self, time: int) -> int | None:
        """Earliest change-point strictly after ``time`` across all signals."""
        best: int | None = None
        for history in self.histories.values():
            idx = bisect.bisect_right(history, (time, float("inf")))
            if idx < len(history):
                t = history[idx][0]
                if best is None or t < best:
                    best = t
        return best

    def change_points(self, names: Iterable[str], start: int, end: int) -> list[int]:
        """Change-points of the given signals within (start, end], ascending."""
        points: set[int] = set()
        for name in names:
            history = self.histories.get(name)
            if history is None:
                raise UndeclaredSignal(f"signal {name!r} is not declared")
            lo = bisect.bisect_right(history, (start, math.inf))
            hi = bisect.bisect_right(history, (end, math.inf), lo)
            points.update(t for t, _ in history[lo:hi])
        return sorted(points)


class ConstantSignals:
    """Constant-in-time signal view over a mutable name -> value map.

    Every query reads the map's current value whatever the instant, and
    nothing ever changes, so the kernel and the guard evaluator can run
    inside one tick of the bounded explorer or over one fixed assignment.
    """

    def __init__(self, values: dict[str, SignalValue]):
        self.values = values

    def value_at(self, name: str, time: int) -> SignalValue:
        try:
            return self.values[name]
        except KeyError:
            raise UndeclaredSignal(f"signal {name!r} is not declared") from None

    def next_change_after(self, time: int) -> int | None:
        return None

    def change_points(self, names: Iterable[str], start: int, end: int) -> list[int]:
        return []


"""Timestamped runtime-signal histories.

A SignalState holds the piecewise-constant history of every declared
boolean and real signal as two lists per signal: its change times, plain
ints in strictly increasing order from 0, and the value each one sets.
A query at time ``t`` bisects the time list and returns the value set by
the latest change at or before ``t``. Histories may extend past "now" (a
scenario script is preloaded), which is how the kernel learns when the
environment next changes. ConstantSignals is the constant-in-time view
the explorer and the static structure checks read one fixed assignment
through.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    gets a change at time 0 (defaulting to False / 0.0). ``times[name]``
    lists its change times and ``values[name]`` the value set at each.
    """

    declarations: dict[str, str] = field(default_factory=dict)
    times: dict[str, list[int]] = field(default_factory=dict)
    values: dict[str, list[SignalValue]] = field(default_factory=dict)

    @classmethod
    def declare(cls, booleans: Iterable[str] = (), reals: Iterable[str] = (),
                initial: dict[str, SignalValue] | None = None) -> "SignalState":
        sigma = cls()
        for kind, names, default in ((BOOL, booleans, False), (REAL, reals, 0.0)):
            for name in names:
                sigma.declarations[name] = kind
                sigma.times[name], sigma.values[name] = [0], [default]
        for name, value in (initial or {}).items():
            if name not in sigma.declarations:
                raise UndeclaredSignal(f"initial value for undeclared signal {name!r}")
            sigma.values[name][0] = sigma._coerce(name, value)
        return sigma

    @property
    def histories(self) -> dict[str, list[tuple[int, SignalValue]]]:
        """A read-only view, built afresh from the two lists: name -> [(time, value)]."""
        return {name: list(zip(times, self.values[name])) for name, times in self.times.items()}

    def copy(self) -> "SignalState":
        """An independent state with the same histories."""
        return SignalState(dict(self.declarations), {name: list(times) for name, times in self.times.items()},
                           {name: list(values) for name, values in self.values.items()})

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
        times = self.times.get(name)
        if times is None:
            raise UndeclaredSignal(f"signal {name!r} is not declared")
        if time < 0:
            raise SignalError(f"query at negative time {time}")
        return self.values[name][bisect_right(times, time) - 1]

    def record(self, name: str, value: SignalValue, time: int) -> "SignalState":
        """Append a change-point. Timestamps must strictly increase per signal."""
        value = self._coerce(name, value)
        times, values = self.times[name], self.values[name]
        last_time, last_value = times[-1], values[-1]
        if time == last_time and value == last_value:
            return self
        if time < last_time or (time == last_time and time != 0):
            raise SignalError(f"out-of-order timestamp {time} for {name!r} (last change at {last_time})")
        if time == 0:
            values[0] = value
        elif value != last_value:
            times.append(time)
            values.append(value)
        return self

    def reset(self, name: str, time: int) -> None:
        """Turn a boolean signal false at ``time``, withdrawing a rise at ``time`` itself (after 0)."""
        times, values = self.times[name], self.values[name]
        if 0 < time == times[-1] and values[-1]:
            del times[-1], values[-1]
        elif self.value_at(name, time):
            self.record(name, False, time)

    def next_change_after(self, time: int) -> int | None:
        """Earliest change-point strictly after ``time`` across all signals."""
        return min((times[i] for times in self.times.values() if (i := bisect_right(times, time)) < len(times)),
                   default=None)

    def change_points(self, names: Iterable[str], start: int, end: int) -> list[int]:
        """Change-points of the given signals within (start, end], ascending."""
        points: set[int] = set()
        for name in names:
            times = self.times.get(name)
            if times is None:
                raise UndeclaredSignal(f"signal {name!r} is not declared")
            lo = bisect_right(times, start)
            points.update(times[lo:bisect_right(times, end, lo)])
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


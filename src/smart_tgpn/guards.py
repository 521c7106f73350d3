"""Guard predicate language.

Guards are boolean expressions over runtime signals, real-signal
thresholds, marking tests, and a ``held_for`` debounce operator that is
true only when its body has held continuously for a given duration.

Expression grammar (infix, case-sensitive)::

    expr    := term ("or" term)*
    term    := factor ("and" factor)*
    factor  := "not" factor | atom
    atom    := "true" | "false"
             | NAME                      boolean signal or named predicate
             | NAME ">=" NUMBER          real-signal threshold
             | NAME "<=" NUMBER
             | "marked" "(" PLACE ["," COUNT] ")"
             | "held_for" "(" expr "," DURATION ")"
             | "(" expr ")"

``held_for(e, d)`` at time ``t`` is true iff ``t >= d`` and ``e`` holds at
every instant of ``[t - d, t]``: iff e's current run started at or before
``t - d``. With piecewise-constant signals ``_run_start`` finds that run
start exactly from the change points inside the window; the evaluator and
the kernel's wake-up time both read it. Nested ``held_for`` is rejected at
validation: it would make guard flip times depend on non-recorded instants.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Iterator, Mapping

from .signals import SignalState, UndeclaredSignal


class GuardError(ValueError):
    """Malformed guard expression or unresolvable atom."""


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class GuardExpr:
    """An immutable guard expression node.

    A node is compiled once, on first use, into the closure ``holds``; the
    closure and the other per-node caches live in the instance ``__dict__``
    outside the dataclass fields, so equality, hashing, ``repr`` and
    ``asdict`` see only the fields, and a rebuilt equal node compiles to
    the same test.
    """

    @cached_property
    def holds(self) -> "Compiled":
        """``(ctx, time) -> bool``: the truth of this expression at ``time``."""
        return _compile(self)

    @cached_property
    def _held_terms(self) -> tuple["HeldFor", ...]:
        return tuple(held_terms(self))

    def __getstate__(self) -> dict:
        # the caches hold closures; an unpickled node rebuilds them on use
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Const(GuardExpr):
    value: bool


@dataclass(frozen=True)
class Sig(GuardExpr):
    name: str


@dataclass(frozen=True)
class Cmp(GuardExpr):
    name: str
    op: str  # ">=" or "<="
    threshold: float


@dataclass(frozen=True)
class Marked(GuardExpr):
    place: str
    count: int = 1


@dataclass(frozen=True)
class Not(GuardExpr):
    child: GuardExpr


@dataclass(frozen=True)
class And(GuardExpr):
    children: tuple[GuardExpr, ...]


@dataclass(frozen=True)
class Or(GuardExpr):
    children: tuple[GuardExpr, ...]


@dataclass(frozen=True)
class HeldFor(GuardExpr):
    child: GuardExpr
    duration: int

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise GuardError("held_for duration must be >= 0")

    @cached_property
    def _window_reads(self) -> tuple[set[str], bool]:
        """The body's signal names, and whether it reads the marking."""
        return signal_names(self.child), bool(place_names(self.child))


TRUE = Const(True)
FALSE = Const(False)

Compiled = Callable[["EvalContext", int], bool]


def walk(expr: GuardExpr) -> Iterator[GuardExpr]:
    yield expr
    if isinstance(expr, Not):
        yield from walk(expr.child)
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from walk(child)
    elif isinstance(expr, HeldFor):
        yield from walk(expr.child)


def signal_names(expr: GuardExpr) -> set[str]:
    return {n.name for n in walk(expr) if isinstance(n, (Sig, Cmp))}


def place_names(expr: GuardExpr) -> set[str]:
    return {n.place for n in walk(expr) if isinstance(n, Marked)}


def held_terms(expr: GuardExpr) -> list[HeldFor]:
    return [n for n in walk(expr) if isinstance(n, HeldFor)]


def check_no_nested_held(expr: GuardExpr) -> None:
    for term in held_terms(expr):
        if any(isinstance(n, HeldFor) for n in walk(term.child)):
            raise GuardError("nested held_for is not supported")


# --- parsing ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[-+]?(?:\d+\.\d+|\.\d+|\d+)(?:[eE][-+]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<op>>=|<=|\(|\)|,))"
)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise GuardError(f"bad character in guard at {text[pos:]!r}")
        tokens.append(match.group(match.lastgroup))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        token = self.peek()
        if token is None:
            raise GuardError("unexpected end of guard expression")
        if expected is not None and token != expected:
            raise GuardError(f"expected {expected!r}, found {token!r}")
        self.pos += 1
        return token

    def take_integer(self, what: str) -> int:
        token = self.take()
        if not token.isdecimal():
            raise GuardError(f"{what} must be an integer, found {token!r}")
        return int(token)

    def parse(self) -> GuardExpr:
        expr = self.parse_or()
        if self.peek() is not None:
            raise GuardError(f"trailing tokens in guard: {self.tokens[self.pos:]}")
        return expr

    def parse_or(self) -> GuardExpr:
        terms = [self.parse_and()]
        while self.peek() == "or":
            self.take()
            terms.append(self.parse_and())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse_and(self) -> GuardExpr:
        factors = [self.parse_not()]
        while self.peek() == "and":
            self.take()
            factors.append(self.parse_not())
        return factors[0] if len(factors) == 1 else And(tuple(factors))

    def parse_not(self) -> GuardExpr:
        if self.peek() == "not":
            self.take()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> GuardExpr:
        token = self.take()
        if token == "(":
            inner = self.parse_or()
            self.take(")")
            return inner
        if token == "true":
            return TRUE
        if token == "false":
            return FALSE
        if token == "marked":
            self.take("(")
            place = self.take()
            count = 1
            if self.peek() == ",":
                self.take()
                count = self.take_integer("marked count")
            self.take(")")
            return Marked(place, count)
        if token == "held_for":
            self.take("(")
            inner = self.parse_or()
            self.take(",")
            duration = self.take_integer("held_for duration")
            self.take(")")
            return HeldFor(inner, duration)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", token):
            if self.peek() in (">=", "<="):
                op = self.take()
                threshold = float(self.take())
                return Cmp(token, op, threshold)
            return Sig(token)
        raise GuardError(f"unexpected token {token!r} in guard")


def parse_guard(text: str) -> GuardExpr:
    """Parse a guard expression string into an AST."""
    if not isinstance(text, str):
        raise GuardError(f"a guard expression must be a string, got {text!r}")
    text = text.strip()
    if not text:
        return TRUE
    return _Parser(_tokenize(text)).parse()


def guard_to_string(expr: GuardExpr) -> str:
    if isinstance(expr, Const):
        return "true" if expr.value else "false"
    if isinstance(expr, Sig):
        return expr.name
    if isinstance(expr, Cmp):
        text = f"{expr.threshold:g}"  # where :g loses digits, repr: the shortest text that reads back
        return f"{expr.name} {expr.op} {text if float(text) == expr.threshold else repr(expr.threshold)}"
    if isinstance(expr, Marked):
        return f"marked({expr.place}, {expr.count})"
    if isinstance(expr, Not):
        return f"not {_wrap(expr.child)}"
    if isinstance(expr, And):
        return " and ".join(_wrap(c) for c in expr.children)
    if isinstance(expr, Or):
        return " or ".join(_wrap(c, in_or=True) for c in expr.children)
    if isinstance(expr, HeldFor):
        return f"held_for({guard_to_string(expr.child)}, {expr.duration})"
    raise GuardError(f"unknown expression node {expr!r}")


def _wrap(expr: GuardExpr, in_or: bool = False) -> str:
    text = guard_to_string(expr)
    if isinstance(expr, Or) or (isinstance(expr, And) and not in_or):
        return f"({text})"
    return text


# --- evaluation ------------------------------------------------------------


class EvalContext:
    """What a guard may read: signals at a given instant, the current
    marking, and (for held_for) past change-points and marking history."""

    def __init__(
        self,
        sigma: SignalState,
        marking: Mapping[str, int],
        now: int,
        marking_history: list[tuple[int, Mapping[str, int]]] | None = None,
    ):
        self.sigma = sigma
        self.marking = marking
        self.now = now
        self.marking_history = marking_history

    def marking_at(self, time: int) -> Mapping[str, int]:
        if time >= self.now or not self.marking_history:
            return self.marking
        # ticks are integers: (time + 1,) sorts after every entry at time
        index = bisect_left(self.marking_history, (time + 1,))
        return self.marking_history[max(index - 1, 0)][1]


def eval_guard(
    expr: GuardExpr,
    sigma: SignalState,
    marking: Mapping[str, int],
    now: int,
    marking_history: list[tuple[int, Mapping[str, int]]] | None = None,
) -> bool:
    """Truth value of ``expr`` at instant ``now``."""
    return expr.holds(EvalContext(sigma, marking, now, marking_history), now)


def truth_bits(expr: GuardExpr, atom_bits: Callable[[GuardExpr], int], every: int) -> int:
    """The bitset of the vectors of ``every`` under which ``expr`` holds,
    given ``atom_bits(atom)``, those under which a signal, threshold, marking
    or held_for atom holds. An atom is asked about only if some vector of
    ``every`` reaches it under ``eval_guard``'s left-to-right short cuts."""
    if isinstance(expr, (And, Or)):
        # the vectors no child has decided: all held so far (and), all failed (or)
        undecided, conjunction = every, isinstance(expr, And)
        for child in expr.children:
            if undecided:
                bits = truth_bits(child, atom_bits, undecided)
                undecided = bits if conjunction else undecided ^ bits
        return undecided if conjunction else every ^ undecided
    if isinstance(expr, Not):
        return every ^ truth_bits(expr.child, atom_bits, every)
    if isinstance(expr, Const):
        return every if expr.value else 0
    return atom_bits(expr) & every


MAX_ATOMS = 20  # the most atoms a bitset over all their 2^n truth vectors is built for


def bit_patterns(n: int) -> list[int]:
    """Entry i: the bitset of the 2^n vectors with bit i set, blocks of 2^i
    clear and 2^i set bits; by doubling shifts, linear in 2^n."""
    patterns = []
    for i in range(n):
        block, width = (1 << (1 << i)) - 1 << (1 << i), 2 << i
        while width < 1 << n:
            block |= block << width
            width <<= 1
        patterns.append(block)
    return patterns


def _compile(expr: GuardExpr) -> Compiled:
    """The closure that decides ``expr``; children are compiled (once) by
    reading their own ``holds``. ``and`` / ``or`` stop at the first child
    that decides them, left to right, so a signal view sees the same reads
    as a tree walk would."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda ctx, time: value
    if isinstance(expr, Sig):
        name = expr.name
        return lambda ctx, time: bool(ctx.sigma.value_at(name, time))
    if isinstance(expr, Cmp):
        name, threshold = expr.name, expr.threshold
        if expr.op == ">=":
            return lambda ctx, time: float(ctx.sigma.value_at(name, time)) >= threshold
        return lambda ctx, time: float(ctx.sigma.value_at(name, time)) <= threshold
    if isinstance(expr, Marked):
        place, count = expr.place, expr.count

        def marked(ctx: EvalContext, time: int) -> bool:
            marking = ctx.marking if time >= ctx.now else ctx.marking_at(time)
            if place not in marking:
                raise UndeclaredSignal(f"marking atom references unknown place {place!r}")
            return marking[place] >= count

        return marked
    if isinstance(expr, Not):
        child = expr.child.holds
        return lambda ctx, time: not child(ctx, time)
    if isinstance(expr, And):
        children = tuple(c.holds for c in expr.children)

        def conjunction(ctx: EvalContext, time: int) -> bool:
            for child in children:
                if not child(ctx, time):
                    return False
            return True

        return conjunction
    if isinstance(expr, Or):
        children = tuple(c.holds for c in expr.children)

        def disjunction(ctx: EvalContext, time: int) -> bool:
            for child in children:
                if child(ctx, time):
                    return True
            return False

        return disjunction
    if isinstance(expr, HeldFor):
        body, duration = expr.child.holds, expr.duration

        def held(ctx: EvalContext, time: int) -> bool:
            # an incomplete window cannot witness "held continuously"
            return (time >= duration and body(ctx, time - duration)
                    and _run_start(expr, ctx, time, time - duration) == time - duration)

        return held
    raise GuardError(f"unknown expression node {expr!r}")


def _run_start(term: HeldFor, ctx: EvalContext, time: int, floor: int) -> int | None:
    """The earliest of ``floor`` and the change points in (floor, time] of
    what the body reads from which the body holds through ``time``; None if
    it fails at ``time``. The body is constant between change points, so
    the walk reads them from ``time`` back and stops at the first failure.

    This is held_for's one rule: ``held_for(e, d)`` holds at t iff t >= d
    and e's current run started at or before t - d."""
    body = term.child.holds
    if not body(ctx, time):
        return None
    names, reads_marking = term._window_reads
    # a change at ``time`` itself starts no run earlier than ``time``
    points = ctx.sigma.change_points(names, floor, time - 1)
    history = ctx.marking_history
    if reads_marking and history:
        lo = bisect_left(history, (floor + 1,))
        hi = bisect_left(history, (time,), lo)
        points = sorted({*points, *(t for t, _ in history[lo:hi])})
    start = time
    for point in reversed(points):
        if not body(ctx, point):
            return start
        start = point
    return floor if body(ctx, floor) else start


def next_held_flip(expr: GuardExpr, ctx: EvalContext) -> int | None:
    """Earliest time > now at which a held_for subterm of ``expr`` flips
    true by time passing alone: d ticks after its body's current run
    started. Atom changes are events and are handled elsewhere; a body
    failing now cannot flip without one."""
    flips = []
    for term in expr._held_terms:
        start = _run_start(term, ctx, ctx.now, max(ctx.now - term.duration, 0))
        if start is not None and start + term.duration > ctx.now:
            flips.append(start + term.duration)
    return min(flips, default=None)


# --- named predicate library -----------------------------------------------


class PredicateLibrary:
    """Named derived predicates, expanded into guards by substitution.

    Expansion replaces any ``Sig(name)`` whose name is a library entry with
    that entry's definition (recursively). Definitions may not be cyclic.
    """

    def __init__(self, definitions: dict[str, GuardExpr] | None = None):
        self.definitions: dict[str, GuardExpr] = dict(definitions or {})

    def define(self, name: str, expr: GuardExpr | str) -> None:
        if isinstance(expr, str):
            expr = parse_guard(expr)
        self.definitions[name] = expr

    def __contains__(self, name: str) -> bool:
        return name in self.definitions

    def expand(self, expr: GuardExpr | str, _seen: frozenset[str] = frozenset()) -> GuardExpr:
        if isinstance(expr, str):
            expr = parse_guard(expr)

        def inline(node: GuardExpr) -> GuardExpr | None:
            if not (isinstance(node, Sig) and node.name in self.definitions):
                return None
            if node.name in _seen:
                raise GuardError(f"cyclic predicate definition {node.name!r}")
            return self.expand(self.definitions[node.name], _seen | {node.name})

        return substitute(expr, inline)


def substitute(expr: GuardExpr, fn: Callable[[GuardExpr], GuardExpr | None]) -> GuardExpr:
    """Rewrite ``expr`` top-down. Where ``fn(node)`` returns an expression
    it replaces the node, and is not descended into; where it returns None
    the node is rebuilt from its rewritten children."""
    replaced = fn(expr)
    if replaced is not None:
        return replaced
    if isinstance(expr, Not):
        return Not(substitute(expr.child, fn))
    if isinstance(expr, (And, Or)):
        return type(expr)(tuple(substitute(c, fn) for c in expr.children))
    if isinstance(expr, HeldFor):
        return HeldFor(substitute(expr.child, fn), expr.duration)
    return expr


def atoms_of(expr: GuardExpr) -> list[GuardExpr]:
    return [n for n in walk(expr) if isinstance(n, (Sig, Cmp, Marked, HeldFor))]


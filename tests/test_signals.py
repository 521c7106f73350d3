import pytest
from hypothesis import given, settings, strategies as st

from smart_tgpn.signals import ConstantSignals, SignalState, SignalError, UndeclaredSignal


def make_state():
    return SignalState.declare(booleans=["anom", "safe"], reals=["U"], initial={"safe": True})


def test_step_function_semantics():
    sigma = make_state()
    sigma.record("anom", True, 3)
    assert sigma.value_at("anom", 2) is False
    assert sigma.value_at("anom", 3) is True
    assert sigma.value_at("anom", 4) is True


def test_real_history_latest_change_point_wins():
    sigma = make_state()
    sigma.record("U", 0.9, 0)
    sigma.record("U", 0.2, 5)
    assert sigma.value_at("U", 4) == 0.9
    assert sigma.value_at("U", 5) == 0.2


def test_out_of_order_timestamp_rejected():
    sigma = make_state()
    sigma.record("anom", True, 5)
    with pytest.raises(SignalError):
        sigma.record("anom", False, 2)


def test_type_mismatch_rejected():
    sigma = make_state()
    with pytest.raises(SignalError):
        sigma.record("anom", 0.7, 1)
    with pytest.raises(SignalError):
        sigma.record("U", True, 1)


def test_undeclared_signal_rejected():
    sigma = make_state()
    with pytest.raises(UndeclaredSignal):
        sigma.record("mystery", True, 1)
    with pytest.raises(UndeclaredSignal):
        sigma.value_at("mystery", 0)


def test_same_value_same_time_is_idempotent():
    sigma = make_state()
    sigma.record("anom", True, 3)
    sigma.record("anom", True, 3)
    assert sigma.histories["anom"] == [(0, False), (3, True)]


def test_next_change_after_scans_all_histories():
    sigma = make_state()
    sigma.record("anom", True, 4)
    sigma.record("U", 0.5, 7)
    assert sigma.next_change_after(0) == 4
    assert sigma.next_change_after(4) == 7
    assert sigma.next_change_after(7) is None


@given(
    changes=st.lists(st.booleans(), min_size=1, max_size=8),
    gaps=st.lists(st.integers(min_value=1, max_value=5), min_size=8, max_size=8),
    probe=st.integers(min_value=0, max_value=60),
)
def test_piecewise_constant_between_change_points(changes, gaps, probe):
    """Between change-points the value equals the preceding change-point's."""
    sigma = SignalState.declare(booleans=["x"])
    time = 0
    history = [(0, False)]
    for value, gap in zip(changes, gaps):
        time += gap
        sigma.record("x", value, time)
        if value != history[-1][1]:
            history.append((time, value))
    expected = [v for t, v in history if t <= probe][-1]
    assert sigma.value_at("x", probe) == expected


def test_constant_view_reads_the_current_value_at_every_instant():
    values = {"anom": False}
    view = ConstantSignals(values)
    values["anom"] = True
    assert view.value_at("anom", 0) is True and view.value_at("anom", 99) is True
    assert view.next_change_after(0) is None
    assert view.change_points(["anom"], 0, 9) == []
    with pytest.raises(UndeclaredSignal):
        view.value_at("nosuch", 0)


SIGNALS = {"b0": "bool", "b1": "bool", "r0": "real", "r1": "real"}


@st.composite
def recordings(draw):
    """Mixed boolean and real signals with drawn initial values, and a run
    of records and boolean resets at non-decreasing times, as a run makes
    them: a reset may withdraw a rise made at its own instant."""
    value = lambda name: draw(st.booleans() if SIGNALS[name] == "bool" else st.sampled_from([0.0, 0.5, 1.0]))
    initial = {name: value(name) for name in SIGNALS if draw(st.booleans())}
    ops, time = [], 0
    for _ in range(draw(st.integers(0, 14))):
        time += draw(st.sampled_from([0, 0, 1, 2, 3]))
        name = draw(st.sampled_from(sorted(SIGNALS)))
        reset = SIGNALS[name] == "bool" and draw(st.booleans())
        ops.append((time, name, None if reset else value(name)))
    return initial, ops


def model_record(pairs, value, time):
    """Apply one record to a signal's (time, value) pairs; False, with the
    pairs unchanged, if the state must refuse it."""
    last_time, last_value = pairs[-1]
    if time == last_time and value == last_value:
        return True
    if time == last_time != 0:
        return False  # a second change at one instant
    if time == 0:
        pairs[0] = (0, value)
    elif value != last_value:
        pairs.append((time, value))
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=recordings())
def test_every_read_equals_a_scan_of_the_change_points(drawn):
    """value_at at every tick, change_points over every window and
    next_change_after at every tick agree with a scan of (time, value)
    pairs kept beside the state."""
    initial, ops = drawn
    sigma = SignalState.declare([n for n, k in SIGNALS.items() if k == "bool"],
                                [n for n, k in SIGNALS.items() if k == "real"], initial)
    pairs = {name: [(0, initial.get(name, False if kind == "bool" else 0.0))] for name, kind in SIGNALS.items()}
    for time, name, value in ops:
        if value is None:
            sigma.reset(name, time)
            if 0 < time == pairs[name][-1][0] and pairs[name][-1][1]:
                pairs[name].pop()
            elif pairs[name][-1][1]:
                assert model_record(pairs[name], False, time)
        elif model_record(pairs[name], value, time):
            sigma.record(name, value, time)
        else:
            with pytest.raises(SignalError):
                sigma.record(name, value, time)
    assert sigma.histories == pairs
    last = max(t for history in pairs.values() for t, _ in history) + 2
    names = sorted(SIGNALS)
    for tick in range(last + 1):
        for name in names:
            assert sigma.value_at(name, tick) == [v for t, v in pairs[name] if t <= tick][-1]
        later = [t for history in pairs.values() for t, _ in history if t > tick]
        assert sigma.next_change_after(tick) == min(later, default=None)
    for subset in (names, names[:1], names[1:3], []):
        for start in range(-1, last + 1):
            for end in range(start - 1, last + 1):
                scan = sorted({t for name in subset for t, _ in pairs[name] if start < t <= end})
                assert sigma.change_points(subset, start, end) == scan

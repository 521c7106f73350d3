import pytest
from hypothesis import given, strategies as st

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

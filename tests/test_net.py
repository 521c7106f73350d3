import pytest
from hypothesis import given, strategies as st

from smart_tgpn.builder import SmartConfig, build_single_agent
from smart_tgpn.net import (
    Arc,
    Net,
    NetStructureError,
    TransitionRecord,
    apply_firing,
    drop_transition,
    validate_net,
)


def tiny_net(**kwargs):
    return Net(
        places=["p", "q"],
        transitions={"t": TransitionRecord("t", **kwargs)},
        arcs=[Arc("p", "t"), Arc("t", "q")],
        initial_marking={"p": 1},
    )


def test_builder_net_validates_clean():
    smart = build_single_agent(SmartConfig())
    report = validate_net(smart.net, declared_signals=smart.bool_signals() + smart.real_signals())
    assert report.errors == []


def test_dangling_arc_reported():
    net = Net(
        places=["p"],
        transitions={"t": TransitionRecord("t")},
        arcs=[Arc("t", "p_missing")],
    )
    report = validate_net(net)
    assert any("dangling arc" in e for e in report.errors)


def test_strong_needs_finite_beta():
    net = tiny_net(timing="strong")  # beta defaults to infinity
    report = validate_net(net)
    assert any("strong timing requires finite latest time" in e for e in report.errors)


def test_zero_weight_rejected():
    net = Net(
        places=["p", "q"],
        transitions={"t": TransitionRecord("t")},
        arcs=[Arc("p", "t", 0), Arc("t", "q")],
    )
    assert any("weight 0" in e for e in validate_net(net).errors)


def test_sourceless_transition_is_informational():
    net = Net(places=["q"], transitions={"t": TransitionRecord("t")}, arcs=[Arc("t", "q")])
    report = validate_net(net)
    assert report.ok
    assert any("no input arcs" in i for i in report.infos)


def test_interval_invariant():
    with pytest.raises(NetStructureError):
        TransitionRecord("t", alpha=3, beta=1)
    # ticks are integers: a fractional latest time is refused, an integral float kept
    with pytest.raises(NetStructureError, match="beta an integer or inf"):
        TransitionRecord("t", alpha=0, beta=2.7)
    assert TransitionRecord("t", alpha=0, beta=2.0).beta == 2


def test_drop_transition_removes_arcs():
    smart = build_single_agent(SmartConfig())
    mutant = drop_transition(smart.net, "t_SM")
    assert "t_SM" not in mutant.transitions
    assert all(a.source != "t_SM" and a.target != "t_SM" for a in mutant.arcs)
    # original untouched
    assert "t_SM" in smart.net.transitions


@given(
    pre=st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(1, 3), max_size=3),
    post=st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(1, 3), max_size=3),
    marking=st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(0, 9), max_size=3),
)
def test_firing_arithmetic_conserves_tokens(pre, post, marking):
    """post(p) = pre(p) - w(p,t) + w(t,p) for every place."""
    if any(marking.get(p, 0) < w for p, w in pre.items()):
        with pytest.raises(NetStructureError):
            apply_firing(marking, pre, post)
        return
    result = apply_firing(marking, pre, post)
    for place in set(marking) | set(pre) | set(post):
        expected = marking.get(place, 0) - pre.get(place, 0) + post.get(place, 0)
        assert result.get(place, 0) == expected

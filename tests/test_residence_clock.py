"""The residence clock behind the derived timeouts.

``ResidenceClock`` is the one rule the simulator and the explorer share:
``timeout_M`` / ``timeout_A`` hold once an agent's mode token has stayed
``budget_m`` / ``budget_a`` ticks in P_M / P_A, and every observed mode
change restarts the clock.
"""

import pytest

from smart_tgpn.builder import AgentSpec, ResidenceClock, SmartConfig, build_multi_agent, build_single_agent


def in_mode(*keys_by_agent):
    """Marking with each (agent, mode key) pair's token in that mode place."""
    marking = {}
    for agent, key in keys_by_agent:
        marking.update({place: int(k == key) for k, place in agent.mode_places.items()})
    return marking


def single(budget_m=3, budget_a=4):
    smart = build_single_agent(SmartConfig(budget_m=budget_m, budget_a=budget_a))
    return smart.agents[0], ResidenceClock.at(smart.agents, in_mode((smart.agents[0], "S")), [0])


def test_timeout_holds_once_the_budget_is_spent():
    agent, clock = single()
    assert clock.observe(in_mode((agent, "M")), 2) == ["timeout_M"]
    assert [clock.timeouts(t)["timeout_M"] for t in (2, 4, 5, 9)] == [False, False, True, True]
    assert clock.deadlines() == [("timeout_M", 5)]


def test_a_mode_change_restarts_the_clock():
    agent, clock = single()
    clock.observe(in_mode((agent, "M")), 0)
    assert clock.timeouts(3)["timeout_M"]
    assert clock.observe(in_mode((agent, "A")), 5) == ["timeout_A"]
    assert clock.timeouts(6) == {"timeout_M": False, "timeout_A": False}
    assert clock.timeouts(9) == {"timeout_M": False, "timeout_A": True}
    assert clock.residence(7) == (("", 2),)


def test_leaving_and_reentering_within_one_instant_restarts_the_clock():
    agent, clock = single()
    clock.observe(in_mode((agent, "M")), 0)
    assert clock.timeouts(3)["timeout_M"]
    # observed firing by firing: M -> R -> S -> M, all at tick 3
    assert clock.observe(in_mode((agent, "R")), 3) == []
    assert clock.observe(in_mode((agent, "S")), 3) == []
    assert clock.observe(in_mode((agent, "M")), 3) == ["timeout_M"]
    assert not clock.timeouts(3)["timeout_M"] and not clock.timeouts(5)["timeout_M"]
    assert clock.timeouts(6)["timeout_M"]
    # a marking that shows no change restarts nothing
    assert clock.observe(in_mode((agent, "M")), 7) == []
    assert clock.deadlines() == [("timeout_M", 6)]


def test_timeouts_are_false_outside_the_recovery_places():
    agent, clock = single(budget_m=1, budget_a=1)
    for key in ("S", "R"):
        clock.observe(in_mode((agent, key)), 0)
        assert clock.deadlines() == []
        assert clock.timeouts(100) == {"timeout_M": False, "timeout_A": False}


def test_each_agent_uses_its_own_budgets():
    smart = build_multi_agent([AgentSpec("a1", SmartConfig(budget_m=2, budget_a=7)),
                               AgentSpec("a2", SmartConfig(budget_m=6, budget_a=3))])
    a1, a2 = smart.agents
    clock = ResidenceClock.at(smart.agents, in_mode((a1, "S"), (a2, "S")), [0, 0])
    assert clock.observe(in_mode((a1, "M"), (a2, "A")), 1) == ["timeout_M_a1", "timeout_A_a2"]
    assert clock.deadlines() == [("timeout_M_a1", 3), ("timeout_A_a2", 4)]
    assert clock.timeouts(3) == {"timeout_M_a1": True, "timeout_A_a1": False,
                                 "timeout_M_a2": False, "timeout_A_a2": False}
    assert clock.timeouts(4)["timeout_A_a2"]
    # residence is capped at each agent's larger budget
    assert clock.residence(20) == (("_a1", 7), ("_a2", 6))


def test_a_copy_runs_apart():
    agent, clock = single()
    copy = clock.copy()
    copy.observe(in_mode((agent, "M")), 1)
    assert clock.modes == ["S"] and copy.modes == ["M"]
    assert clock.entered == [0] and copy.entered == [1]


def timeouts_by_name(clock, now):
    """The timeouts as first defined: each signal name built from the mode
    key and the agent's suffix, all false but those whose budget is spent."""
    values = {f"timeout_{key}{agent.suffix}": False for agent in clock.agents for key in "MA"}
    for agent, mode, entered in zip(clock.agents, clock.modes, clock.entered):
        if mode in ("M", "A"):
            budget = agent.config.budget_m if mode == "M" else agent.config.budget_a
            values[f"timeout_{mode}{agent.suffix}"] = now >= entered + budget
    return values


@pytest.mark.parametrize("agents", [
    build_single_agent(SmartConfig(budget_m=3, budget_a=4)).agents,
    build_multi_agent([AgentSpec("a1", SmartConfig(budget_m=2, budget_a=7)),
                       AgentSpec("a2", SmartConfig(budget_m=6, budget_a=3))]).agents,
], ids=["one-agent", "two-agents"])
def test_timeouts_equal_the_names_built_per_call(agents):
    clock = ResidenceClock.at(agents, in_mode(*((agent, "S") for agent in agents)), [0] * len(agents))
    keys = ["M", "A"]

    def check_around_each_budget():
        for agent, mode, entered in zip(agents, clock.modes, clock.entered):
            budget = agent.config.budget_m if mode == "M" else agent.config.budget_a
            for now in (entered, entered + budget - 1, entered + budget):
                assert list(clock.timeouts(now).items()) == list(timeouts_by_name(clock, now).items())

    clock.observe(in_mode(*zip(agents, keys)), 2)
    check_around_each_budget()
    # every agent leaves and re-enters its mode place within tick 9
    clock.observe(in_mode(*((agent, "R") for agent in agents)), 9)
    clock.observe(in_mode(*zip(agents, keys)), 9)
    assert clock.entered == [9] * len(agents)
    check_around_each_budget()

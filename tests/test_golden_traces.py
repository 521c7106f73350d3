"""Golden digests: the reference scenarios simulate to the same bytes, and
the builders save the same net documents.

Each `scenarios/*.scenario.json` is run through `smart-tgpn simulate`, and
the sha256 of its trace, `report.json` and `report.txt` must equal the
digests in `golden_digests.json`. The sha256 of the saved document of each
build in `BUILDS` must equal its entry in `golden_net_documents.json`. A
change that alters a trace or a built net on purpose regenerates both files
with `python tests/test_golden_traces.py` and says which scenarios or builds
changed and why.
"""

import glob
import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIOS = sorted(glob.glob(os.path.join(HERE, "..", "scenarios", "*.scenario.json")))
DIGESTS = os.path.join(HERE, "golden_digests.json")
NET_DIGESTS = os.path.join(HERE, "golden_net_documents.json")
ARTIFACTS = ("trace.jsonl", "report.json", "report.txt")
HYSTERESIS = {"enabled": True}
BUILDS = {
    "single-default": (1, {}),
    "single-hysteresis": (1, {"hysteresis": HYSTERESIS}),
    "single-structural-only": (1, {"gating_mode": "structural-only"}),
    "macro-only": ("macro-only", {}),
    "two-default": (["a1", "a2"], {}),
    "two-hysteresis": (["a1", "a2"], {"hysteresis": HYSTERESIS}),
    "three-mixed": (
        [{"id": "a1"}, {"id": "a2", "config": {"delta_s": 3, "hysteresis": HYSTERESIS}},
         {"id": "a3", "config": {"budget_a": 2, "gating_mode": "structural-only"}}],
        {"theta": 0.6},
    ),
}


def digests_of(path, out_dir):
    """(exit code, {artifact: sha256}) of one simulate run."""
    from smart_tgpn.cli import main

    code = main(["simulate", path, "--out", out_dir])
    with open(path, encoding="utf-8") as fh:
        name = json.load(fh)["name"]
    hashes = {}
    for artifact in ARTIFACTS:
        with open(os.path.join(out_dir, f"{name}.{artifact}"), "rb") as fh:
            hashes[artifact] = hashlib.sha256(fh.read()).hexdigest()
    return code, hashes


def build_digest(agents, config):
    """sha256 of the saved document of one builder call."""
    from smart_tgpn.builder import AgentSpec, build_macro_only, build_multi_agent, build_single_agent
    from smart_tgpn.netio import config_from_document, smart_to_document

    cfg = config_from_document(config)
    if agents == 1:
        smart = build_single_agent(cfg)
    elif agents == "macro-only":
        smart = build_macro_only(cfg)
    else:
        specs = [AgentSpec(a) if isinstance(a, str)
                 else AgentSpec(a["id"], config_from_document(a["config"]) if "config" in a else None)
                 for a in agents]
        smart = build_multi_agent(specs, base_config=cfg)
    text = json.dumps(smart_to_document(smart), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_scenario_has_a_digest():
    with open(DIGESTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == [os.path.basename(p) for p in SCENARIOS]


@pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
def test_scenario_artifacts_match_their_digests(path, tmp_path, monkeypatch):
    monkeypatch.delenv("SMART_TGPN_SEED", raising=False)  # scenarios without a seed read it
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)[os.path.basename(path)]
    code, hashes = digests_of(path, str(tmp_path))
    assert {"exit": code, **hashes} == expected


@pytest.mark.parametrize("label", sorted(BUILDS))
def test_built_net_documents_match_their_digests(label):
    with open(NET_DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(expected) == sorted(BUILDS)
    assert build_digest(*BUILDS[label]) == expected[label]


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, os.path.join(HERE, "..", "src"))
    os.environ.pop("SMART_TGPN_SEED", None)
    golden = {}
    for path in SCENARIOS:
        with tempfile.TemporaryDirectory() as out_dir:
            code, hashes = digests_of(path, out_dir)
        golden[os.path.basename(path)] = {"exit": code, **hashes}
    nets = {label: build_digest(*build) for label, build in BUILDS.items()}
    for target, digests in ((DIGESTS, golden), (NET_DIGESTS, nets)):
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")

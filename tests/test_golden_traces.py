"""Golden digests: the reference scenarios simulate to the same bytes.

Each `scenarios/*.scenario.json` is run through `smart-tgpn simulate`, and
the sha256 of its trace, `report.json` and `report.txt` must equal the
digests in `golden_digests.json`. A change that alters a trace on purpose
regenerates the file with `python tests/test_golden_traces.py` and says
which scenarios changed and why.
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
ARTIFACTS = ("trace.jsonl", "report.json", "report.txt")


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


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, os.path.join(HERE, "..", "src"))
    os.environ.pop("SMART_TGPN_SEED", None)
    golden = {}
    for path in SCENARIOS:
        with tempfile.TemporaryDirectory() as out_dir:
            code, hashes = digests_of(path, out_dir)
        golden[os.path.basename(path)] = {"exit": code, **hashes}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")

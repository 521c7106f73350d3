"""Golden explorations: the explorer builds the same graphs, byte for byte.

Each case of `test_explore_memo.CASES` is explored, and the sha256 of its
`export_lines()` (every state and every quotient edge, in order), of the
same lines sorted, and of its `graph.stats` counters must equal the entry
in `golden_explorations.json`. A change that alters an exploration on
purpose regenerates the file with `python tests/test_golden_explorations.py`
and says which cases changed and why. A change of order alone moves only
`export_lines`: the sorted `export_set` and `stats` stay.
"""

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
EXPLORATIONS = os.path.join(HERE, "golden_explorations.json")
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, "..", "src"))

from smart_tgpn.analysis import explore  # noqa: E402
from test_explore_memo import CASES  # noqa: E402


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests_of(name):
    """{"export_lines": sha256, "export_set": sha256, "stats": sha256} of one
    case's exploration."""
    factory, cfg, _ = CASES[name]
    graph = explore(factory(), cfg)
    lines = [line + "\n" for line in graph.export_lines()]
    return {
        "export_lines": _sha256("".join(lines)),
        "export_set": _sha256("".join(sorted(lines))),
        "stats": _sha256(json.dumps(graph.stats, sort_keys=True)),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_exploration_matches_its_golden_entry(name):
    with open(EXPLORATIONS, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(expected) == sorted(CASES)
    assert digests_of(name) == expected[name]


if __name__ == "__main__":
    golden = {name: digests_of(name) for name in sorted(CASES)}
    with open(EXPLORATIONS, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")

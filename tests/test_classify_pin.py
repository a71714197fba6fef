"""`classify --json` is pinned: every fixture in every default class, and
four probe manifests beyond the fixtures (flat R^6 in p2n6, Minkowski and
de Sitter charts, a trigonometric chart), print exactly the document
`tests/data/classify_all.json` holds for them."""

import json
from pathlib import Path

import pytest

from poissonsym import catalog
from poissonsym.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"

#: probe id -> (manifest in tests/data, class)
PROBES = {"flat6:p2n6": ("probe_flat6.json", "p2n6"),
          "minkowski4:critical": ("probe_minkowski4.json", "critical"),
          "minkowski4:exponential": ("probe_minkowski4.json", "exponential"),
          "desitter4:critical": ("probe_desitter4.json", "critical"),
          "sin2:arbitrary": ("probe_sin2.json", "arbitrary")}


def _class_args(name):
    return ["--class", "power", "--p", "3"] if name == "power3" \
        else ["--class", name]


CASES = {f"{g}:{c}": ["--geometry", g, *_class_args(c)]
         for g in catalog.GEOMETRY_NAMES for c in catalog.DEFAULT_CLASSES}
CASES.update({key: [str(DATA / path), *_class_args(c)]
              for key, (path, c) in PROBES.items()})


@pytest.fixture(scope="module")
def golden():
    return json.loads((DATA / "classify_all.json").read_text())


def test_pin_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("key", CASES)
def test_classify_json_is_pinned(key, golden, capsys):
    code = main(["classify", *CASES[key], "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == json.dumps(golden[key], indent=2) + "\n"

"""Replay the golden corpus: every request's exit code and stdout, byte for byte."""
import json

import pytest

from golden_corpus import CORPUS, requests, run

ENTRIES = json.loads(CORPUS.read_text())


def test_corpus_covers_every_family():
    commands = {tuple(e["argv"][:2]) for e in ENTRIES}
    assert {("counterexample", "ddv"), ("counterexample", "dk"), ("case", "one-var"),
            ("case", "phi"), ("case", "monomial"), ("case", "two-monomial")} <= commands
    assert {e["argv"][0] for e in ENTRIES} >= {"vanish", "polytope", "density", "dk"}
    assert {e["exit"] for e in ENTRIES} <= {0, 1, 2}


def test_corpus_matches_request_list():
    # a request added without regenerating, or a printing change in the argv
    # the acceptance families build through to_string, shows up here
    assert [e["argv"] for e in ENTRIES] == requests()


# a structured request is named without its format words, a text one with them
IDS = [" ".join(e["argv"]).removesuffix(" --format structured") for e in ENTRIES]


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_replay(entry, monkeypatch):
    monkeypatch.delenv("VANISHLAB_HORIZON", raising=False)
    assert run(entry["argv"]) == (entry["exit"], entry["stdout"])

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


# the line that carries each subcommand's verdict, and the exit code of each
# of its words: a corpus regeneration cannot record a wrong code as truth
EXIT_CODES = {
    "case": ("status", {"confirmed": 0, "hypothesis-fails": 1, "failed": 1, "inconclusive": 2}),
    "vanish": ("verdict", {"verified-up-to-horizon": 0, "hypothesis-fails": 1,
                           "inconclusive": 2}),
    "density": ("verdict", {"found": 0, "inconclusive": 2}),
    "dk": ("verdict", {"consistent": 0, "hypothesis-fails": 1, "predicts-nonzero": 2}),
    "counterexample": ("ok", {"true": 0, "false": 1}),
    # a move-away bound that is undefined exits 1, any other answer 0
    "polytope": ("moveaway_N", {"undefined": 1}),
}


# each structured entry by its argv without the format words
STRUCTURED = {tuple(e["argv"][:-2]): e for e in ENTRIES if e["argv"][-1] == "structured"}


def verdict_exit(entry):
    """The exit code that the verdict line of a corpus entry gives."""
    key, codes = EXIT_CODES[entry["argv"][0]]
    lines = entry["stdout"].splitlines()
    if entry["argv"][-2:] == ["--format", "text"]:
        if entry["argv"][0] != "case":
            # only a case verdict prints its word in text; any other text entry
            # copies a structured one, whose verdict line gives the code
            return verdict_exit(STRUCTURED[tuple(entry["argv"][:-2])])
        # "  status: confirmed (verified up to horizon only)"
        words = [line.split()[1] for line in lines if line.startswith(f"  {key}: ")]
    else:
        words = [line.partition("=")[2] for line in lines if line.startswith(f"{key}=")]
    if key == "moveaway_N":
        return max((codes.get(word, 0) for word in words), default=0)
    (word,) = words
    return codes[word]


def test_exit_codes_follow_the_verdicts():
    assert [verdict_exit(e) for e in ENTRIES] == [e["exit"] for e in ENTRIES]


# a structured request is named without its format words, a text one with them
IDS = [" ".join(e["argv"]).removesuffix(" --format structured") for e in ENTRIES]


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_replay(entry, monkeypatch):
    monkeypatch.delenv("VANISHLAB_HORIZON", raising=False)
    assert run(entry["argv"]) == (entry["exit"], entry["stdout"])

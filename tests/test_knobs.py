"""Every ``REPRO_*`` environment knob the code reads is documented in
EXPERIMENTS.md, and the documentation names no knob that is gone."""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

KNOB = re.compile(r"REPRO_[A-Z_]+")
TABLE_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z_]+)`", re.MULTILINE)


def knobs_in_code():
    names = set()
    for tree in ("src", "benchmarks"):
        for path in (REPO_ROOT / tree).rglob("*.py"):
            names.update(KNOB.findall(path.read_text(encoding="utf-8")))
    return names


def experiments_text():
    return (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


def test_every_knob_read_is_documented_and_vice_versa():
    documented = set(TABLE_ROW.findall(experiments_text()))
    read = knobs_in_code()
    assert read - documented == set(), "read but undocumented"
    assert documented - read == set(), "documented but never read"


def test_experiments_mentions_no_removed_knob():
    assert set(KNOB.findall(experiments_text())) <= knobs_in_code()

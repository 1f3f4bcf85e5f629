"""Every golden case still prints what it printed when its digest was written."""

import json

import golden


def test_every_golden_case_matches_its_digest():
    want = json.loads(golden.DATA.read_text())
    got = golden.compute()
    assert sorted(got) == sorted(want), "the case list and the digest file disagree"
    assert [name for name in want if got[name] != want[name]] == []

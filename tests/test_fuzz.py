"""Tier-1 coverage for the differential fuzzing subsystem.

The suite pins the three properties the subsystem sells: determinism
(same seed → same cases, buckets, and shrunk artifacts, three times in
a row), sensitivity (a planted engine divergence is found and minimised
within fixed bounds), and hygiene (the corruption matrix stays green and
the fuzzer's own case files reject malformation with typed errors).
"""

import json
from pathlib import Path

import pytest

from repro.errors import FuzzError
from repro.fuzz import (
    FAMILIES,
    corruption_matrix,
    ddmin,
    generate_case,
    load_case,
    plan_cases,
    replay_corpus,
    run_campaign,
    run_case,
    shrink_case,
)
from repro.fuzz.campaign import _planted_case

CORPUS = Path(__file__).parent / "corpus"


# ----------------------------------------------------------------------
# Generators and cases
# ----------------------------------------------------------------------


def test_generate_case_is_deterministic():
    for family in FAMILIES:
        a = generate_case(family, 1234)
        b = generate_case(family, 1234)
        assert a.case_id == b.case_id
        assert a.records == b.records and a.config == b.config


def test_case_roundtrip(tmp_path):
    case = generate_case("degenerate-stride", 7)
    path = case.save(tmp_path / "case.json")
    loaded = load_case(path)
    assert loaded.case_id == case.case_id
    assert loaded.records == case.records
    assert loaded.config == case.config


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.update(schema=99), "schema"),
    (lambda d: d.update(records="nope"), "not a list"),
    (lambda d: d["records"].append([1, 2, 3]), "5-int row"),
    (lambda d: d["config"].update(bogus=1), "unknown config keys"),
    (lambda d: d["records"][0].__setitem__(1, 0xDEAD), "hash mismatch"),
    (lambda d: d["config"].update(berti={"history_sets": 3}), "berti"),
])
def test_case_schema_rejection(tmp_path, mutate, match):
    case = generate_case("degenerate-stride", 7)
    doc = case.to_dict()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FuzzError, match=match):
        load_case(path)


def test_case_file_not_json_is_typed(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(FuzzError, match="not valid JSON"):
        load_case(path)


def test_empty_trace_case_is_reject_and_runs_clean():
    case = generate_case("warmup-edge", 2)  # seed 2 draws n=0
    assert case.records == []
    assert case.expect == "reject"
    assert run_case(case) is None  # typed refusal from every engine


# ----------------------------------------------------------------------
# Shrinker
# ----------------------------------------------------------------------


def test_ddmin_finds_minimal_subset():
    # Failure iff both sentinels survive: the minimum is exactly them.
    items = list(range(40))
    budget = [500]
    out = ddmin(items, lambda sub: 7 in sub and 31 in sub, budget)
    assert out == [7, 31]


def test_ddmin_respects_budget():
    items = list(range(64))
    budget = [3]
    out = ddmin(items, lambda sub: 5 in sub, budget)
    assert 5 in out  # still failing, just not fully minimised
    assert budget[0] == 0


def test_planted_divergence_is_found_and_shrunk():
    case = _planted_case(seed=1759, plant_at=40)
    finding = run_case(case)
    assert finding is not None
    assert finding.signature.startswith("engines:")
    result = shrink_case(case, finding.signature, max_records=64)
    assert not result.exhausted
    assert len(result.case.records) <= 64
    assert result.case.expect_finding == finding.signature
    # The plant fires at access 40, so 41 records is the true minimum —
    # the shrinker must land on it, not just under the bound.
    assert len(result.case.records) == 41
    replay = run_case(result.case)
    assert replay is not None and replay.signature == finding.signature


def test_shrink_is_deterministic_across_runs():
    case = _planted_case(seed=1759, plant_at=40)
    finding = run_case(case)
    ids = set()
    for _ in range(3):
        result = shrink_case(case, finding.signature, max_records=64)
        ids.add(result.case.case_id)
    assert len(ids) == 1


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------


def test_plan_is_deterministic_and_covers_families():
    a = [c.case_id for c in plan_cases(seed=9, n_cases=10)]
    b = [c.case_id for c in plan_cases(seed=9, n_cases=10)]
    assert a == b
    families = {c.family for c in plan_cases(seed=9, n_cases=10)}
    assert families == set(FAMILIES)


def test_campaign_buckets_are_deterministic(tmp_path):
    outcomes = []
    for run in range(3):
        out = tmp_path / f"run{run}"
        rep = run_campaign(2, seed=2026, out_dir=out,
                           plant_divergence=40, skip_corruption=True)
        doc = rep.to_dict()
        outcomes.append((doc["buckets"],
                         {k: v["case_id"] for k, v in doc["shrunk"].items()}))
        assert (out / "report.json").exists()
    assert outcomes[0] == outcomes[1] == outcomes[2]
    buckets, shrunk = outcomes[0]
    assert len(buckets) == 1
    (sig,) = buckets
    assert sig.startswith("engines:")
    shrunk_path = tmp_path / "run0" / "cases" / f"{shrunk[sig]}.json"
    assert load_case(shrunk_path).expect_finding == sig


def test_campaign_clean_run_is_ok(tmp_path):
    rep = run_campaign(1, seed=11, out_dir=tmp_path, skip_corruption=True)
    assert rep.ok
    assert rep.cases_run == rep.planned == 2
    assert not rep.truncated
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] and report["buckets"] == {}


# ----------------------------------------------------------------------
# Corruption matrix
# ----------------------------------------------------------------------


def test_corruption_matrix_green_on_all_formats(tmp_path):
    rep = corruption_matrix(tmp_path, seed=5)
    assert sorted(rep.per_format) == ["journal", "resultcache",
                                      "snapshot", "tracestore", "wal"]
    assert all(n > 20 for n in rep.per_format.values())
    assert rep.findings == []
    assert rep.rejected + rep.healed == rep.checked


# ----------------------------------------------------------------------
# Committed corpus
# ----------------------------------------------------------------------


def test_committed_corpus_replays_clean():
    results = replay_corpus(CORPUS)
    assert len(results) >= 5
    bad = [r for r in results if r["status"] != "ok"]
    assert bad == [], bad
    # The corpus must keep its sentinels: at least one expected-finding
    # case and one reject case.
    details = " | ".join(r["detail"] for r in results)
    assert "sentinel reproduced" in details


def test_sentinel_replays_without_the_kernel(monkeypatch):
    # With no kernel the engines leg's native side demotes every span to
    # the classic loop.  The plant sits on the classic side, so the
    # sentinel must still land in its bucket, and the same case without
    # the plant must run clean (no-compiler demotion is not a finding).
    import dataclasses

    from repro.native import build

    monkeypatch.setattr(build, "kernel_available",
                        lambda: (None, "no C compiler (test)"))
    case = load_case(CORPUS / "fz-5778b0fdf8ce.json")
    assert len(case.records) == 41
    finding = run_case(case)
    assert finding is not None
    assert finding.signature == case.expect_finding == "engines:core_clock"
    config = {k: v for k, v in case.config.items()
              if k != "plant_divergence"}
    assert run_case(dataclasses.replace(case, config=config)) is None


def test_replay_rejects_empty_corpus(tmp_path):
    with pytest.raises(FuzzError, match="no case files"):
        replay_corpus(tmp_path)

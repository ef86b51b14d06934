"""Corpus entries: round-trips, content addressing, coverage-preserving
minimization."""

from __future__ import annotations

import json

import pytest

from repro.verify.fuzz.corpus import (
    Corpus,
    CorpusEntry,
    minimize_entry,
    minimize_worker,
)
from repro.verify.fuzz.generate import generate_case
from repro.verify.litmus import Schedule, run_litmus
from repro.verify.litmus.minimize import _Budget, shrink_agents


def _entry(iteration: int = 0, policy: str = "baseline") -> CorpusEntry:
    test, schedule = generate_case(0, iteration)
    outcome = run_litmus(
        test, policy_name=policy, schedule=schedule, coverage=True
    )
    assert outcome.ok
    return CorpusEntry.make(test, schedule, policy, outcome.coverage,
                            seed=0, iteration=iteration)


class TestCorpusEntry:
    def test_json_round_trip_preserves_digest(self):
        entry = _entry()
        rebuilt = CorpusEntry.from_json(
            json.loads(json.dumps(entry.to_json()))
        )
        assert rebuilt.to_json() == entry.to_json()
        assert rebuilt.digest() == entry.digest()

    def test_digest_is_content_addressed(self):
        entry = _entry(0)
        other = _entry(1)
        assert entry.digest() != other.digest()
        assert len(entry.digest()) == 64

    def test_rejects_foreign_formats(self):
        with pytest.raises(ValueError, match="format"):
            CorpusEntry.from_json({"format": "nope/1"})

    def test_replay_reproduces_claimed_rows(self):
        entry = _entry()
        outcome = entry.replay()
        assert outcome.ok
        assert set(entry.new_coverage) <= set(outcome.coverage)

    def test_describe_mentions_digest_and_policy(self):
        entry = _entry()
        line = entry.describe()
        assert entry.digest()[:12] in line
        assert "baseline" in line


class TestCorpusDirectory:
    def test_add_load_and_dedup(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        entry = _entry()
        assert corpus.add(entry)
        assert not corpus.add(entry)  # same content: no second file
        assert len(corpus) == 1
        assert corpus.load(entry.digest()).to_json() == entry.to_json()

    def test_find_by_prefix(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        entry = _entry()
        corpus.add(entry)
        assert corpus.find(entry.digest()[:8]).digest() == entry.digest()
        with pytest.raises(KeyError):
            corpus.find("ffffffff" if entry.digest()[0] != "f" else "00000000")

    def test_sidecar_files_are_ignored(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        corpus.add(_entry())
        (tmp_path / "coverage.json").write_text("{}")
        (tmp_path / "report.json").write_text("{}")
        assert len(corpus.digests()) == 1

    def test_corpus_digest_pins_the_entry_set(self, tmp_path):
        first = Corpus(str(tmp_path / "a"))
        second = Corpus(str(tmp_path / "b"))
        for iteration in (0, 1):
            first.add(_entry(iteration))
        for iteration in (1, 0):  # insertion order must not matter
            second.add(_entry(iteration))
        assert first.corpus_digest() == second.corpus_digest()
        second.add(_entry(2))
        assert first.corpus_digest() != second.corpus_digest()


class TestMinimizeEntry:
    def test_shrunk_entry_still_claims_its_rows(self):
        entry = _entry(3)
        shrunk = minimize_entry(entry, max_runs=80)
        assert shrunk.new_coverage == entry.new_coverage
        outcome = shrunk.replay()
        assert outcome.ok
        assert set(shrunk.new_coverage) <= set(outcome.coverage)

    def test_never_grows(self):
        for iteration in range(4):
            entry = _entry(iteration)
            shrunk = minimize_entry(entry, max_runs=60)
            assert (shrunk.litmus().total_ops()
                    <= entry.litmus().total_ops())

    def test_minimization_is_deterministic(self):
        first = minimize_entry(_entry(2), max_runs=80)
        second = minimize_entry(_entry(2), max_runs=80)
        assert first.digest() == second.digest()

    def test_empty_slot_cleanup_is_validated(self):
        """Regression: a seed-0 campaign slot shrinks to a shape whose
        claimed row survives only while emptied agent slots still exist
        (agent count shifts every downstream tie-break).  The final strip
        of empty slots must be re-validated, not assumed cosmetic — it
        used to ship a corpus entry that failed replay.  (The pinned
        iteration tracks the generator: it must claim the row below and
        shrink to a shape that still carries an emptied slot.)"""
        test, schedule = generate_case(0, 189)
        target = ("dir-fig2/stateless", "B_U", "DMAWr")
        outcome = run_litmus(
            test, policy_name="baseline", schedule=schedule, coverage=True
        )
        assert target in set(outcome.coverage)
        entry = CorpusEntry.make(test, schedule, "baseline", [target],
                                 seed=0, iteration=189)
        shrunk = minimize_entry(entry, max_runs=200)
        replay = shrunk.replay()
        assert replay.ok
        assert set(shrunk.new_coverage) <= set(replay.coverage or ())

    def test_redundant_store_is_dropped(self):
        """An op the claimed rows don't need disappears: claim only the
        rows a single store fires, pad the program with extra loads."""
        test, schedule = generate_case(0, 5)
        single = test.with_agents([[("store", "x0", 1)]], [], [])
        baseline_rows = run_litmus(
            single, policy_name="baseline", schedule=schedule, coverage=True
        ).coverage
        padded = test.with_agents(
            [[("store", "x0", 1), ("load", "x1", "r0"),
              ("load", "x2", "r1")]],
            [], [],
        )
        entry = CorpusEntry.make(padded, schedule, "baseline",
                                 baseline_rows, seed=0, iteration=5)
        shrunk = minimize_entry(entry, max_runs=120)
        assert shrunk.litmus().total_ops() == 1


class TestShrinkMemo:
    """Seed-0 iteration 5 under the baseline policy: ddmin proposes 46
    candidates, nine of them repeats of programs it already judged."""

    #: the shrunk program and budget spent; the memo must not change them
    SHRUNK_THREADS = [
        [["store", "x1", 210], ["atomic", "x2", "max", 7, "a2"],
         ["store", "x0", 110]],
        [],
        [["load", "x1", "r0"], ["flush", "x3"], ["store", "x2", 14]],
        [["load", "x4", "r0"], ["atomic", "x3", "cas", 7, "a1"],
         ["store", "x2", 114]],
    ]
    BUDGET_USED = 46
    ENTRY_DIGEST = (
        "af818a824d5650adebadf4e7498ab46c9001275dba7199f53249021292b0d211"
    )

    def test_repeated_candidates_are_judged_once(self):
        entry = _entry(5)
        claimed = set(entry.new_coverage)
        schedule = entry.schedule_obj()
        judged = []

        def still_covers(candidate) -> bool:
            judged.append(json.dumps(candidate.to_json(), sort_keys=True))
            outcome = run_litmus(candidate, policy_name="baseline",
                                 schedule=schedule, coverage=True)
            return claimed <= set(outcome.coverage or ())

        budget = _Budget(120)
        shrunk = shrink_agents(entry.litmus(), still_covers, budget)
        assert json.loads(json.dumps(shrunk.threads)) == self.SHRUNK_THREADS
        assert shrunk.gpu_waves == [] and len(shrunk.dma) == 1
        assert budget.used == self.BUDGET_USED
        assert len(judged) == len(set(judged))
        assert len(judged) < budget.used

    def test_pool_worker_and_inline_shrink_agree(self):
        entry = _entry(5)
        inline = minimize_entry(entry, max_runs=120)
        answer = minimize_worker({"entry": entry.to_json(), "max_runs": 120})
        assert inline.digest() == self.ENTRY_DIGEST
        assert CorpusEntry.from_json(answer).digest() == self.ENTRY_DIGEST

"""Campaign determinism (satellite 1), resume semantics, and store reuse."""

from __future__ import annotations

import json
import os

import pytest

from repro.store import ResultStore
from repro.verify.fuzz import campaign
from repro.verify.fuzz.campaign import (
    BATCH_PROGRAMS,
    COVERAGE_FILE,
    REPORT_FILE,
    run_campaign,
)
from repro.verify.fuzz.corpus import Corpus

#: corpus digest of the seed-0, budget-30 baseline campaign below
BUDGET30_DIGEST = (
    "a35953b3403498f7c51639457a6267146db5ac46c29f2393641969c4fc8cd854"
)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestDeterminism:
    def test_same_seed_and_budget_is_byte_identical(self, tmp_path):
        """Satellite 1: two fresh campaigns with the same (seed, budget,
        policies) produce identical corpus digests and byte-identical
        coverage and report files."""
        results = []
        for name in ("a", "b"):
            corpus_dir = str(tmp_path / name)
            result = run_campaign(
                seed=0, budget=30, corpus_dir=corpus_dir,
                policies=["baseline"], jobs=2, minimize_runs=60,
            )
            results.append((corpus_dir, result))
        (dir_a, first), (dir_b, second) = results
        assert first.corpus_digest == second.corpus_digest
        # pinned across refactors of the shared shrinker and resolve loop
        assert first.corpus_digest == BUDGET30_DIGEST
        assert Corpus(dir_a).digests() == Corpus(dir_b).digests()
        assert _read(os.path.join(dir_a, COVERAGE_FILE)) == _read(
            os.path.join(dir_b, COVERAGE_FILE)
        )
        assert _read(os.path.join(dir_a, REPORT_FILE)) == _read(
            os.path.join(dir_b, REPORT_FILE)
        )
        assert first.report_data == second.report_data

    def test_job_count_does_not_change_the_output(self, tmp_path):
        """Corpus entries are shrunk on the pool at ``jobs > 1`` and
        inline at ``jobs=1``: both give the pinned corpus and
        byte-identical coverage and report files."""
        dirs = {}
        for jobs in (1, 2):
            dirs[jobs] = str(tmp_path / f"jobs{jobs}")
            result = run_campaign(
                seed=0, budget=30, corpus_dir=dirs[jobs],
                policies=["baseline"], jobs=jobs, minimize_runs=60,
            )
            assert result.corpus_digest == BUDGET30_DIGEST
        for name in (COVERAGE_FILE, REPORT_FILE):
            assert _read(os.path.join(dirs[1], name)) == _read(
                os.path.join(dirs[2], name)
            )

    def test_campaign_reports_per_policy_percentages(self, tmp_path):
        result = run_campaign(
            seed=1, budget=10, corpus_dir=str(tmp_path / "c"),
            policies=["baseline"], jobs=1, minimize_runs=40,
        )
        entry = result.report_data["policies"]["baseline"]
        assert 0 < entry["percent"] < 100
        assert entry["dead_candidates"] == []
        assert result.runs == 10
        assert result.iterations == 10
        assert "baseline" in result.report_text


class TestResume:
    def test_rerun_into_same_corpus_adds_nothing(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        first = run_campaign(
            seed=0, budget=20, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=2, minimize_runs=60,
        )
        assert first.new_entries > 0
        second = run_campaign(
            seed=0, budget=20, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=2, minimize_runs=60,
        )
        assert second.new_entries == 0
        assert second.corpus_digest == first.corpus_digest
        assert second.report_data == first.report_data

    def test_interrupted_campaign_resumes_to_the_same_corpus(
            self, tmp_path, monkeypatch):
        """A campaign killed while shrinking batch 2 leaves batch 1's
        coverage and entries only; re-running it ends with the corpus of
        an uninterrupted campaign."""
        real = campaign.minimize_entry

        def interrupted(entry, **kwargs):
            if entry.iteration >= BATCH_PROGRAMS:
                raise RuntimeError("interrupted")
            return real(entry, **kwargs)

        batch1_dir = str(tmp_path / "batch1")
        run_campaign(
            seed=0, budget=BATCH_PROGRAMS, corpus_dir=batch1_dir,
            policies=["baseline"], jobs=1, minimize_runs=60,
        )
        corpus_dir = str(tmp_path / "c")
        monkeypatch.setattr(campaign, "minimize_entry", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_campaign(
                seed=0, budget=30, corpus_dir=corpus_dir,
                policies=["baseline"], jobs=1, minimize_runs=60,
            )
        assert _read(os.path.join(corpus_dir, COVERAGE_FILE)) == _read(
            os.path.join(batch1_dir, COVERAGE_FILE)
        )
        assert Corpus(corpus_dir).digests() == Corpus(batch1_dir).digests()

        monkeypatch.setattr(campaign, "minimize_entry", real)
        resumed = run_campaign(
            seed=0, budget=30, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=1, minimize_runs=60,
        )
        assert resumed.corpus_digest == BUDGET30_DIGEST

    def test_larger_budget_extends_a_finished_campaign(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        small = run_campaign(
            seed=0, budget=10, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=2, minimize_runs=40,
        )
        grown = run_campaign(
            seed=0, budget=30, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=2, minimize_runs=40,
        )
        small_cov = small.report_data["policies"]["baseline"]["covered"]
        grown_cov = grown.report_data["policies"]["baseline"]["covered"]
        assert grown_cov >= small_cov
        assert len(Corpus(corpus_dir)) >= small.new_entries


class TestDirectedCampaign:
    def test_targets_are_tracked_and_reported(self, tmp_path):
        """Directed mode biases generation via profile_for_targets and
        reports which target rows any swept policy reached.  The target
        here is one the directed seed-1 stream hits by slot 12."""
        target = ("dir-table1", "S", "DirEvict")
        result = run_campaign(
            seed=1, budget=13, corpus_dir=str(tmp_path / "c"),
            policies=["sharers"], jobs=2, minimize_runs=40,
            targets=[target],
        )
        assert result.targets == [target]
        assert target in result.targets_hit
        assert "HIT" in result.describe()

    def test_directed_and_default_campaigns_diverge(self, tmp_path):
        """A directed campaign must actually change the generated stream
        (different corpus digest than the default campaign at the same
        seed and budget)."""
        default = run_campaign(
            seed=3, budget=8, corpus_dir=str(tmp_path / "default"),
            policies=["baseline"], jobs=2, minimize_runs=40,
        )
        directed = run_campaign(
            seed=3, budget=8, corpus_dir=str(tmp_path / "directed"),
            policies=["baseline"], jobs=2, minimize_runs=40,
            targets=[("corepair-moesi", "M", "Evict")],
        )
        assert directed.corpus_digest != default.corpus_digest


class TestStoreBackedCampaign:
    def test_warm_rerun_matches_cold(self, tmp_path):
        with ResultStore(tmp_path / "results.sqlite") as store:
            cold = run_campaign(
                seed=0, budget=16, corpus_dir=str(tmp_path / "cold"),
                policies=["baseline"], store=store, jobs=2,
                minimize_runs=40,
            )
            warm = run_campaign(
                seed=0, budget=16, corpus_dir=str(tmp_path / "warm"),
                policies=["baseline"], store=store, jobs=2,
                minimize_runs=40,
            )
        assert warm.corpus_digest == cold.corpus_digest
        assert warm.report_data == cold.report_data


class TestFailures:
    def test_event_cap_applies_to_failure_minimization(self, tmp_path):
        """Regression: a campaign with a non-default ``max_events`` used to
        re-run its failures under the default cap while minimizing them;
        the re-run passed and the failure was silently dropped.  The
        artifact records the cap, so it replays the same crash."""
        from repro.verify.litmus import load_artifact, replay_artifact

        result = run_campaign(
            seed=0, budget=6, corpus_dir=str(tmp_path / "c"),
            policies=["baseline"], jobs=1, max_events=200,
            failure_minimize_runs=40,
        )
        assert len(result.failures) == 1
        artifact = load_artifact(result.failures[0])
        assert artifact["failure"]["kind"] == "crash"
        assert artifact["max_events"] == 200
        outcome = replay_artifact(result.failures[0])
        assert outcome.failure_kind == "crash"


class TestArtifacts:
    def test_coverage_file_is_loadable_json(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        run_campaign(
            seed=0, budget=10, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=1, minimize_runs=40,
        )
        with open(os.path.join(corpus_dir, COVERAGE_FILE)) as handle:
            coverage = json.load(handle)
        assert coverage["format"] == "repro-fuzz-coverage/1"
        with open(os.path.join(corpus_dir, REPORT_FILE)) as handle:
            report = json.load(handle)
        assert report["format"] == "repro-fuzz-report/1"

    def test_corpus_entries_replay_clean(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        run_campaign(
            seed=0, budget=10, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=1, minimize_runs=40,
        )
        corpus = Corpus(corpus_dir)
        assert len(corpus) > 0
        for entry in corpus.entries()[:3]:
            outcome = entry.replay()
            assert outcome.ok
            assert set(entry.new_coverage) <= set(outcome.coverage)

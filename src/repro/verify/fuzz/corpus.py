"""The fuzz corpus: deduplicated, minimized, replayable JSON inputs.

A corpus entry is one ``(litmus, schedule, policy)`` input that reached
table rows no earlier input had reached, together with the rows it
claimed.  Entries are content-addressed (SHA-256 of the canonical JSON),
so re-running a campaign can only ever re-create identical files — which
makes ``corpus_digest`` (the hash of the sorted entry digests) the one
number the determinism regression pins.

Minimization reuses the litmus shrinker
(:func:`repro.verify.litmus.minimize.shrink_agents`), but with coverage
as the predicate instead of failure: ops are dropped while the shrunk program
still fires every row the entry claimed, so corpus entries stay small
without losing the coverage they exist to witness.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.verify.litmus.dsl import LitmusTest
from repro.verify.litmus.harness import run_litmus
from repro.verify.litmus.minimize import _Budget, shrink_agents
from repro.verify.litmus.schedule import Schedule

ENTRY_FORMAT = "repro-fuzz-corpus/1"


class CorpusEntry:
    """One coverage-claiming input, in its serialized (replayable) form."""

    def __init__(self, test: dict, schedule: dict, policy: str,
                 new_coverage: list, seed: int, iteration: int) -> None:
        self.test = test                  # LitmusTest.to_json()
        self.schedule = schedule          # Schedule.to_json()
        self.policy = policy
        self.new_coverage = sorted(tuple(t) for t in new_coverage)
        self.seed = seed
        self.iteration = iteration

    @classmethod
    def make(cls, test: LitmusTest, schedule: Schedule, policy: str,
             new_coverage, seed: int, iteration: int) -> "CorpusEntry":
        return cls(test.to_json(), schedule.to_json(), policy,
                   list(new_coverage), seed, iteration)

    def litmus(self) -> LitmusTest:
        return LitmusTest.from_json(self.test)

    def schedule_obj(self) -> Schedule:
        return Schedule.from_json(self.schedule)

    def to_json(self) -> dict:
        return {
            "format": ENTRY_FORMAT,
            "test": self.test,
            "schedule": self.schedule,
            "policy": self.policy,
            "new_coverage": [list(t) for t in self.new_coverage],
            "seed": self.seed,
            "iteration": self.iteration,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CorpusEntry":
        if data.get("format") != ENTRY_FORMAT:
            raise ValueError(
                f"not a fuzz corpus entry (format {data.get('format')!r})"
            )
        return cls(data["test"], data["schedule"], data["policy"],
                   data["new_coverage"], data["seed"], data["iteration"])

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        test_name = self.test.get("name", "?")
        ops = sum(len(s) for s in self.test.get("threads", []))
        ops += sum(len(s) for s in self.test.get("gpu_waves", []))
        ops += len(self.test.get("dma", []))
        return (
            f"{self.digest()[:12]}  {test_name:<16} @ {self.policy:<28} "
            f"{ops:>3} ops  +{len(self.new_coverage)} rows"
        )

    def replay(self, coverage: bool = True, trace: bool = False):
        """Re-run this entry live; returns the :class:`LitmusOutcome`."""
        return run_litmus(
            self.litmus(),
            policy_name=self.policy,
            schedule=self.schedule_obj(),
            coverage=coverage,
            trace=trace,
        )


class Corpus:
    """A directory of corpus entries, one ``<digest>.json`` file each."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    def digests(self) -> list[str]:
        return sorted(
            name[:-5] for name in os.listdir(self.root)
            if name.endswith(".json") and len(name) == 69
        )

    def entries(self) -> list[CorpusEntry]:
        return [self.load(digest) for digest in self.digests()]

    def load(self, digest: str) -> CorpusEntry:
        with open(self._path(digest)) as handle:
            return CorpusEntry.from_json(json.load(handle))

    def find(self, prefix: str) -> CorpusEntry:
        matches = [d for d in self.digests() if d.startswith(prefix)]
        if len(matches) != 1:
            raise KeyError(
                f"digest prefix {prefix!r} matches {len(matches)} entries"
            )
        return self.load(matches[0])

    def add(self, entry: CorpusEntry) -> bool:
        """Persist an entry; False if its digest is already present."""
        digest = entry.digest()
        path = self._path(digest)
        if os.path.exists(path):
            return False
        with open(path, "w") as handle:
            json.dump(entry.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return True

    def remove(self, digest: str) -> None:
        os.remove(self._path(digest))

    def corpus_digest(self) -> str:
        """One hash over the sorted entry digests — the determinism pin."""
        blob = "\n".join(self.digests())
        return hashlib.sha256(blob.encode()).hexdigest()

    def __len__(self) -> int:
        return len(self.digests())


def minimize_entry(entry: CorpusEntry, max_runs: int = 200) -> CorpusEntry:
    """Coverage-preserving shrink: drop ops while the program still fires
    every row the entry claimed as new.

    Unlike failure minimization there is no failure kind to preserve — the
    predicate is "the claimed triples are still all hit" — so passing runs
    are what we keep.  Returns a (possibly identical) new entry.
    """
    claimed = set(entry.new_coverage)
    schedule = entry.schedule_obj()
    policy = entry.policy

    def still_covers(candidate: LitmusTest) -> bool:
        outcome = run_litmus(
            candidate, policy_name=policy, schedule=schedule, coverage=True,
        )
        return claimed <= set(outcome.coverage or ())

    current = shrink_agents(entry.litmus(), still_covers, _Budget(max_runs))
    return CorpusEntry.make(current, schedule, policy, claimed,
                            entry.seed, entry.iteration)

"""Coverage-guided litmus fuzzing.

The fuzzer closes the loop the fixed litmus sweep leaves open: instead of
replaying a hand-written grid, it *generates* random litmus programs from
the JSON-able DSL plus schedule perturbations, measures which protocol
table rows each run fires (via :class:`TransitionCoverage` hooks), and
keeps a minimized corpus of the inputs that reached new rows.  The
coverage report cross-checks ``repro lint-protocol``: a row that is
reachable per the static lint but never hit by the fuzzer is a missing
litmus shape; a row hit by neither is a dead-entry candidate.

- :mod:`generate` — deterministic ``(seed, iteration) -> (test, schedule)``
- :mod:`coverage` — per-policy table universes, coverage state, reports
- :mod:`corpus` — deduplicated, ddmin-shrunk replayable JSON artifacts
- :mod:`campaign` — the budgeted loop; search and corpus shrinking fan
  out over the worker pool via :mod:`repro.store.resolve`
"""

from repro.verify.fuzz.campaign import CampaignResult, run_campaign
from repro.verify.fuzz.corpus import Corpus, CorpusEntry
from repro.verify.fuzz.coverage import (
    CoverageState,
    coverage_report,
    policy_universe,
)
from repro.verify.fuzz.generate import generate_case, generate_schedule

__all__ = [
    "CampaignResult",
    "Corpus",
    "CorpusEntry",
    "CoverageState",
    "coverage_report",
    "generate_case",
    "generate_schedule",
    "policy_universe",
    "run_campaign",
]

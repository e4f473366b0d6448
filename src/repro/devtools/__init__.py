"""Developer tooling for this repository.

Currently: **reprolint**, an AST-based invariant linter enforcing the
contracts generic linters can't know about — seeded-only randomness in
engine code, non-blocking asyncio service tiers, no numpy under src/
(optional elsewhere), clock-free fingerprints, typed storage/recovery exceptions,
validated wire-dict access, and complete vectorized/pure-Python
fallback pairs.  Run it with ``python -m repro lint``; rules, config,
suppressions and the baseline workflow are documented in
docs/DEVTOOLS.md.

This package must stay importable on the numpy-free CI leg and must not
import the service tier (the linter lints it).
"""

from repro.devtools.baseline import apply_baseline, load_baseline, save_baseline
from repro.devtools.config import LintConfig, load_config
from repro.devtools.framework import REGISTRY, Finding, Rule, all_rules
from repro.devtools.runner import LintReport, lint_file, lint_paths, main

__all__ = [
    "Finding",
    "Rule",
    "REGISTRY",
    "all_rules",
    "LintConfig",
    "load_config",
    "LintReport",
    "lint_file",
    "lint_paths",
    "main",
    "apply_baseline",
    "load_baseline",
    "save_baseline",
]

"""The reprolint runner: discovery, per-file checking, reporting, CLI.

``python -m repro lint [paths...]`` lands here (via
:func:`repro.cli.main`).  The run is:

1. discover ``*.py`` files under the given paths (skipping config
   excludes and anything unreadable),
2. parse each file once, hand the AST to every registered rule that
   applies to its module,
3. drop findings silenced by ``# reprolint: disable=`` comments,
4. split the rest against the committed baseline — baselined findings
   report but don't fail; *new* findings (and stale baseline entries)
   exit non-zero,
5. render human output, or with ``--json`` a machine report including
   the ``repro_lint_findings_total{rule}`` summary CI uploads as an
   artifact.

Exit codes: 0 clean (or everything baselined), 1 new findings or stale
baseline entries, 2 usage/configuration errors (unreadable baseline,
no files).  Syntax errors in linted files are reported as RPL000
findings rather than crashing the run — a file that cannot parse cannot
be proven clean.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools import rules as _rules  # noqa: F401  (registers the rules)
from repro.devtools.baseline import (
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.devtools.config import LintConfig, load_config
from repro.devtools.framework import (
    REGISTRY,
    FileContext,
    Finding,
    all_rules,
    module_name_for,
    parse_suppressions,
    suppressed_lines,
)

__all__ = ["LintReport", "lint_paths", "lint_file", "main"]


class LintReport:
    """Aggregated outcome of one lint run."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []  # post-suppression, pre-baseline
        self.new: list[Finding] = []
        self.baselined: list[Finding] = []
        self.stale_baseline: list[tuple[str, str, str, int]] = []
        self.suppressed: int = 0
        self.files_scanned: int = 0
        self.rules_run: list[str] = []

    @property
    def exit_code(self) -> int:
        return 1 if (self.new or self.stale_baseline) else 0

    def findings_total(self) -> dict[str, int]:
        """Per-rule totals — the ``repro_lint_findings_total{rule}`` summary."""
        totals = {code: 0 for code in self.rules_run}
        for finding in self.findings:
            totals[finding.code] = totals.get(finding.code, 0) + 1
        return totals

    def to_json(self) -> dict:
        def row(finding: Finding) -> dict:
            return {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "code": finding.code,
                "message": finding.message,
                "module": finding.module,
                "source": finding.source,
            }

        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "rules_run": self.rules_run,
            "new": [row(f) for f in self.new],
            "baselined": [row(f) for f in self.baselined],
            "stale_baseline": [
                {"path": p, "code": c, "source": s, "occurrence": o}
                for p, c, s, o in self.stale_baseline
            ],
            "suppressed": self.suppressed,
            "summary": {"repro_lint_findings_total": self.findings_total()},
            "exit_code": self.exit_code,
        }


def _discover(paths: Sequence[Path], config: LintConfig) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
    return [f for f in files if not config.is_excluded(f)]


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(
    path: Path, config: LintConfig, rules: Iterable | None = None
) -> tuple[list[Finding], int]:
    """Lint one file: (kept findings, suppressed count)."""
    active = list(rules) if rules is not None else all_rules(disabled=config.disable)
    display = _display_path(path, config.root)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return (
            [
                Finding(
                    path=display, line=1, col=0, code="RPL000",
                    message=f"unreadable file: {exc}",
                )
            ],
            0,
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return (
            [
                Finding(
                    path=display, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                    code="RPL000", message=f"syntax error: {exc.msg}",
                )
            ],
            0,
        )
    ctx = FileContext(
        path=path,
        display_path=display,
        source=source,
        tree=tree,
        module=module_name_for(path),
        options=config.rule_options,
    )
    raw: list[Finding] = []
    for rule in active:
        if rule.applies_to(ctx):
            raw.extend(rule.check(ctx))
    if not raw:
        return [], 0
    covered = suppressed_lines(parse_suppressions(source))
    kept = [f for f in raw if f.code not in covered.get(f.line, ())]
    kept.sort(key=lambda f: (f.line, f.col, f.code))
    return kept, len(raw) - len(kept)


def lint_paths(
    paths: Sequence[Path],
    config: LintConfig,
    use_baseline: bool = True,
) -> LintReport:
    """Lint every python file under ``paths`` against ``config``."""
    report = LintReport()
    rules = all_rules(disabled=config.disable)
    report.rules_run = [rule.code for rule in rules]
    for path in _discover(paths, config):
        findings, suppressed = lint_file(path, config, rules)
        report.findings.extend(findings)
        report.suppressed += suppressed
        report.files_scanned += 1
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    entries = load_baseline(config.baseline_path) if use_baseline else set()
    split = apply_baseline(report.findings, entries)
    report.new = split.new
    report.baselined = split.baselined
    report.stale_baseline = split.stale
    return report


def _render_human(report: LintReport, out) -> None:
    for finding in report.new:
        print(finding.render(), file=out)
    if report.baselined:
        print(
            f"note: {len(report.baselined)} baselined finding(s) not shown "
            "as failures (see the baseline file)",
            file=out,
        )
    for key in report.stale_baseline:
        print(
            f"stale baseline entry (finding no longer present): "
            f"{key[0]} {key[1]} {key[2]!r} — re-run with --update-baseline",
            file=out,
        )
    total = sum(report.findings_total().values())
    state = "clean" if report.exit_code == 0 else "FAILED"
    print(
        f"reprolint: {report.files_scanned} files, "
        f"{len(report.rules_run)} rules, {total} finding(s) "
        f"({len(report.new)} new, {len(report.baselined)} baselined, "
        f"{report.suppressed} suppressed) — {state}",
        file=out,
    )


def main(argv: Sequence[str] | None = None, out=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="reprolint: repo-contract static analysis (see docs/DEVTOOLS.md)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "scripts", "benchmarks", "tests"],
        help="files or directories to lint (default: src scripts benchmarks tests)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument(
        "--baseline", default=None,
        help="baseline file (default: [tool.reprolint].baseline in pyproject.toml)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: every finding fails",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to tolerate every current finding, then exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe registered rules and exit"
    )
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout

    if args.list_rules:
        for code in sorted(REGISTRY):
            rule = REGISTRY[code]
            scope = ", ".join(rule.module_prefixes) or "all files"
            print(f"{code} {rule.name} [{scope}]: {rule.rationale}", file=out)
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path: {missing[0]}", file=sys.stderr)
        return 2
    config = load_config(paths[0], baseline_override=args.baseline)
    try:
        report = lint_paths(paths, config, use_baseline=not args.no_baseline)
    except ValueError as exc:  # unreadable/mismatched baseline
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        save_baseline(config.baseline_path, report.findings)
        print(
            f"wrote {len(report.findings)} finding(s) to {config.baseline_path}",
            file=out,
        )
        return 0

    if args.json:
        json.dump(report.to_json(), out, indent=2, sort_keys=True)
        print(file=out)
    else:
        _render_human(report, out)
    return report.exit_code

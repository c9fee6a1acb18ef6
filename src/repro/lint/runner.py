"""Lint driver: file discovery, disable comments, reporting.

The Layer-1 runner parses each target file, hands the tree to
:mod:`repro.lint.ast_checks`, and filters the findings through the inline
escape hatch::

    something_deliberate()  # repro-lint: disable=unseeded-random -- reason

A disable comment suppresses the named rule(s) on its own physical line
only (``disable=all`` suppresses every rule there).  Unknown rule ids in
a disable comment are themselves reported, so annotations cannot rot
silently.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Union

from repro.lint.ast_checks import check_tree
from repro.lint.findings import RULES, Finding, render_report

__all__ = [
    "default_target",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_report",
]

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+?)\s*(?:--.*)?$"
)


def _parse_disables(
    source: str, path: str
) -> tuple[dict[int, set[str]], list[Finding]]:
    """Per-line disabled rule ids, plus findings for unknown ids."""
    disabled: dict[int, set[str]] = {}
    findings: list[Finding] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _DISABLE_RE.search(line)
        if match is None:
            continue
        rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
        for rule in rules:
            if rule != "all" and rule not in RULES:
                findings.append(
                    Finding(
                        path=path,
                        line=lineno,
                        rule="parse-error",
                        message=f"disable comment names unknown rule {rule!r}",
                        hint="use ids from `repro lint --list-rules`",
                    )
                )
        disabled[lineno] = rules
    return disabled, findings


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """All Layer-1 findings for one source string."""
    disabled, findings = _parse_disables(source, path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(
            Finding(
                path=path,
                line=exc.lineno or 1,
                rule="parse-error",
                message=f"syntax error: {exc.msg}",
                hint=RULES["parse-error"].hint,
            )
        )
        return findings
    for finding in check_tree(tree, path):
        rules_here = disabled.get(finding.line, set())
        if finding.rule in rules_here or "all" in rules_here:
            continue
        findings.append(finding)
    return sorted(findings)


def lint_file(path: Union[Path, str]) -> list[Finding]:
    file_path = Path(path)
    return lint_source(file_path.read_text(encoding="utf-8"), str(file_path))


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(p for p in files if "__pycache__" not in p.parts)


def lint_paths(paths: Iterable[Union[Path, str]]) -> list[Finding]:
    """Lint every Python file under the given files/directories."""
    findings: list[Finding] = []
    for file_path in iter_python_files([Path(p) for p in paths]):
        findings.extend(lint_file(file_path))
    return sorted(findings)


def default_target() -> Path:
    """The installed ``repro`` package source tree."""
    return Path(__file__).resolve().parent.parent

"""Analyzer self-check: prove every guarded lint rule still fires.

A static analyzer fails *open*: a refactor that breaks symbol
resolution or drops call edges produces fewer findings, and a clean
report becomes indistinguishable from a blind analyzer.  The self-check
guards against that by synthesising a miniature package with exactly one
violation per Layer-3 rule, running the real passes over it, and
asserting each expected rule fires.

``repro lint --self-check`` runs this and exits non-zero if any rule
stayed silent; CI runs it next to the real ``--deep-static`` gate.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.lint.cachekeys import CacheKeyConfig, cache_key_findings
from repro.lint.callgraph import build_project_graph
from repro.lint.forksafe import ForkSafetyConfig, fork_safety_findings
from repro.lint.purity import purity_findings

__all__ = [
    "EXPECTED_RULES",
    "run_self_check",
    "render_self_check",
]

#: Every Layer-3 rule the synthetic package must trigger.
EXPECTED_RULES: tuple[str, ...] = (
    "fork-global-write",
    "fork-env-mutation",
    "fork-unseeded-entropy",
    "fork-wallclock",
    "fork-module-resource",
    "capture-state-leak",
    "global-mutable-state",
    "cache-key-gap",
)

#: The synthetic package: one seeded violation per rule, and one
#: *allowlisted* initializer that must stay clean (so the self-check
#: also catches an analyzer that starts over-reporting).
_FIXTURE_FILES: dict[str, str] = {
    "__init__.py": "",
    "par.py": '''\
"""Worker module: fork-safety violations reachable from _work_chunk."""
import os
import random
import threading
import time

_COUNTER = 0
_SEEN: dict[str, int] = {}
_LOCK = threading.Lock()


def _init_demo_worker(value):
    """Allowlisted initializer: global writes here are legal."""
    global _COUNTER
    _COUNTER = value


def _work_chunk(task):
    global _COUNTER
    _COUNTER += 1
    _SEEN[task] = 1
    os.environ["DEMO"] = "1"
    random.random()
    time.time()
    return _helper(task)


def _helper(task):
    return task
''',
    "state.py": '''\
"""Capture-state module with a writer outside the sanctioned set."""

_CURRENT = None
_LIMIT = 10


def install(obj):
    global _CURRENT
    _CURRENT = obj


def uninstall():
    global _CURRENT
    _CURRENT = None


def hijack(obj):
    global _CURRENT
    _CURRENT = obj
''',
    "other.py": '''\
"""Cross-module writer: reassigns a sibling module's binding."""
import selfcheckpkg.state as state


def poke():
    state._LIMIT = 5
''',
    "engine.py": '''\
"""Cached compute path; calls into a module the key does not cover."""
from selfcheckpkg.gapmod import gap_helper


class Engine:
    def compute_uncached(self, task):
        return gap_helper(task)
''',
    "gapmod.py": '''\
"""Reachable from compute_uncached but absent from the fingerprint."""


def gap_helper(task):
    return task * 2
''',
    "cachemod.py": '''\
"""Cache keying with a deliberately dropped key component."""
import hashlib

FORMAT_VERSION = 1
FINGERPRINT_MODULES = ("selfcheckpkg.engine",)


def topology_hash(topology):
    return "t"


def engine_fingerprint():
    return "e"


def announcement_key(announcement):
    return "a"


def key_for(topology, announcement):
    material = "|".join((
        str(FORMAT_VERSION),
        topology_hash(topology),
        announcement_key(announcement),
    ))
    return hashlib.sha256(material.encode()).hexdigest()
''',
}


def _fixture_configs() -> tuple[ForkSafetyConfig, CacheKeyConfig]:
    forksafe = ForkSafetyConfig(
        roots=(
            "selfcheckpkg.par._init_demo_worker",
            "selfcheckpkg.par._work_chunk",
        ),
    )
    cachekeys = CacheKeyConfig(
        cache_module="selfcheckpkg.cachemod",
        compute_roots=("selfcheckpkg.engine.Engine.compute_uncached",),
        result_neutral_prefixes=(),
    )
    return forksafe, cachekeys


def run_self_check() -> dict[str, bool]:
    """``{rule_id: fired}`` for every expected rule.

    Also asserts the allowlist still works: a spurious finding against
    the ``_init_demo_worker`` initializer reports the pseudo-rule
    ``allowlist-regression`` as failed.
    """
    with tempfile.TemporaryDirectory(prefix="repro-lint-selfcheck-") as tmp:
        package_dir = Path(tmp) / "selfcheckpkg"
        package_dir.mkdir()
        for name, content in _FIXTURE_FILES.items():
            (package_dir / name).write_text(content, encoding="utf-8")
        graph = build_project_graph(package_dir, "selfcheckpkg")
        forksafe_config, cachekey_config = _fixture_configs()
        findings = [
            *fork_safety_findings(graph, forksafe_config),
            *purity_findings(graph),
            *cache_key_findings(graph, cachekey_config),
        ]
    fired = {f.rule for f in findings}
    result = {rule: rule in fired for rule in EXPECTED_RULES}
    result["allowlist-regression"] = not any(
        f.symbol.endswith("._init_demo_worker") for f in findings
    )
    return result


def render_self_check(result: dict[str, bool]) -> str:
    lines = ["repro-lint self-check:"]
    for rule, ok in result.items():
        lines.append(f"  {'PASS' if ok else 'FAIL'}  {rule}")
    silent = [rule for rule, ok in result.items() if not ok]
    if silent:
        lines.append(
            f"self-check FAILED: {len(silent)} rule"
            f"{'s' if len(silent) != 1 else ''} did not fire "
            f"({', '.join(silent)}) — the analyzer has gone blind"
        )
    else:
        lines.append("self-check passed: every rule fires on a seeded "
                     "violation")
    return "\n".join(lines)

"""Run manifests: who ran what, with which seeds, and where time went.

A :class:`RunManifest` is the durable artifact of one instrumented run:
the experiment config name and every seed it carries, the git commit of
the working tree, the CLI argv, and the full recorded span tree with its
counters and gauges.  ``repro obs summary`` and ``repro obs compare``
consume these files; CI archives them so performance regressions between
PRs are a file diff, not a guess.

The :func:`tracing` context manager is the one-liner the CLI layers use:
it records the block through :func:`repro.obs.recorder.recording`,
streams span events to ``events-<id>.jsonl``, and writes
``run-<id>.json`` into the trace directory on the way out.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterator

from repro.obs.events import JsonlEventSink
from repro.obs.recorder import Recorder, SpanRecord, recording

#: Manifest schema version; bump on breaking layout changes.
SCHEMA_VERSION = 1

#: Per-process run-id disambiguator (two runs in the same second).
_RUN_SEQ = itertools.count(1)


def new_run_id() -> str:
    """A unique, sortable run id: UTC stamp + pid + per-process sequence."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-p{os.getpid()}-{next(_RUN_SEQ)}"


def current_git_sha(cwd: Path | None = None) -> str | None:
    """HEAD of the checkout this package runs from, or None outside git."""
    where = cwd or Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=where,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def seeds_of(config: object) -> dict[str, int]:
    """Every ``*seed*`` integer field on a dataclass config, one level deep.

    Works on any config shaped like ``repro.experiments.config
    .ExperimentConfig`` without importing it — the obs core stays
    dependency-free.
    """
    seeds: dict[str, int] = {}

    def collect(prefix: str, obj: object) -> None:
        if not is_dataclass(obj) or isinstance(obj, type):
            return
        for spec in fields(obj):
            value = getattr(obj, spec.name, None)
            key = f"{prefix}{spec.name}"
            if "seed" in spec.name and isinstance(value, int):
                seeds[key] = value
            elif is_dataclass(value) and not isinstance(value, type):
                collect(f"{key}.", value)

    collect("", config)
    return seeds


@dataclass
class RunManifest:
    """Everything needed to interpret (and re-run) one recorded run."""

    run_id: str
    label: str
    config_name: str | None
    seeds: dict[str, int]
    git_sha: str | None
    argv: list[str]
    root: SpanRecord
    #: Decision-provenance payload (repro.explain journeys/diffs), when
    #: the run captured any.  Kept as plain data so loading a manifest
    #: never imports the explain subsystem.
    explain: dict[str, object] | None = None

    def counters(self) -> dict[str, float]:
        """Counter totals over the whole span tree."""
        return self.root.subtree_counters()

    def gauges(self) -> dict[str, float]:
        """Gauge values over the whole tree (last write along walk wins)."""
        values: dict[str, float] = {}
        for _, record in self.root.walk():
            values.update(record.gauges)
        return values

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "label": self.label,
            "config_name": self.config_name,
            "seeds": dict(self.seeds),
            "git_sha": self.git_sha,
            "argv": list(self.argv),
            "spans": self.root.to_dict(),
        }
        if self.explain is not None:
            data["explain"] = self.explain
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RunManifest":
        """Rebuild a manifest; unknown keys are ignored.

        Manifests of older runs may carry the payloads of retired
        features (``"memory"``, ``"profile"``); they load without them.
        """
        spans = data.get("spans")
        if not isinstance(spans, dict):
            raise ValueError("manifest has no 'spans' tree")
        seeds = data.get("seeds", {})
        argv = data.get("argv", [])
        raw_explain = data.get("explain")
        explain = raw_explain if isinstance(raw_explain, dict) else None
        return cls(
            run_id=str(data.get("run_id", "")),
            label=str(data.get("label", "run")),
            config_name=(None if data.get("config_name") is None
                         else str(data.get("config_name"))),
            seeds={str(k): int(v)  # type: ignore[call-overload]
                   for k, v in dict(seeds).items()},  # type: ignore[call-overload]
            git_sha=(None if data.get("git_sha") is None
                     else str(data.get("git_sha"))),
            argv=[str(a) for a in argv] if isinstance(argv, list) else [],
            root=SpanRecord.from_dict(spans),
            explain=explain,
        )


def from_recorder(
    recorder: Recorder,
    *,
    config: object = None,
    run_id: str | None = None,
    argv: list[str] | None = None,
) -> RunManifest:
    """Freeze a recorder into a manifest (stamps the root totals)."""
    recorder.finish()
    return RunManifest(
        run_id=run_id or new_run_id(),
        label=recorder.root.name,
        config_name=getattr(config, "name", None),
        seeds=seeds_of(config) if config is not None else {},
        git_sha=current_git_sha(),
        argv=list(argv or []),
        root=recorder.root,
        explain=recorder.explain_data,
    )


def write_manifest(manifest: RunManifest, directory: Path | str) -> Path:
    """Write ``run-<id>.json`` into ``directory`` (created if missing)."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"run-{manifest.run_id}.json"
    path.write_text(
        json.dumps(manifest.to_dict(), indent=2, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def load_manifest(path: Path | str) -> RunManifest:
    """Read a manifest previously written by :func:`write_manifest`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"not a run manifest: {path}")
    return RunManifest.from_dict(data)


@contextmanager
def tracing(
    trace_dir: Path | str | None,
    *,
    label: str = "run",
    config: object = None,
    argv: list[str] | None = None,
) -> Iterator[Recorder | None]:
    """Record the block and export ``run-<id>.json`` + event JSONL.

    A trace directory receives exactly two files: the span stream
    ``events-<id>.jsonl`` (span ``start``/``end`` lines, written as the
    run goes, so a killed run leaves it behind) and, once the block
    exits, the manifest ``run-<id>.json``, also when the block raises.

    ``trace_dir=None`` disables tracing entirely (yields None), so CLI
    code can wrap its work unconditionally::

        with tracing(args.trace, label="repro-run", config=cfg) as rec:
            ...
        if rec is not None:
            print(rec.manifest_path)

    The block runs under :func:`~repro.obs.recorder.recording`, which
    restores whatever recorder was installed before.
    """
    if trace_dir is None:
        yield None
        return
    run_id = new_run_id()
    out_dir = Path(trace_dir)
    sink = JsonlEventSink(out_dir / f"events-{run_id}.jsonl")
    with recording(label, event_sink=sink) as recorder:
        try:
            yield recorder
        finally:
            manifest = from_recorder(recorder, config=config, run_id=run_id,
                                     argv=argv)
            recorder.manifest_path = write_manifest(manifest, out_dir)

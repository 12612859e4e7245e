"""Crash-report bundles for unrecoverable pipeline failures.

When non-strict ``optimize`` cannot recover — the rollback itself
failed, or the fault-isolation machinery hit a bug — the pipeline calls
:func:`write_crash_report` before raising
:class:`~repro.transform.pipeline.PipelineCrash`.  The bundle is one
directory under ``crash_reports/`` holding everything needed to replay
the failure offline:

* ``world.json`` — the pre-pipeline IR, as a
  :mod:`repro.core.snapshot` capture (restore with
  ``Snapshot.from_json(...).restore()``);
* ``report.json`` — the error (with traceback), the pass trace
  (recorded phases, incidents, quarantine, rollback counts) and the
  ``OptimizeOptions`` used.

A compile *worker* that dies mid-job leaves a different bundle
(:func:`write_worker_crash_report`): the request verbatim, with its
source as ``repro.impala``.  Only these bundles carry a
``repro.impala``; a pipeline bundle's replay input is ``world.json``.

Bundle directories are named ``crash-NNNN-<ErrorClass>`` with the
smallest free index, so repeated failures never overwrite each other.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import asdict
from pathlib import Path


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def _bundle_dir(directory: str | Path, error: Exception) -> Path:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    label = type(error).__name__
    index = 0
    while True:
        candidate = root / f"crash-{index:04d}-{label}"
        if not candidate.exists():
            candidate.mkdir()
            return candidate
        index += 1


def write_crash_report(*, directory, entry_snapshot, error, stats,
                       options) -> Path:
    """Write one crash bundle; returns the bundle directory."""
    bundle = _bundle_dir(directory, error)
    (bundle / "world.json").write_text(entry_snapshot.to_json())

    option_fields = asdict(options)
    option_fields["pass_hook"] = (
        None if options.pass_hook is None else repr(options.pass_hook))

    report = {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exception(
                type(error), error, error.__traceback__),
        },
        "pass_trace": {
            "rounds": stats.rounds,
            "phases": stats.phases(),
            "incidents": [i.as_dict() for i in stats.incidents],
            "quarantined": list(stats.quarantined),
            "skipped": list(stats.skipped),
            "checkpoints": stats.checkpoints,
            "rollbacks": stats.rollbacks,
        },
        "options": _jsonable(option_fields),
    }
    (bundle / "report.json").write_text(json.dumps(report, indent=2))
    return bundle


def write_worker_crash_report(*, directory, error, request,
                              context=None) -> Path:
    """Write a bundle for a compile *worker* that died mid-job.

    The pipeline's own :func:`write_crash_report` runs inside the
    failing process and holds the live world; here the process is
    already gone (segfault, ``SIGKILL`` fault injection, OOM kill) and
    the parent only has the request it submitted.  The bundle therefore
    records the request verbatim — source, options, entry — which is
    exactly enough to replay the compile offline, plus how the death
    was observed (exit code, deadline).
    """
    bundle = _bundle_dir(directory, error)
    report = {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "exitcode": getattr(error, "exitcode", None),
        },
        "request": _jsonable(request),
        "context": _jsonable(dict(context or {})),
    }
    source = None
    if isinstance(request, dict):
        source = request.get("source")
    if isinstance(source, str):
        (bundle / "repro.impala").write_text(source + "\n")
        report["repro"] = {"file": "repro.impala"}
    (bundle / "report.json").write_text(json.dumps(report, indent=2))
    return bundle

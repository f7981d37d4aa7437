"""Persisting discovery results: skyline datasets + a JSON report.

The paper's pipeline hands discovered datasets to downstream consumers
(model fine-tuning, benchmarking). ``save_result`` materializes every
skyline entry to disk — CSV for tables, an edge-list CSV for bipartite
graphs — next to a ``report.json`` describing the run (measures, per-entry
performance, budget usage), so a result can be inspected or re-used without
re-running the search.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from .core.algorithms import DiscoveryResult
from .core.transducer import SearchSpace
from .exceptions import ReproError
from .graph.bipartite import BipartiteGraph
from .relational.csvio import write_csv
from .relational.table import Table

REPORT_NAME = "report.json"
SUITE_REPORT_NAME = "suite_report.json"
SUITE_SUMMARY_NAME = "suite_report.md"
JOB_RECORD_NAME = "job_record.json"
RECOVERY_REPORT_NAME = "recovery_report.json"


def entry_payload(result: DiscoveryResult, index: int) -> dict[str, Any]:
    """The JSON form of one skyline entry (no file materialization)."""
    entry = result.entries[index]
    payload: dict[str, Any] = {
        "description": entry.description,
        "bits": hex(entry.bits),
        "performance": entry.perf,
        "output_size": list(entry.output_size),
    }
    if entry.bits in result.running_graph.states:
        # Narrative provenance: the operator chain that produced the
        # dataset (pairs with the declarative SQL form of
        # repro.sql.state_to_sql).
        payload["path"] = [
            op for _, op in result.running_graph.path_to(entry.bits)
        ]
    return payload


def build_payload(result: DiscoveryResult) -> dict[str, Any]:
    """The machine-readable form of a :class:`DiscoveryResult`.

    The same dict ``save_result`` writes as ``report.json`` (minus the
    per-entry ``file`` keys, which only exist once datasets are
    materialized); also what ``repro discover --json`` prints and what
    suite runs persist in the result cache.
    """
    return {
        "algorithm": result.report.algorithm,
        "epsilon": result.epsilon,
        "measures": list(result.measures.names),
        "n_valuated": result.report.n_valuated,
        "n_pruned": result.report.n_pruned,
        "elapsed_seconds": result.report.elapsed_seconds,
        "terminated_by": result.report.terminated_by,
        "entries": [
            entry_payload(result, i) for i in range(len(result.entries))
        ],
    }


def _entry_filename(index: int, artifact: Any) -> str:
    if isinstance(artifact, BipartiteGraph):
        return f"entry_{index:02d}.edges.csv"
    return f"entry_{index:02d}.csv"


def _write_graph(graph: BipartiteGraph, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        dims = graph.shape[1]
        writer.writerow(["user", "item"] + [f"f{i}" for i in range(dims)])
        for edge in graph.edges:
            writer.writerow([edge.user, edge.item] + list(edge.features))


def save_result(
    result: DiscoveryResult, space: SearchSpace, directory: str | Path
) -> Path:
    """Write every skyline dataset and a JSON report to ``directory``.

    Returns the path of the written ``report.json``. The directory is
    created if missing; existing files of the same names are overwritten.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = build_payload(result)
    for index, entry in enumerate(result.entries):
        artifact = space.materialize(entry.bits)
        filename = _entry_filename(index, artifact)
        if isinstance(artifact, Table):
            write_csv(artifact, directory / filename)
        elif isinstance(artifact, BipartiteGraph):
            _write_graph(artifact, directory / filename)
        else:
            raise ReproError(
                f"cannot persist artifact of type {type(artifact).__name__}"
            )
        payload["entries"][index] = {
            "file": filename, **payload["entries"][index]
        }
    report_path = directory / REPORT_NAME
    with report_path.open("w") as fh:
        json.dump(payload, fh, indent=2)
    return report_path


def load_report(directory: str | Path) -> dict:
    """Read back a saved run's ``report.json``."""
    path = Path(directory) / REPORT_NAME
    if not path.exists():
        raise ReproError(f"no {REPORT_NAME} under {directory}")
    with path.open() as fh:
        return json.load(fh)


def save_suite_report(
    payload: dict, directory: str | Path, markdown: str | None = None
) -> Path:
    """Persist a suite run: ``suite_report.json`` (+ optional markdown).

    Returns the JSON path. ``markdown`` (the suite's human summary table)
    lands next to it as ``suite_report.md`` when given.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / SUITE_REPORT_NAME
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2)
    if markdown is not None:
        (directory / SUITE_SUMMARY_NAME).write_text(markdown)
    return path


def load_suite_report(directory: str | Path) -> dict:
    """Read back a saved suite's ``suite_report.json``."""
    path = Path(directory) / SUITE_REPORT_NAME
    if not path.exists():
        raise ReproError(f"no {SUITE_REPORT_NAME} under {directory}")
    with path.open() as fh:
        return json.load(fh)


def save_job_record(payload: dict, directory: str | Path) -> Path:
    """Persist one service job record (``repro fetch --output``).

    The payload is the API's ``GET /v1/results/{id}`` body: lifecycle fields
    plus the full result under ``"result"``. Returns the written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / JOB_RECORD_NAME
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2)
    return path


def load_job_record(directory: str | Path) -> dict:
    """Read back a saved job's ``job_record.json``."""
    path = Path(directory) / JOB_RECORD_NAME
    if not path.exists():
        raise ReproError(f"no {JOB_RECORD_NAME} under {directory}")
    with path.open() as fh:
        return json.load(fh)


def save_recovery_report(payload: dict, directory: str | Path) -> Path:
    """Persist a journal replay report (``repro recover --output``).

    The payload is ``cmd_recover``'s summary: per-job restart actions,
    segment stats, and corruption counters. Returns the written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / RECOVERY_REPORT_NAME
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2)
    return path


def load_recovery_report(directory: str | Path) -> dict:
    """Read back a saved ``recovery_report.json``."""
    path = Path(directory) / RECOVERY_REPORT_NAME
    if not path.exists():
        raise ReproError(f"no {RECOVERY_REPORT_NAME} under {directory}")
    with path.open() as fh:
        return json.load(fh)

"""The SQLite-backed run store: durable and concurrent-writer safe.

:class:`RunStore` is **one** SQLite file that is the shared persistence
layer of the whole experiment pipeline:

* **Runs** — every :class:`~repro.analysis.results.RunRecord` is stored
  under its point cache key with its identity columns (workload, algorithm
  spec, layout, engine, ``k``/``F``/``D``), which :meth:`RunStore.stats`
  aggregates, and the record body as canonical sorted-key JSON, so the
  byte-identical emission contract survives.
* **Optima** — :class:`~repro.lp.service.OptimumRecord` s keyed by their
  canonical instance fingerprint; the optimum service reads and writes them
  through the duck-typed ``get_optimum``/``put_optimum`` pair.
* **Sweep manifest** — each declared grid registers its points under a
  deterministic sweep key; points are marked ``done`` as their records
  land, and :meth:`reconcile_sweep` re-derives completion from the stored
  runs, so a killed sweep loses no progress accounting.  ``repro sweep
  --resume`` reads :meth:`sweep_progress` to report exactly what remains.
* **Operations** — :meth:`stats` and :meth:`gc` back the ``repro store``
  CLI subcommand.

Concurrency: the database runs in WAL mode with a generous busy timeout;
every writer (the runner's parent process, pool workers persisting optima,
a second concurrent sweep) opens its own connection and transactions are
short single-statement batches, so concurrent writers serialize cleanly.
Writers of the same key write identical bytes (records are content-keyed),
which makes racing upserts idempotent.  The switch to WAL mode itself
bypasses SQLite's busy handler, so opening retries it until the timeout
runs out: processes that open a fresh file at the same moment all succeed.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..errors import StoreError
from ..lp.service import OptimumRecord
from .results import RunRecord

__all__ = [
    "RunStore",
    "SweepProgress",
    "STORE_FILENAME",
    "store_path_for",
]

#: Filename of the store inside a cache directory (``--cache-dir`` keeps its
#: historical meaning: a directory; the database lives in one file under it).
STORE_FILENAME = "runs.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    key        TEXT PRIMARY KEY,
    workload   TEXT,
    algorithm  TEXT NOT NULL,
    algorithm_spec TEXT NOT NULL,
    layout     TEXT,
    engine     TEXT NOT NULL,
    disks      INTEGER NOT NULL,
    cache_size INTEGER NOT NULL,
    fetch_time INTEGER NOT NULL,
    has_optimum INTEGER NOT NULL DEFAULT 0,
    optimum_solver_key TEXT,
    record     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS optima (
    fingerprint TEXT PRIMARY KEY,
    solver_key  TEXT NOT NULL,
    record      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    sweep_key  TEXT PRIMARY KEY,
    name       TEXT NOT NULL,
    num_points INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS sweep_points (
    sweep_key  TEXT NOT NULL,
    position   INTEGER NOT NULL,
    point_key  TEXT NOT NULL,
    label      TEXT NOT NULL,
    status     TEXT NOT NULL DEFAULT 'pending',
    PRIMARY KEY (sweep_key, position)
);
CREATE INDEX IF NOT EXISTS idx_sweep_points_key ON sweep_points (sweep_key, point_key);
"""


def store_path_for(cache_dir) -> Path:
    """The store's database path under a runner cache directory."""
    return Path(cache_dir) / STORE_FILENAME


_Record = TypeVar("_Record")


def _decode_row(decode: Callable[[Any], _Record], body: str) -> Optional[_Record]:
    """``decode(json.loads(body))``, or None when the row is corrupt (a miss).

    Bodies that are not JSON, lack a field, or hold a value of the wrong
    type or range — ``Infinity`` where an int belongs, a nest deep enough
    to exhaust the recursion limit — read as missing, so the caller
    simulates or solves the point again and overwrites the row.
    """
    try:
        return decode(json.loads(body))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return None


@dataclass(frozen=True)
class SweepProgress:
    """Completion state of one registered sweep manifest."""

    sweep_key: str
    name: str
    total: int
    done: int
    remaining_labels: Tuple[str, ...]

    @property
    def remaining(self) -> int:
        """How many grid points have not completed yet."""
        return self.total - self.done

    @property
    def complete(self) -> bool:
        """Whether every point of the sweep has a stored record."""
        return self.total > 0 and self.done == self.total

    def describe(self) -> str:
        """One-line ``done/total`` summary for CLI reporting."""
        return f"{self.name!r}: {self.done}/{self.total} points complete, {self.remaining} remaining"


class RunStore:
    """One SQLite file holding runs, optima and sweep manifests.

    Open one per process (connections are cheap; the WAL file mediates
    concurrency).  The store is also the duck-typed persistence object the
    optimum service accepts (``get_optimum``/``put_optimum``), which is how
    run records and optimum records share a single durable file.
    """

    def __init__(self, path, *, timeout: float = 30.0):
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(self.path, timeout=timeout)
            self._enable_wal(timeout)
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
            with self._conn:
                self._conn.executescript(_SCHEMA)
        except (OSError, sqlite3.Error) as exc:
            # Surface as a library error so the CLI exits cleanly instead of
            # dumping a traceback when the file is corrupt or not SQLite, or
            # its directory cannot be created (a regular file in the way).
            raise StoreError(f"cannot open run store at {self.path}: {exc}") from exc

    def _enable_wal(self, timeout: float) -> None:
        """Switch the database to WAL mode, waiting out concurrent openers.

        ``PRAGMA journal_mode=WAL`` answers SQLITE_BUSY at once, without
        calling the busy handler, while another connection holds the lock
        it needs (two processes opening a fresh file together).  Retry it
        until ``timeout`` runs out, then let the error surface.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                (mode,) = self._conn.execute("PRAGMA journal_mode=WAL").fetchone()
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.005)
        if mode.lower() != "wal":
            raise sqlite3.OperationalError(f"journal mode is {mode!r}, not 'wal'")

    # -- lifecycle ---------------------------------------------------------------------

    @contextmanager
    def _guarded(self):
        """Convert ``sqlite3`` failures into :class:`~repro.errors.StoreError`.

        Every public method runs its database work under this guard, so
        corruption discovered after open (a truncated page mid-file, a
        filesystem error) surfaces as a library error the CLI reports
        cleanly instead of an unhandled ``sqlite3`` traceback.
        """
        try:
            yield
        except sqlite3.Error as exc:
            raise StoreError(f"run store {self.path} failed: {exc}") from exc

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, *_exc) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    # -- run records -------------------------------------------------------------------

    def get_run(self, key: str) -> Optional[RunRecord]:
        """The stored record under ``key``, or None (corrupt rows are misses)."""
        with self._guarded():
            row = self._conn.execute(
                "SELECT record FROM runs WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else _decode_row(RunRecord.from_json_dict, row[0])

    def put_runs(self, items: Iterable[Tuple[str, RunRecord]]) -> None:
        """Upsert a batch of ``(key, record)`` pairs in one transaction.

        The record body is canonical sorted-key JSON, so identical content
        written by racing runs is idempotent.
        """
        rows = [
            (
                key,
                record.workload,
                record.algorithm,
                record.algorithm_spec,
                record.layout,
                record.engine,
                record.disks,
                record.cache_size,
                record.fetch_time,
                int(record.optimal_elapsed is not None),
                record.optimum_solver_key,
                json.dumps(record.to_json_dict(), sort_keys=True),
            )
            for key, record in items
        ]
        with self._guarded(), self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO runs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    # -- optimum records (duck-typed persistence for OptimumService) -------------------

    def get_optimum(self, fingerprint: str) -> Optional[OptimumRecord]:
        """The stored optimum under ``fingerprint``, or None on miss/corruption."""
        with self._guarded():
            row = self._conn.execute(
                "SELECT record FROM optima WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return None if row is None else _decode_row(OptimumRecord.from_json_dict, row[0])

    def put_optimum(self, record: OptimumRecord) -> None:
        """Upsert one optimum record under its canonical fingerprint."""
        with self._guarded(), self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO optima VALUES (?, ?, ?)",
                (
                    record.fingerprint,
                    record.solver_key,
                    json.dumps(record.as_json_dict(), sort_keys=True),
                ),
            )

    # -- sweep manifest ----------------------------------------------------------------

    def begin_sweep(
        self, sweep_key: str, name: str, labeled_keys: Sequence[Tuple[str, str]]
    ) -> None:
        """Register (or re-register) a sweep's points under ``sweep_key``.

        ``labeled_keys`` is the grid's ``(point_key, label)`` list in grid
        order.  Existing point rows keep their status (re-registering a
        partially complete sweep must not reset its progress).
        """
        with self._guarded(), self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO sweeps VALUES (?, ?, ?)",
                (sweep_key, name, len(labeled_keys)),
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO sweep_points (sweep_key, position, point_key, label) "
                "VALUES (?, ?, ?, ?)",
                [
                    (sweep_key, position, key, label)
                    for position, (key, label) in enumerate(labeled_keys)
                ],
            )

    def mark_points_done(self, sweep_key: str, positions: Iterable[int]) -> None:
        """Mark the given grid positions of ``sweep_key`` as completed."""
        with self._guarded(), self._conn:
            self._conn.executemany(
                "UPDATE sweep_points SET status = 'done' WHERE sweep_key = ? AND position = ?",
                [(sweep_key, position) for position in positions],
            )

    def reconcile_sweep(
        self, sweep_key: str, *, require_solver_key: Optional[str] = None
    ) -> None:
        """Re-derive point completion from the stored runs.

        A point is ``done`` when its record exists — and, for optimum
        sweeps (``require_solver_key`` set), when that record carries an
        optimum solved under exactly that configuration.  This is what
        makes ``--resume`` robust to a killed sweep: whatever records
        landed before the kill count as progress even if the manifest
        update never ran.

        Completion is derived from row *existence*, not from re-parsing
        every record body.  In the pathological case of a row whose body no
        longer parses (``get_run`` treats it as a miss), the report can
        over-count by that point — the run then simply re-simulates it and
        overwrites the row, so the store self-heals on the next pass.
        """
        condition = "1 = 1"
        params: List[object] = [sweep_key]
        if require_solver_key is not None:
            condition = "runs.has_optimum = 1 AND runs.optimum_solver_key = ?"
            params.append(require_solver_key)
        with self._guarded(), self._conn:
            self._conn.execute(
                f"""
                UPDATE sweep_points SET status = 'done'
                WHERE sweep_key = ? AND EXISTS (
                    SELECT 1 FROM runs
                    WHERE runs.key = sweep_points.point_key AND {condition}
                )
                """,
                params,
            )

    def sweep_progress(self, sweep_key: str) -> Optional[SweepProgress]:
        """The manifest state of ``sweep_key``, or None if never registered."""
        with self._guarded():
            return self._sweep_progress(sweep_key)

    def _sweep_progress(self, sweep_key: str) -> Optional[SweepProgress]:
        """:meth:`sweep_progress` body (callers hold the error guard)."""
        sweep = self._conn.execute(
            "SELECT name, num_points FROM sweeps WHERE sweep_key = ?", (sweep_key,)
        ).fetchone()
        if sweep is None:
            return None
        name, total = sweep
        done = self._conn.execute(
            "SELECT COUNT(*) FROM sweep_points WHERE sweep_key = ? AND status = 'done'",
            (sweep_key,),
        ).fetchone()[0]
        remaining = self._conn.execute(
            "SELECT label FROM sweep_points "
            "WHERE sweep_key = ? AND status != 'done' ORDER BY position",
            (sweep_key,),
        ).fetchall()
        return SweepProgress(
            sweep_key=sweep_key,
            name=name,
            total=total,
            done=done,
            remaining_labels=tuple(label for (label,) in remaining),
        )

    # -- operations (repro store) ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Aggregate store statistics (the ``repro store stats`` payload)."""
        count = lambda sql, *params: self._conn.execute(sql, params).fetchone()[0]
        with self._guarded():
            payload: Dict[str, object] = {
                "path": str(self.path),
                "size_bytes": self.path.stat().st_size if self.path.exists() else 0,
                "runs": count("SELECT COUNT(*) FROM runs"),
                "runs_with_optimum": count("SELECT COUNT(*) FROM runs WHERE has_optimum = 1"),
                "distinct_workloads": count("SELECT COUNT(DISTINCT workload) FROM runs"),
                "distinct_algorithms": count("SELECT COUNT(DISTINCT algorithm_spec) FROM runs"),
                "optima": count("SELECT COUNT(*) FROM optima"),
                "sweeps": count("SELECT COUNT(*) FROM sweeps"),
                "sweep_points_done": count(
                    "SELECT COUNT(*) FROM sweep_points WHERE status = 'done'"
                ),
                "sweep_points_pending": count(
                    "SELECT COUNT(*) FROM sweep_points WHERE status != 'done'"
                ),
            }
            # One ``runs_engine_<name>`` column per engine that produced at
            # least one stored record.
            for name, num in self._conn.execute(
                "SELECT engine, COUNT(*) FROM runs GROUP BY engine ORDER BY engine"
            ).fetchall():
                payload[f"runs_engine_{name}"] = num
            return payload

    def gc(self) -> Dict[str, int]:
        """Drop completed sweep manifests and compact the database file.

        Run records and optima are never garbage-collected — they are the
        cache — but finished manifests are bookkeeping with no further use,
        and ``VACUUM`` returns their pages (and any other slack) to the
        filesystem.  Returns the removal/reclaim accounting.
        """
        with self._guarded():
            complete = [
                key
                for (key,) in self._conn.execute("SELECT sweep_key FROM sweeps").fetchall()
                if (progress := self._sweep_progress(key)) is not None and progress.complete
            ]
            points_removed = 0
            with self._conn:
                for key in complete:
                    points_removed += self._conn.execute(
                        "DELETE FROM sweep_points WHERE sweep_key = ?", (key,)
                    ).rowcount
                    self._conn.execute("DELETE FROM sweeps WHERE sweep_key = ?", (key,))
            before = self.path.stat().st_size
            self._conn.execute("VACUUM")
            return {
                "sweeps_removed": len(complete),
                "points_removed": points_removed,
                "reclaimed_bytes": max(0, before - self.path.stat().st_size),
            }

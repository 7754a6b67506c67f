#!/usr/bin/env python
"""Generate ``docs/reference.md`` from the live registries.

The reference is *built*, never hand-edited: every section is rendered from
the same registry rows the runtime uses (``repro workloads``/``repro
algorithms`` print them, the spec parsers validate against them), so the
documentation cannot drift from the code.  A docs-sync test regenerates the
document in memory and compares it byte-for-byte with the committed file;
CI runs ``--check`` for the same guarantee.

Usage::

    python scripts/gen_reference.py            # (re)write docs/reference.md
    python scripts/gen_reference.py --check    # exit 1 if the committed file drifted
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.algorithms.registry import ALGORITHM_REGISTRY  # noqa: E402
from repro.analysis.results import RUN_RECORD_COLUMNS  # noqa: E402
from repro.cli import build_parser  # noqa: E402
from repro.workloads.spec import LAYOUT_BUILDERS, WORKLOAD_REGISTRY  # noqa: E402

REFERENCE_PATH = REPO_ROOT / "docs" / "reference.md"

HEADER = """\
# Reference (generated)

> **Do not edit by hand.**  This file is generated by
> `python scripts/gen_reference.py` from the live registries (workload
> specs, algorithm specs, CLI subcommands, result columns); a docs-sync
> test (`tests/docs/test_docs_sync.py`) and the CI `docs` job fail when it
> drifts from the code.
"""


def _table(rows, columns):
    """Render ``rows`` (dicts) as a GitHub-flavoured markdown table."""

    def cell(value):
        return str(value).replace("|", "\\|")

    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell(row[c]) for c in columns) + " |")
    return "\n".join(lines)


def cli_command_rows():
    """One row per CLI subcommand: name and help text, in parser order."""
    parser = build_parser()
    rows = []
    for action in parser._actions:  # noqa: SLF001 - argparse keeps no public API for this
        if isinstance(action, argparse._SubParsersAction):
            for choice in action._choices_actions:
                rows.append({"command": f"`repro {choice.dest}`", "summary": choice.help})
    return rows


def render_reference() -> str:
    """The full markdown document (deterministic: registry-sorted rows)."""
    sections = [HEADER]

    sections.append("## Workload specs\n")
    sections.append(
        "Grammar: `name[:key=value,...]` — values may contain `=`, never `,`.\n"
    )
    workload_rows = [
        {
            "name": f"`{row['name']}`",
            "kind": row["kind"],
            "summary": row["summary"],
            "parameters (defaults)": row["params"],
            "example": f"`{row['example']}`",
        }
        for row in WORKLOAD_REGISTRY.catalog_rows()
    ]
    sections.append(_table(workload_rows, ["name", "kind", "summary", "parameters (defaults)", "example"]))
    sections.append(
        "\nLayouts (block placement for `--disks > 1`): "
        + ", ".join(f"`{name}`" for name in sorted(LAYOUT_BUILDERS))
        + "."
    )

    sections.append("\n## Algorithm specs\n")
    sections.append(
        "Same grammar and strictness.  Registered algorithms: "
        + ", ".join(f"`{name}`" for name in sorted(ALGORITHM_REGISTRY))
        + ".\n"
    )
    algorithm_rows = [
        {
            "name": f"`{row['name']}`",
            "kind": row["kind"],
            "summary": row["summary"],
            "parameters (defaults)": row["params"],
            "example": f"`{row['example']}`",
        }
        for row in ALGORITHM_REGISTRY.catalog_rows()
    ]
    sections.append(_table(algorithm_rows, ["name", "kind", "summary", "parameters (defaults)", "example"]))

    sections.append("\n## CLI subcommands\n")
    sections.append(_table(cli_command_rows(), ["command", "summary"]))

    sections.append("\n## Run-record columns\n")
    sections.append(
        "Every experiment producer emits `RunRecord`s with this canonical "
        "flat-row column order (JSON/CSV emission, `--json`/`--csv`, column "
        "selection):\n"
    )
    sections.append("\n".join(f"1. `{column}`" for column in RUN_RECORD_COLUMNS))
    sections.append("")

    return "\n".join(sections)


def main(argv=None) -> int:
    """Entry point: write the reference, or verify it with ``--check``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="do not write; exit 1 if docs/reference.md is out of date",
    )
    args = parser.parse_args(argv)
    rendered = render_reference()
    if args.check:
        current = REFERENCE_PATH.read_text() if REFERENCE_PATH.exists() else ""
        if current != rendered:
            print(
                "docs/reference.md is out of date; run `python scripts/gen_reference.py`",
                file=sys.stderr,
            )
            return 1
        print("docs/reference.md is up to date")
        return 0
    REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE_PATH.write_text(rendered)
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the contract table: ``python -m tests.contract --cause "<why>"``.

Runs every row, prints each one that moved (golden -> now) and rewrites
``golden.json`` with the cause.  Without a non-empty cause it writes nothing.
"""

from __future__ import annotations

import argparse

from . import FIELDS, GOLDEN_PATH, ROWS, dump_golden, load_golden, run_row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.contract", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--cause", default="", help="why the rows move (recorded in the file)")
    cause = parser.parse_args(argv).cause.strip()
    if not cause:
        parser.error("--cause is required: say why the pinned rows move")
    old = load_golden()["rows"] if GOLDEN_PATH.exists() else {}
    rows = {}
    for name in sorted(ROWS):
        rows[name] = run_row(name)
        was = old.get(name, {})
        moved = [f"{field} {was.get(field)} -> {rows[name][field]}" for field in FIELDS
                 if was.get(field) != rows[name][field]]
        if moved:
            print(f"{name}: " + "; ".join(moved))
    for name in sorted(set(old) - set(rows)):
        print(f"{name}: dropped")
    GOLDEN_PATH.write_text(dump_golden(cause, rows), encoding="utf-8")
    print(f"wrote {len(rows)} rows to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

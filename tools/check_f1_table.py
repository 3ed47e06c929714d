#!/usr/bin/env python3
"""Fail when the F1 table in docs/BENCHMARKS.md drifts from the benches.

The F1 reproduction note quotes numbers from the tables that
bench_fig7_noncoop_throughput, bench_fig8_coop_throughput, bench_fig9_jct and
bench_straggler print. Each F1 row names its bench and, in its `Column`
cell, the header of the bench column it quotes; each scheduler column of the
F1 table (`OEF`, `GandivaFair`, `Gavel`) names the bench row it quotes, where
`OEF` stands for the bench's `OEF-...` row. Every quoted number must equal
the bench's cell rounded to the number of decimals the F1 cell prints.

Usage: python3 tools/check_f1_table.py OUTPUT_DIR [--doc PATH]
OUTPUT_DIR holds each bench's stdout as <bench>.txt (CI's release job tees
them there). Exit code: 1 when any quoted number differs or cannot be found
(each is printed), 0 otherwise.
"""

import argparse
import os
import re
import sys

NUMBER = re.compile(r"-?\d+(?:\.\d+)?")
NOT_SCHEDULERS = ("Bench", "Column", "Paper")


def markdown_cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def f1_table(doc: str) -> tuple[list[str], list[list[str]]]:
    """Header and body rows of the first table under the F1 heading."""
    lines = doc.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("### F1."))
    table = []
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        if line.startswith("|"):
            table.append(markdown_cells(line))
        elif table:
            break
    if len(table) < 3:
        raise ValueError("no table under the F1 heading")
    return table[0], table[2:]  # table[1] is the |---| separator


def bench_tables(text: str) -> list[tuple[list[str], list[list[str]]]]:
    """(header, rows) of every +---+ bordered table a bench printed."""
    tables = []
    rows: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("|"):
            rows.append(markdown_cells(line))
        elif line.startswith("+") and len(rows) >= 2:  # the closing border
            tables.append((rows[0], rows[1:]))
            rows = []
    return tables


def bench_cell(tables, column: str, scheduler: str) -> str | None:
    for header, rows in tables:
        if column not in header:
            continue
        for row in rows:
            name = row[0]
            if name == scheduler or name.startswith(scheduler + "-"):
                return row[header.index(column)]
    return None


def decimals(number: str) -> int:
    return len(number.split(".")[1]) if "." in number else 0


def check(doc_path: str, output_dir: str) -> list[str]:
    with open(doc_path, encoding="utf-8") as f:
        header, rows = f1_table(f.read())
    if "Bench" not in header or "Column" not in header:
        return ["the F1 table has no Bench or no Column column"]
    schedulers = [name for name in header if name not in NOT_SCHEDULERS]
    errors = []
    outputs: dict[str, list] = {}
    for row in rows:
        cells = dict(zip(header, row))
        bench = cells["Bench"].strip("`")
        column = cells["Column"].strip("`")
        if bench not in outputs:
            path = os.path.join(output_dir, bench + ".txt")
            if not os.path.exists(path):
                errors.append(f"{bench}: no output at {path}")
                outputs[bench] = []
                continue
            with open(path, encoding="utf-8") as f:
                outputs[bench] = bench_tables(f.read())
        for scheduler in schedulers:
            quoted = cells[scheduler]
            where = f"{bench} '{column}' {scheduler}"
            printed = bench_cell(outputs[bench], column, scheduler)
            match = NUMBER.search(printed or "")
            if match is None:
                errors.append(f"{where}: no such cell in the bench's output")
                continue
            expected = f"{float(match.group()):.{decimals(quoted)}f}"
            if quoted != expected:
                errors.append(f"{where}: table says {quoted}, the bench prints {printed}")
    return errors


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_dir")
    parser.add_argument("--doc", default=os.path.join(root, "docs", "BENCHMARKS.md"))
    args = parser.parse_args()
    errors = check(args.doc, args.output_dir)
    for error in errors:
        print(error)
    print(f"{len(errors)} F1 cell(s) differ from the benches")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

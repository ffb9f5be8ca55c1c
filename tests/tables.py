"""Reference reader of the CSV tables the CLI writes."""

from __future__ import annotations

import csv


def read_table(path: str) -> tuple[list[str], list[dict]]:
    """Read back a CSV file written by ``prtbp.cli``.

    Returns the header and one dict per row; numeric cells come back as
    floats and empty cells as ``None``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = []
        for record in reader:
            row: dict = {}
            for key, cell in zip(columns, record):
                if cell == "":
                    row[key] = None
                else:
                    try:
                        row[key] = float(cell)
                    except ValueError:
                        row[key] = cell
            rows.append(row)
    return columns, rows

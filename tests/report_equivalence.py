"""Compare the report files of two `advgrad attack` runs within a tolerance.

`compare_reports(a, b, rtol)` reads the six report files of two output
directories (results.csv, metrics.csv, sweep.csv, histogram.csv,
interaction.csv, summary.json) and returns their differences, one message
each; an empty list means the two runs agree.  The rules:

- Both directories hold the same report files.  Each CSV file has the same
  columns in the same order, and the same rows, each named by its key
  columns (`KEYS`) and its rank among the rows of that key, in the same order.
  summary.json has the same keys and list lengths at every level.
- A success flag (`FLAGS`) must be equal.  Every row whose flag differs is
  listed with its key, so that a change can show that each flip sits at a
  decision boundary.
- An integer field (a count, a step count, an id) and a text field must be
  equal.  So a histogram count fails when an estimate crosses a bin edge,
  even within rtol; the edges themselves are numeric fields.
- A numeric field agrees when |a - b| <= rtol * max(|a|, |b|) + q.  For a
  field printed at a fixed precision (`ROUNDED`: "%.6f", "%.8g") q is one
  unit in its last printed digit (1e-6 for "16.000000", 1e-12 for
  "4.8664775e-05"), since two values within rtol can print one digit apart.
  Other floats (epsilon in the CSV files, every float of summary.json) are
  printed in full, so q is 0.  At rtol = 0 no unit is allowed either, so
  every field must print the same value.

Run from the repository root:

    python tests/report_equivalence.py OUT_A OUT_B [--rtol R]

It prints each difference and exits with status 1 if there is any.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import Counter
from pathlib import Path

CSV_FILES = ("results.csv", "metrics.csv", "sweep.csv", "histogram.csv", "interaction.csv")
SUMMARY = "summary.json"
REPORT_FILES = CSV_FILES + (SUMMARY,)

# the columns naming a row of each file; histogram rows are told apart by rank
KEYS = {
    "results.csv": ("example_id", "method", "source", "target", "seed"),
    "metrics.csv": ("method", "source", "target", "seed"),
    "sweep.csv": ("method", "epsilon", "source", "target"),
    "histogram.csv": ("method",),
    "interaction.csv": ("method", "example_id"),
}
FLAGS = {"results.csv": ("success",)}
ROUNDED = {
    "results.csv": ("linf", "mad", "rmsd"),
    "metrics.csv": ("asr", "mad", "rmsd"),
    "sweep.csv": ("asr",),
    "histogram.csv": ("bin_left", "bin_right"),
    "interaction.csv": ("estimate", "stderr"),
}


def _number(text: str):
    """(value, q) for a printed float, q one unit of its last printed digit;
    None for an integer or non-numeric text, which must match exactly."""
    try:
        value = float(text)
    except ValueError:
        return None
    mantissa, _, exponent = text.lower().partition("e")
    if "." not in mantissa and not exponent:
        return None  # an integer
    decimals = len(mantissa.partition(".")[2])
    return value, 10.0 ** (int(exponent or 0) - decimals)


def _values_agree(a, b, rtol: float, q: float) -> bool:
    if a == b:
        return True
    if rtol == 0 or not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + q


def _field_agrees(a: str, b: str, rtol: float, rounded: bool) -> bool:
    if a == b:
        return True
    na, nb = _number(a), _number(b)
    if na is None or nb is None:
        return False
    return _values_agree(na[0], nb[0], rtol, max(na[1], nb[1]) if rounded else 0.0)


def _keyed_rows(path: Path, key_cols):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(reader)
    index = [header.index(k) for k in key_cols if k in header]
    seen = Counter()
    keyed = []
    for row in rows:
        key = tuple(row[i] for i in index if i < len(row))
        keyed.append(((*key, seen[key]), row))
        seen[key] += 1
    return header, keyed


def _describe(key_cols, key) -> str:
    """A row's key as text; the rank shows when rows share the key columns."""
    named = ", ".join(f"{c}={v}" for c, v in zip(key_cols, key))
    return f"({named}, rank {key[-1]})" if key[-1] else f"({named})"


def _compare_csv(name: str, path_a: Path, path_b: Path, rtol: float) -> list[str]:
    key_cols = KEYS[name]
    header_a, rows_a = _keyed_rows(path_a, key_cols)
    header_b, rows_b = _keyed_rows(path_b, key_cols)
    if header_a != header_b:
        return [f"{name}: columns {header_a} != {header_b}"]
    keys_a, keys_b = [k for k, _ in rows_a], [k for k, _ in rows_b]
    if keys_a != keys_b:
        only_a = sorted(set(keys_a) - set(keys_b))
        only_b = sorted(set(keys_b) - set(keys_a))
        return [f"{name}: rows differ ({len(keys_a)} against {len(keys_b)}; "
                f"only in a: {only_a[:5]}, only in b: {only_b[:5]}"
                + ("" if only_a or only_b else "; same rows in another order") + ")"]
    flags, rounded = FLAGS.get(name, ()), ROUNDED[name]
    out = []
    for (key, row_a), (_, row_b) in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            out.append(f"{name} {_describe(key_cols, key)}: {len(row_a)} against "
                       f"{len(row_b)} fields")
            continue
        for column, a, b in zip(header_a, row_a, row_b):
            if column in key_cols:
                continue
            if column in flags:
                if a != b:
                    out.append(f"{name} {_describe(key_cols, key)}: flag {column} {a} != {b}")
            elif not _field_agrees(a, b, rtol, column in rounded):
                out.append(f"{name} {_describe(key_cols, key)}: {column} {a} != {b}")
    return out


def _compare_json(where: str, a, b, rtol: float) -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return [f"{where}: keys {sorted(a)} != {sorted(b)}"]
        return [d for k in sorted(a) for d in _compare_json(f"{where}.{k}", a[k], b[k], rtol)]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} against {len(b)} items"]
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in _compare_json(f"{where}[{i}]", x, y, rtol)]
    if isinstance(a, float) and isinstance(b, float):
        return [] if _values_agree(a, b, rtol, 0.0) else [f"{where}: {a!r} != {b!r}"]
    if type(a) is not type(b) or a != b:
        return [f"{where}: {a!r} != {b!r}"]
    return []


def compare_reports(dir_a, dir_b, rtol: float = 0.0) -> list[str]:
    """The differences between the report files of output directories dir_a
    and dir_b under relative tolerance rtol (see the module docstring)."""
    if not rtol >= 0:
        raise ValueError(f"rtol must be >= 0, got {rtol!r}")
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    present_a = [n for n in REPORT_FILES if (dir_a / n).is_file()]
    present_b = [n for n in REPORT_FILES if (dir_b / n).is_file()]
    if present_a != present_b:
        return [f"report files differ: {present_a} against {present_b}"]
    out = []
    for name in present_a:
        if name == SUMMARY:
            docs = [json.loads((d / name).read_text()) for d in (dir_a, dir_b)]
            out += _compare_json(name, *docs, rtol)
        else:
            out += _compare_csv(name, dir_a / name, dir_b / name, rtol)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two advgrad report directories.")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.add_argument("--rtol", type=float, default=0.0,
                   help="relative tolerance of numeric fields (default 0: equal as printed)")
    args = p.parse_args(argv)
    differences = compare_reports(args.dir_a, args.dir_b, args.rtol)
    for line in differences:
        print(line)
    print(f"{len(differences)} difference(s) at rtol {args.rtol}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

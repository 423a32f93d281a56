"""The report comparator (``tests/report_equivalence.py``) on real reports.

Two runs of ``advgrad attack`` on one config write byte-equal report files,
which must compare equal; an edited copy must fail in the field edited, and
only at the tolerances that cannot absorb the edit.
"""

import csv
import filecmp
import json
import math
import shutil

import pytest

from advgrad.cli import main
from report_equivalence import REPORT_FILES, compare_reports, main as compare_main

CONFIG = {
    "dataset": {"kind": "blobs", "n": 60, "image_shape": [8, 8, 1], "seed": 0,
                "num_classes": 3},
    "models": [
        {"name": "mlp", "kind": "mlp-1-hidden", "epochs": 4, "seed": 0},
        {"name": "lin", "kind": "softmax-linear", "epochs": 4, "seed": 1},
    ],
    "attacks": [
        {"name": "bim", "config": {"epsilon": 16.0, "steps": 4,
                                   "step_rule": {"type": "sign", "alpha": 4.0}}},
        {"name": "scaled", "config": {"epsilon": 16.0, "steps": 4, "momentum": 1.0,
                                      "step_rule": {"type": "fixed", "gamma": 16.0},
                                      "transforms": [{"type": "tim", "k": 3}]}},
    ],
    "sources": ["mlp"],
    "targets": ["lin"],
    "seeds": [0, 1],
    "eval_count": 6,
    "epsilon_grid": [8.0],
    "interaction": {"examples": 3, "num_pairs": 4, "num_subsets": 2, "model": "mlp"},
}


def unit_of_8g(value):
    return 10.0 ** (math.floor(math.log10(abs(value))) - 7)


def run_report(tmp_path_factory, name):
    work = tmp_path_factory.mktemp(name)
    config = work / "config.json"
    config.write_text(json.dumps({**CONFIG, "output_dir": str(work / "out")}))
    main(["attack", "--config", str(config)])
    return work / "out"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_report(tmp_path_factory, "a"), run_report(tmp_path_factory, "b")


@pytest.fixture
def edited(runs, tmp_path):
    """A copy of the first run and a function that rewrites one CSV field."""
    copy = tmp_path / "copy"
    shutil.copytree(runs[0], copy)

    def edit(name, row, column, change):
        path = copy / name
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index(column)
        rows[row + 1][col] = change(rows[row + 1][col])
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return rows[0], rows[row + 1]

    return copy, edit


def test_two_runs_write_equal_files_and_compare_equal(runs):
    a, b = runs
    assert all((a / name).is_file() for name in REPORT_FILES)
    assert all(filecmp.cmp(a / name, b / name, shallow=False) for name in REPORT_FILES)
    assert compare_reports(a, b) == []
    assert compare_reports(a, b, rtol=1e-3) == []
    assert compare_main([str(a), str(b)]) == 0


@pytest.mark.parametrize("rtol", [0.0, 1e-6, 0.5])
def test_a_flipped_flag_fails_and_names_its_row(runs, edited, rtol):
    # no tolerance forgives a flip, wide margin or not: the listing is what
    # lets a change show that each of its flips sits at a decision boundary
    copy, edit = edited
    header, row = edit("results.csv", 3, "success", lambda v: "0" if v == "1" else "1")
    key = dict(zip(header, row))
    differences = compare_reports(runs[0], copy, rtol)
    flips = [d for d in differences if d.startswith("results.csv")]
    assert flips == [
        f"results.csv (example_id={key['example_id']}, method={key['method']}, "
        f"source={key['source']}, target={key['target']}, seed={key['seed']}): "
        f"flag success {1 - int(row[header.index('success')])} != {key['success']}"]


@pytest.mark.parametrize("shift, rtol, agrees", [
    (1e-3, 0.0, False), (1e-3, 1e-6, False), (1e-3, 1e-2, True)])
def test_a_shifted_mad_fails_unless_the_tolerance_covers_it(runs, edited, shift, rtol, agrees):
    copy, edit = edited
    edit("metrics.csv", 1, "mad", lambda v: f"{float(v) * (1 + shift):.6f}")
    differences = compare_reports(runs[0], copy, rtol)
    assert (differences == []) == agrees
    assert all(d.startswith("metrics.csv (method=") and ": mad " in d for d in differences)


def test_one_printed_digit_passes_only_above_tolerance_zero(runs, edited):
    copy, edit = edited
    # one unit in the last of the 8 significant digits "%.8g" prints
    edit("interaction.csv", 0, "estimate", lambda v: f"{float(v) + unit_of_8g(float(v)):.8g}")
    assert len(compare_reports(runs[0], copy)) == 1
    assert compare_reports(runs[0], copy, rtol=1e-12) == []


def test_rows_files_and_summary_keys_must_match(runs, edited, tmp_path):
    copy, edit = edited
    edit("sweep.csv", 0, "epsilon", lambda v: "9.0")
    assert compare_reports(runs[0], copy, rtol=0.5)[0].startswith("sweep.csv: rows differ")
    (copy / "histogram.csv").unlink()
    assert compare_reports(runs[0], copy)[0].startswith("report files differ")
    summary = json.loads((runs[0] / "summary.json").read_text())
    accuracy = summary["clean_accuracy"]["lin"]
    summary["clean_accuracy"]["lin"] = accuracy + 1e-9
    other = tmp_path / "other"
    shutil.copytree(runs[0], other)
    (other / "summary.json").write_text(json.dumps(summary))
    assert compare_reports(runs[0], other) == [
        f"summary.json.clean_accuracy.lin: {accuracy!r} != {accuracy + 1e-9!r}"]
    assert compare_reports(runs[0], other, rtol=1e-6) == []
    with pytest.raises(ValueError, match="rtol"):
        compare_reports(runs[0], other, rtol=float("nan"))

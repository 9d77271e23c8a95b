"""scripts/csv_max_diff.py: how far the CSV outputs of two trees moved."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "csv_max_diff.py"
_spec = importlib.util.spec_from_file_location("csv_max_diff", _PATH)
csv_max_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_max_diff)


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def test_reports_largest_numeric_differences(tmp_path, capsys):
    base = _tree(tmp_path / "base", {
        "same.csv": "a,b\n1,2\n",
        "run/history.csv": "epoch,loss\n0,2.0\n1,100.0\n2,nan\n",
        "map.pgm": "P5",
    })
    head = _tree(tmp_path / "head", {
        "same.csv": "a,b\n1,2\n",
        "run/history.csv": "epoch,loss\n0,2.5\n1,100.1\n2,nan\n",
        "map.pgm": "P6",
        "new.csv": "x\n",
    })
    assert csv_max_diff.main([base, head]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"new.csv: only in {head}",
        "run/history.csv: 2 of 8 fields differ; max abs 0.5 (row 1, loss); max rel 0.2 (row 1, loss)",
    ]


def test_text_and_shape_differences():
    assert csv_max_diff.compare([["a"], ["x"]], [["a"], ["y"]]) == (
        "1 of 2 fields differ; max abs 0 (-); max rel 0 (-)"
    )
    assert csv_max_diff.compare([["1", "2"], ["3", "4"]], [["1", "2"], ["3", "5"]]) == (
        "1 of 4 fields differ; max abs 1 (row 1, column 1); max rel 0.2 (row 1, column 1)"
    )
    assert csv_max_diff.compare([["a"], ["1"]], [["a"]]) == "2 rows vs 1"
    assert csv_max_diff.compare([["a"], ["1"]], [["a"], ["1", "2"]]) == "row widths differ"

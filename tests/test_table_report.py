"""tools/table_report.py on two small synthetic output trees."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "table_report.py"


def _tool():
    loader = importlib.util.spec_from_file_location("table_report", TOOL)
    tool = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tool)
    return tool


def _write(root: Path, files: dict) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_table_report_names_each_change(tmp_path):
    tool = _tool()
    head = "time,photons,verdict\n"
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, {
        "a/seed-1/same.csv": head + "1.0e+00,2.0e+00,ok\n",
        "a/seed-1/moved.csv": head + "1.0e+00,2.0e+00,ok\n0.0e+00,4.0e+00,ok\n",
        "a/seed-1/zero.csv": head + "0.0e+00,0.0e+00,ok\n",
        "a/seed-1/text.csv": head + "1.0e+00,2.0e+00,ok\n",
        "a/seed-1/header.csv": head + "1.0e+00,2.0e+00,ok\n",
        "a/seed-1/format.csv": head + "1.0e+00,2.0e+00,ok\n",
        "a/seed-1/gone.csv": head,
        "a/seed-1/inf.csv": head + "1.0e+00,inf,ok\n2.0e+00,2.0e+00,ok\n",
        "a/seed-1/nan.csv": head + "1.0e+00,1.0e+00,ok\n2.0e+00,2.0e+00,ok\n",
        "a/seed-1/metadata.json": "{}",
    })
    _write(new, {
        "a/seed-1/same.csv": head + "1.0e+00,2.0e+00,ok\n",
        # row 1: rel 1e-3, abs 2e-3; row 2: rel 7.5e-4, abs 3e-3
        "a/seed-1/moved.csv": head + "1.0e+00,2.002e+00,ok\n0.0e+00,4.003e+00,ok\n",
        "a/seed-1/zero.csv": head + "0.0e+00,1.0e-17,ok\n",
        "a/seed-1/text.csv": head + "1.0e+00,2.0e+00,failed\n",
        "a/seed-1/header.csv": "time,photons_y=0\n1.0e+00,2.0e+00\n",
        "a/seed-1/format.csv": head + "1.00e+00,2.0e+00,ok\n",
        "a/seed-1/new.csv": head,
        # an unchanged inf cell is no change
        "a/seed-1/inf.csv": head + "1.0e+00,inf,ok\n2.0e+00,2.000000000000001e+00,ok\n",
        # a nan in row 1 is not displaced by the roundoff change in row 2
        "a/seed-1/nan.csv": head + "1.0e+00,nan,ok\n2.0e+00,2.000000000000001e+00,ok\n",
        "a/seed-1/metadata.json": '{"wall_time": 1.0}',
    })
    rows = dict(tool.compare(old, new))
    assert rows.pop("a/seed-1/same.csv") == "same"
    assert rows.pop("a/seed-1/moved.csv") == (
        "rel 1.00e-03 (photons, row 1), abs 3.00e-03 (photons, row 2)")
    assert rows.pop("a/seed-1/zero.csv") == (
        "rel inf (photons, row 1), abs 1.00e-17 (photons, row 1)")
    assert rows.pop("a/seed-1/text.csv") == "differs: text in 'verdict', row 1"
    assert rows.pop("a/seed-1/header.csv") == "differs: header"
    assert rows.pop("a/seed-1/format.csv") == "differs: formatting only"
    assert rows.pop("a/seed-1/inf.csv") == (
        "rel 4.44e-16 (photons, row 2), abs 8.88e-16 (photons, row 2)")
    assert rows.pop("a/seed-1/nan.csv") == (
        "rel nan (photons, row 1), abs nan (photons, row 1)")
    assert rows.pop("a/seed-1/gone.csv") == "only in old"
    assert rows.pop("a/seed-1/new.csv") == "only in new"
    assert rows == {}  # metadata.json is no data file


def test_table_report_runs_fourteen_configs():
    # four default scenarios and three workload configs, at two seeds each
    tool = _tool()
    configs = TOOL.parent.parent / "perfbench" / "configs"
    runs = tool.runs(configs)
    assert len(runs) * len(tool.SEEDS) == 14
    assert all(text.startswith("scenario:") for _, text in runs)

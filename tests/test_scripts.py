"""The experiment-grid script, run with a stubbed experiment runner."""

import importlib.util
from pathlib import Path

from quorumcycles import ResultRow, parse_rows_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"


def load_script(monkeypatch, out_dir):
    spec = importlib.util.spec_from_file_location("reproduce_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def one_row(spec):
        return [ResultRow(network=spec.network, r=1, mode="paired",
                          metric="links", fault_order=0, mean=1.0, lo=1.0,
                          hi=1.0, n=2, excluded=0)]

    monkeypatch.setattr(module, "run_experiment", one_row)
    monkeypatch.setattr(module, "OUT_DIR", out_dir)
    return module


def test_subset_run_writes_nothing(tmp_path, monkeypatch, capsys):
    module = load_script(monkeypatch, tmp_path / "experiments")
    module.main(["--networks", "nsfnet", "arpanet"])
    out, err = capsys.readouterr()
    assert "nsfnet" in out and "arpanet" in out and "chinese" not in out
    assert "nothing written" in err
    assert not (tmp_path / "experiments").exists()


def test_full_grid_writes_every_network(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "experiments"
    module = load_script(monkeypatch, out_dir)
    module.main([])
    _, err = capsys.readouterr()
    assert "wrote experiments/tables_desk.csv" in err
    rows = parse_rows_csv((out_dir / "tables_desk.csv").read_text())
    assert [r.network for r in rows] == list(module.NETWORKS)
    assert sorted(p.name for p in out_dir.iterdir()) == ["tables_desk.csv"]

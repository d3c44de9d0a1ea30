"""The README's examples hold: the library snippet runs, the error example is real."""

import datetime
import json
import re
from pathlib import Path

import numpy as np

from peca.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    rng = np.random.default_rng(0)
    values = rng.exponential(size=730)
    occurrences = np.sort(rng.choice(np.arange(1, 731), size=20, replace=False))
    exec(compile(blocks[0], str(README), "exec"), {"values": values, "occurrences": occurrences})
    statistic, p_hat = map(float, capsys.readouterr().out.split())
    assert np.isfinite(statistic)
    assert 0.0 < p_hat <= 1.0


def test_readme_error_example_is_what_the_cli_writes(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    # rows 2-41 run through 2020-01-01; row 42 skips 2020-01-02
    days = [datetime.date(2020, 1, 1) - datetime.timedelta(days=i) for i in range(39, -1, -1)]
    days.append(datetime.date(2020, 1, 3))
    rows = "".join(f"{d.isoformat()},{i}\n" for i, d in enumerate(days))
    monkeypatch.chdir(tmp_path)
    Path("counts.csv").write_text("date,value\n" + rows, encoding="utf-8")
    Path("events.txt").write_text("2020-01-01\n", encoding="utf-8")
    code = main(["pointwise", "--series", "counts.csv", "--events", "events.txt",
                 "--quantile", "0.9"])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == json.loads(blocks[0])

"""The README's library snippet runs as written."""

import re
from pathlib import Path

import numpy as np

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

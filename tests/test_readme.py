"""The README's Python quick start runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_python_quick_start_runs(monkeypatch):
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(block, namespace)
    assert namespace["report"].discrepancy > 0
    assert len(namespace["rows"]) == 3

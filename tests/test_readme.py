"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from threadmotifs.thread_model import to_json_line

from support import fig2_thread

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_examples_run(tmp_path, monkeypatch, capsys):
    # The blocks build on each other, so they share one namespace, in order.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    (tmp_path / "corpus.jsonl").write_text(to_json_line(fig2_thread()) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The first block prints fig2's reciprocity and 201-b count; the last one
    # prints nothing, as the two-user thread of the second has no 201-b triad.
    assert capsys.readouterr().out == "fig2 0.6666666666666666 1\n"

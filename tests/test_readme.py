"""The README's Python examples run as written, on the public API it names."""

from __future__ import annotations

import re
from pathlib import Path
from types import ModuleType

import threadmotifs

from support import fig2_thread, to_json_line

README = Path(__file__).resolve().parent.parent / "README.md"

# What `threadmotifs` exports. Oracles and test helpers live in tests/support.py
# or in their modules, never here.
PUBLIC_NAMES = {
    "AnchoredTriadClass", "BinSpec", "BinnedCensuses", "ClassTable", "CorpusParseError",
    "DegreeReport", "Ecdf", "ExpressionReport", "FilterPolicy", "InvalidLifetimeError",
    "MacroRecord", "MotifCensus", "NullModel", "PostRecord", "ThreadMotifsError",
    "ThreadRecord", "ThreadValidationError", "UndefinedMetricError", "UserGraph", "ZCell",
    "assign_bins", "branching_factor", "build_user_graph", "census_fast",
    "classify_expression", "completion_fractions", "degree_sequences", "ecdf",
    "filter_corpus", "fit_null_model", "get_class_table", "macro_record", "motif_instances",
    "op_betweenness", "parse_numbered", "parse_thread_line", "reciprocity",
    "responsiveness_median", "thread_lifetime", "z_scores",
}


def test_public_names_are_pinned_and_documented():
    # Submodules become package attributes once imported, so they are skipped.
    public = {
        name
        for name, value in vars(threadmotifs).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == PUBLIC_NAMES
    library_use = README.read_text(encoding="utf-8").split("## Library use")[1].split("\n## ")[0]
    assert {name for name in PUBLIC_NAMES if f"`{name}`" not in library_use} == set()


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

"""The README's code runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section_code(heading: str) -> str:
    """The first fenced python block under a `## heading` of the README."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_use_runs_and_writes_the_prune_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(section_code("Library use"), "README.md", "exec"), {})
    assert sorted(p.name for p in (tmp_path / "runs" / "lib").iterdir()) == [
        "full.ckpt", "report.jsonl", "slim.ckpt"
    ]

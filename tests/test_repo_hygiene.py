"""Repository hygiene: what the docs point at exists in the tree."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_artifact_named_in_readme_is_committed():
    """README cites ``BENCH_*.json`` files as evidence; ``.gitignore``
    hides new ones (they are tracked with ``git add -f``), so a cited
    artifact that was only ever a CI upload goes unnoticed."""
    named = set(re.findall(r"BENCH_\w+\.json", (ROOT / "README.md").read_text()))
    assert named, "README.md names no benchmark artifact"
    missing = sorted(name for name in named if not (ROOT / name).is_file())
    assert not missing, f"named in README.md but absent: {missing}"


def test_every_python_path_named_in_the_docs_exists():
    """README, DESIGN and EXPERIMENTS name source, test, benchmark and
    example files as the place to look; a file that moved or was never
    written turns the pointer into a dead end."""
    pattern = re.compile(r"\b(?:src/repro|tests|benchmarks|examples)/[\w/.-]*\.py\b")
    missing = sorted(
        f"{doc}: {path}"
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
        for path in set(pattern.findall((ROOT / doc).read_text()))
        if not (ROOT / path).is_file())
    assert not missing, f"named in the docs but absent: {missing}"


def test_behaviour_dump_is_deterministic(tmp_path):
    """``tests/tools/behaviour_dump.py`` is the instrument every
    refactor PR ``cmp``s against its parent: two runs of the same tree
    must be byte-equal, or a difference means nothing."""
    tool = ROOT / "tests" / "tools" / "behaviour_dump.py"
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for out in outs:
        subprocess.run([sys.executable, str(tool), "--quick", "--out",
                        str(out)], check=True, timeout=120, env=env)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].stat().st_size > 10_000


def test_no_collector_switches_in_src():
    """Set-up cost is cut by creating fewer objects, never by switching
    the cyclic collector off or freezing the heap (ROADMAP item 2)."""
    pattern = re.compile(r"\bgc\s*\.\s*(?:disable|freeze)\b")
    hits = sorted(
        f"{path.relative_to(ROOT)}:{number}"
        for path in (ROOT / "src").rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line))
    assert not hits, f"gc.disable / gc.freeze under src/: {hits}"

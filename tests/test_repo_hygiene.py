"""Repository hygiene: what the docs point at exists in the tree."""

from __future__ import annotations

import re
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

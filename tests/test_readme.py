"""The README documents the package's public surface."""

from pathlib import Path

import hpda

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_public_name():
    text = README.read_text()
    assert [name for name in hpda.__all__ if f"`{name}`" not in text] == []

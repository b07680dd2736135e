"""The package's public names: everything in `synstdp.__all__` resolves, and
every name the README lists as a key entry point is exported."""
import re
from pathlib import Path

import synstdp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    missing = [name for name in synstdp.__all__ if not hasattr(synstdp, name)]
    assert not missing
    assert len(set(synstdp.__all__)) == len(synstdp.__all__)


def test_readme_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Key entry points:"):].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", paragraph)
    assert len(names) >= 15
    assert [n for n in names if n not in synstdp.__all__] == []

"""The public namespace, and the README section that documents it."""

import re
from pathlib import Path

import faskit


def test_every_exported_name_resolves():
    missing = [name for name in faskit.__all__ if not hasattr(faskit, name)]
    assert not missing
    assert len(set(faskit.__all__)) == len(faskit.__all__)


def test_the_readme_library_section_names_every_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    # every identifier written inside an inline code span of the section
    spans = re.findall(r"`([^`\n]+)`", section)
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    missing = [name for name in faskit.__all__ if name not in named]
    assert not missing, f"exports the README's Library section does not name: {missing}"

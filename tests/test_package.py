"""The public namespace, and the README section that documents it."""

import os
import re
import subprocess
import sys
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


def test_importing_the_cli_loads_neither_subprocess_nor_the_float_workers():
    # a process that writes no large report starts no worker, so it should
    # not pay to import what starting one needs
    src = Path(faskit.__file__).resolve().parents[1]
    code = "import sys, faskit.cli; print(sorted({'subprocess', 'faskit.floattext'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_error_class_is_raised_somewhere():
    # an error class that nothing raises is dead code
    from faskit import errors

    package = Path(faskit.__file__).resolve().parent
    source = "\n".join(
        path.read_text(encoding="utf-8") for path in package.glob("*.py") if path.name != "errors.py"
    )
    classes = [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.FaskitError) and obj is not errors.FaskitError
    ]
    unraised = [name for name in classes if not re.search(rf"\b{name}\(", source)]
    assert classes and not unraised, f"error classes with no raise site: {unraised}"

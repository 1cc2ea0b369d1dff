"""The public namespace, and the README section that documents it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import faskit


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code: str, **env: str) -> str:
    """Stdout of ``code`` in a new interpreter that imports this suite's
    faskit, with no BLAS thread variable set but those in ``env``."""
    src = Path(faskit.__file__).resolve().parents[1]
    base = {key: value for key, value in os.environ.items() if key not in _THREAD_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_every_exported_name_resolves():
    missing = [name for name in faskit.__all__ if not hasattr(faskit, name)]
    assert not missing
    assert len(set(faskit.__all__)) == len(faskit.__all__)
    # and in a process where no submodule is loaded yet
    code = (
        "import faskit; names = faskit.__all__; listed = dir(faskit); "
        "print([n for n in names if n not in listed or not hasattr(faskit, n)])"
    )
    assert _fresh(code) == "[]"


def test_importing_the_package_loads_no_numpy():
    # so that faskit.cli runs before numpy loads OpenBLAS, under `python -m`
    # and the console script alike
    assert _fresh("import sys, faskit; print('numpy' in sys.modules)") == "False"


def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise():
    report = "import os; print([os.environ.get(name) for name in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')])"
    assert _fresh(f"import faskit.cli; {report}") == "['1', None]"
    # a caller's own variable wins, and a process that loaded numpy first is left as it is
    assert _fresh(f"import faskit.cli; {report}", OMP_NUM_THREADS="2") == "[None, '2']"
    assert _fresh(f"import numpy, faskit.cli; {report}") == "[None, None]"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_a_cli_process_starts_no_blas_threads():
    # OpenBLAS starts its pool when numpy loads it; a call large enough to
    # split shows that none starts later either
    code = (
        "import os, faskit.cli, numpy as np; "
        "np.linalg.qr(np.random.default_rng(1).standard_normal((20000, 10))); "
        "print(len(os.listdir('/proc/self/task')))"
    )
    assert _fresh(code) == "1"


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
    code = "import sys, faskit.cli; print(sorted({'subprocess', 'faskit.floattext'} & set(sys.modules)))"
    assert _fresh(code) == "[]"


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

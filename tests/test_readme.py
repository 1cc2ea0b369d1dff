"""The README's "Library" example runs against the package as it is."""

import os
import re

import numpy as np

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _library_example():
    with open(README) as handle:
        text = handle.read()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    rng = np.random.default_rng(11)
    n = 300
    Z = rng.standard_normal((n, 3))
    x = Z @ np.array([0.9, 0.6, 0.7]) + rng.standard_normal(n)
    y = 1.5 * x + 0.4 * Z[:, 1] + rng.standard_normal(n)
    exec(compile(_library_example(), README, "exec"), {"y": y, "x": x, "Z": Z})
    printed = capsys.readouterr().out.splitlines()
    # the interval, then one line per spec of the general family
    assert len(printed) == 1 + 12
    assert printed[1].startswith("Z1 ") and printed[-1].startswith("Z3|1,2 ")

"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    ns = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), ns)
    f = ns["f"]
    assert f.kappa == 2 and [m for _, m in f.zero_spheres] == [2]
    assert abs(ns["b"].value(ns["Quaternion"](0.25, 0.4, 0.1))) < 1e-12

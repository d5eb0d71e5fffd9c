"""Layer benchmarks (pytest-benchmark); not part of the tier-1 test run.

    python -m pytest bench [--src PATH] [--benchmark-json out.json]

--src names the `src` directory to import qschur from, so that one copy of
these files can time two checkouts; by default it is this checkout's.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def pytest_addoption(parser):
    parser.addoption("--src", default=os.path.join(os.path.dirname(HERE), "src"),
                     help="src directory of the qschur checkout to time")


def pytest_configure(config):
    src = os.path.abspath(config.getoption("--src"))
    sys.path.insert(0, src)
    import qschur

    if not os.path.abspath(qschur.__file__).startswith(src + os.sep):
        raise RuntimeError("qschur was imported from %s, not %s" % (qschur.__file__, src))

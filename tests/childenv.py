"""Environment for the `python -m gridfree` children that the tests start.

The children must run the same checkout as the test process, from any cwd,
whether or not the package is installed.  A relative `PYTHONPATH=src` only
resolves from the repo root, so the directory holding the imported package
goes first on the child's `PYTHONPATH` as an absolute path.  The children
also keep the test process's development mode and warning filters, so a
run under `-X dev -W error` holds them to the same rules.
"""

import os
import sys
from pathlib import Path

import gridfree

SRC = str(Path(gridfree.__file__).resolve().parent.parent)


def child_env() -> dict[str, str]:
    """A copy of os.environ with SRC prepended to PYTHONPATH, and with
    PYTHONDEVMODE and PYTHONWARNINGS set from this process's flags."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([SRC, rest] if rest else [SRC])
    if sys.flags.dev_mode:
        env["PYTHONDEVMODE"] = "1"
    if sys.warnoptions:
        env["PYTHONWARNINGS"] = ",".join(sys.warnoptions)
    return env

"""Lets plain `python -m pytest` run from a fresh checkout.

pyproject.toml puts src on the test process's sys.path; the child
interpreters some tests start (`python -m blfstep`) get it through
PYTHONPATH, set here.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

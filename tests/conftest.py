"""Import schurhr from this checkout's src/, here and in the `python -m
schurhr` subprocesses that some tests start, so `python -m pytest` works
without installing the package or setting PYTHONPATH."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

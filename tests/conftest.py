"""Import schurhr from this checkout's src/, here and in the `python -m
schurhr` subprocesses that some tests start, so `python -m pytest` works
without installing the package or setting PYTHONPATH.  Also the fixtures
that several test files share, and the ``ci`` Hypothesis profile
(``--hypothesis-profile=ci``): 500 examples for each property test that does
not set its own count."""

import dataclasses
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=500)

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture()
def fail_first_lorentzian_check(monkeypatch):
    """Make the first ``analysis.lorentzian_check`` call report a failure;
    returns the list of the epsilons of every call."""
    from schurhr import analysis

    real = analysis.lorentzian_check
    tried = []

    def check(p, mode="strict", epsilon=None):
        rep = real(p, mode, epsilon)
        tried.append(epsilon)
        return dataclasses.replace(rep, ok=False) if len(tried) == 1 else rep

    monkeypatch.setattr(analysis, "lorentzian_check", check)
    return tried

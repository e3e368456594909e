"""The short demos run to completion.

``trace_anatomy.py``, ``padding_math.py`` and ``covert_demo.py`` take
under 1.5 s together and run here, each in its own interpreter, as a
user would run them.  ``hashmap_distinguish.py``, ``pir_showdown.py``
and ``fingerprint_urls.py`` take 13-20 s each on a 2-core host and stay
out of the suite; the CI workflow runs them in a step of their own.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["trace_anatomy", "padding_math", "covert_demo"])
def test_demo_runs(name):
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

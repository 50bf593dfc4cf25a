"""The pytest settings of ``pyproject.toml`` keep a failing property test's report."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # on a failure the hypothesis plugin imports libcst, which warns
    # DeprecationWarning; the settings must not turn that into INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 1
    assert "Falsifying example" in out.stdout and "INTERNALERROR" not in out.stdout + out.stderr

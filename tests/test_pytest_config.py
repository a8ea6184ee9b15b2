import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != 0


def test_plain_fails():
    assert False


def test_plain_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # a failing @given test makes hypothesis import mypy_extensions.TypedDict
    # while it reports; under filterwarnings = ["error"] alone, that
    # DeprecationWarning became an INTERNALERROR that ended the session
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         str(tmp_path / "test_pair.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "2 failed, 1 passed" in out, out
    assert "FAILED test_pair.py::test_property_fails" in out, out
    assert "FAILED test_pair.py::test_plain_fails" in out, out

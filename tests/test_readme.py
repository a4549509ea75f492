"""README's Python code runs as written: each ```python block in a fresh
namespace, and the quick start prints what its comments say."""

import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _python_blocks() -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def _run(index: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_blocks()[index], f"README.md python block {index}",
                     "exec"), {})
    return out.getvalue()


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_block_runs(index):
    _run(index)


def test_quick_start_prints_six_twice():
    # the first block: CBS's cost and the oracle's, both the optimum 6
    assert "plan_coupled_oracle" in _python_blocks()[0]
    assert _run(0) == "6\n6\n"

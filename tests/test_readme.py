"""The README's Quick start runs as written.

The ```python block under "## Quick start" is extracted and executed, and
every `print(...)  # value` line must print the value its comment names, so
the documented construction interface cannot drift from the code.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return block


def test_quick_start_runs_and_prints_what_it_says():
    block = quick_start_block()
    promised = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert promised  # the block documents what it prints
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    assert printed.getvalue().splitlines() == promised

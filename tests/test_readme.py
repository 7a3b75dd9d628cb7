"""README's Library example runs against the package, so the documented API
cannot drift from ``pipeline``. It trains for 1 epoch instead of 30."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block.count("epochs=30") == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.replace("epochs=30", "epochs=1"), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the face table (a header, 3 classes, Ave, micro), the sweep, the step, 16 groups
    assert len(lines) == 6 + 3 + 1 + 16
    assert lines[0].split() == ["class", "recall", "precision", "F", "support"]
    assert [line.split()[0] for line in lines[6:9]] == ["1", "8", "64"]
    shape, kept = lines[9].rsplit(" ", 1)
    assert shape == "(16, 2, 3)" and int(kept) > 0
    assert all(re.fullmatch(r"val-\d{5} \[[0-2] [0-2]\]", line) for line in lines[10:])

"""The README's Library example runs as written.

Every line of the ```python block that ends in ``expr  # value`` states
that ``repr(expr)`` is ``value``; the block is executed top to bottom and
each such claim is checked, so the documented values cannot drift from
what the package returns.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
CLAIM = re.compile(r"^(\S.*?)\s+# (.+)$")


def library_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)].splitlines()


def test_readme_library_block():
    namespace: dict = {}
    pending: list[str] = []
    claims = 0
    for line in library_block():
        match = CLAIM.match(line)
        if match is None:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        expr, value = match.groups()
        assert repr(eval(expr, namespace)) == value, line
        claims += 1
    exec("\n".join(pending), namespace)
    assert claims >= 6

"""List every golden entry whose digest changed; exit 1 if any did.

tests/test_golden.py stops at the first differing entry.  This script
recomputes every digest against tests/golden/digests.txt and prints each
entry that changed, disappeared or is new, one per line.  It writes
nothing: a documented output change rewrites the digest file itself.

    PYTHONPATH=src python tests/golden/update.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from test_golden import DIGESTS, digest_lines  # noqa: E402


def _by_name(lines):
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def main() -> int:
    expected = _by_name(DIGESTS.read_text().splitlines())
    actual = _by_name(digest_lines())
    changed = [f"changed: {name}" for name, digest in actual.items()
               if name in expected and expected[name] != digest]
    changed += [f"new: {name}" for name in actual if name not in expected]
    changed += [f"gone: {name}" for name in expected if name not in actual]
    for line in changed:
        print(line)
    print(f"{len(changed)} of {len(expected)} golden entries differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

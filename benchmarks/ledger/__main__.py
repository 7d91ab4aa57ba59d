"""Entry point: ``python -m benchmarks.ledger`` or ``python benchmarks/ledger/__main__.py``.

Run by path (the benchmark contract's form) the package is not on
``sys.path`` yet, so the repo root and ``src/`` are added first.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

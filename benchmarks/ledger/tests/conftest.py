"""Put the repo root (``benchmarks.ledger``) and ``src/`` (``repro``) on the path."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[3]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

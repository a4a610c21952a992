"""Test setup for the benchmark's own tests: import the checkout's package.

Run from the repository root with ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

"""``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e/__main__.py``."""

import sys
from pathlib import Path

if not __package__:
    # Run as a script: put the checkout root, not this directory, first on
    # the path, so that this package's ``trace`` module does not shadow
    # the standard library's.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.benchmark import main  # noqa: E402

raise SystemExit(main())

"""``python -m tools.reprolint`` — see :mod:`tools.reprolint.cli`."""

import sys

from .cli import main

sys.exit(main())

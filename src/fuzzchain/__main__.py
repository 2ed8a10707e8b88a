"""``python -m fuzzchain``: the command line, as the ``fuzzchain`` script runs it."""

import sys

from .cli import main

sys.exit(main())

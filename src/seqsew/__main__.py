"""``python -m seqsew``: the command-line interface of :mod:`seqsew.cli`."""

import sys

from .cli import main

sys.exit(main())

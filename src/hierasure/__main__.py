"""``python -m hierasure``: the same command line as the ``hierasure`` script."""

import sys

from .cli import main

sys.exit(main())

"""``python -m p7c4c5 ...`` runs the command-line interface."""

import sys

from .cli import main

sys.exit(main())

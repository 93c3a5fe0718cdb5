"""``python -m modelgate`` runs the command-line interface."""

import sys

from .cli import main

# the guard keeps a spawned worker process, which imports this module
# again as ``__mp_main__``, from starting a second run
if __name__ == "__main__":
    sys.exit(main())

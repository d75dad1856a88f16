"""`python -m ncds`: the same command line as the `ncds` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

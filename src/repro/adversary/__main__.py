"""``python -m repro.adversary`` — run or replay adversary campaigns."""

import sys

from repro.testing.case import main

if __name__ == "__main__":
    sys.exit(main("adv"))

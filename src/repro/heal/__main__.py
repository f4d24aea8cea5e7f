"""``python -m repro.heal`` — run or replay closed-loop heal campaigns.

One case: an n-replica group under live intrusion must autonomously
detect, drain, and replace the compromised replica, converge on
identical state, and reject a renewed attack from pre-refresh shares.

Environment:

* ``REPRO_FILE`` — append one ``HEAL-REPRO:`` replay line per failing
  case (the CI artifact of a failing heal job);
* ``REPRO_BENCH_DIR`` — export one ``BENCH_heal-*.json`` record per run
  carrying the ``heal.*`` counters and phase timings.
"""

import sys

from repro.testing.case import main

if __name__ == "__main__":
    sys.exit(main("heal"))

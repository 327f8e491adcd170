"""Record the final states that the benchmark's reference check compares against.

    python3 benchmark/record_reference.py

Run from the root of a checkout.  It overwrites `benchmark/reference.json`;
do so only in a change that is meant to alter trajectories, and say why.
"""

import json

from run import REFERENCE_FILE, REFERENCE_SEED, reference_finals
from workloads import GENERATORS


def main():
    payload = {name: {"seed": REFERENCE_SEED, "finals": reference_finals(name)}
               for name in GENERATORS}
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()

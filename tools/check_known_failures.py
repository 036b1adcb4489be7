"""Compare the failing tests of a pytest log with the known failures.

    python tools/check_known_failures.py LOG [KNOWN]

Reads the `FAILED <test id>` summary lines of the pytest log LOG and of
KNOWN (default: test_output.txt at the repository root). Exits 0 when both
name the same test IDs; otherwise prints the IDs that newly fail and those
that no longer fail, and exits 1.
"""

import os
import re
import sys

# "FAILED path::name[params] - message": the params may hold spaces
FAILED = re.compile(r"^FAILED (\S+::[^\s\[]+(?:\[[^\]]*\])?)")
KNOWN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "test_output.txt")


def failed_ids(path):
    with open(path) as f:
        return {m.group(1) for m in map(FAILED.match, f) if m}


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    got = failed_ids(argv[1])
    known = failed_ids(argv[2] if len(argv) == 3 else KNOWN)
    for label, ids in (("newly failing", got - known),
                       ("no longer failing", known - got)):
        for test_id in sorted(ids):
            print(f"{label}: {test_id}")
    print(f"{len(got)} failing, {len(known)} known")
    return 0 if got == known else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Compare the failing tests of a pytest log with the known failures.

    python tools/check_known_failures.py LOG [KNOWN]

Reads the `FAILED <test id>` and `ERROR <test id>` summary lines of the
pytest log LOG and of KNOWN (default: test_output.txt at the repository
root); an ERROR line is a collection error (its ID is a file) or an error
in a test's set-up or tear-down. Exits 0 when both name the same failures;
otherwise prints those that are new and those that are gone, and exits 1.
An error keeps its "ERROR " prefix, so a test that errors where it failed
before counts as a change.
"""

import os
import re
import sys

# "FAILED path::name[params] - message": the params may hold spaces;
# "ERROR path - message" or "ERROR path::name[params] - message"
SUMMARY = re.compile(r"^(FAILED|ERROR) ([^\s\[]+(?:\[[^\]]*\])?)")
KNOWN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "test_output.txt")


def failed_ids(path):
    """The failing test IDs of a log, each error's as "ERROR <id>"."""
    with open(path) as f:
        return {m.group(2) if m.group(1) == "FAILED" else m.group(0)
                for m in map(SUMMARY.match, f) if m}


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

#!/usr/bin/env python3
"""Pin the outputs of every workload's item pool into perfbench/digests.json.

    python3 perfbench/capture_digests.py

The digests are the benchmark's reference outputs. Capture them only at a
commit whose outputs are known to be right; a change that is meant to keep
results identical must leave them reproducing as they are.
"""

from __future__ import annotations

import json
import sys

import cases
from run import SRC, fresh_import


def main() -> int:
    sys.path.insert(0, SRC)
    env = cases.make_env(fresh_import())
    pinned = {}
    for case in cases.CASES.values():
        digests = []
        for item in case.make_inputs(env):
            checked = case.check(env, item, case.run(env, item))
            if checked.problems:
                print(f"{case.name}: {'; '.join(checked.problems)}", file=sys.stderr)
                return 1
            digests.append(checked.digest)
        pinned[case.name] = {"size": case.size, "digests": digests}
        print(f"{case.name}: {len(digests)} digests")
    with open(cases.DIGESTS_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The reach suite: the large commands that the benchmark pools are too small
to hold, each pinned by the digest of its stdout.

    python tests/reach.py --check [--only NAME]
    python tests/reach.py --pin [--only NAME]

Each entry runs `python -m qheis.cli ARGV` in a subprocess with src/ first on
PYTHONPATH.  tests/golden/reach.json records, per entry, the argv, the exit
code, the sha256 and byte count of stdout, and the seconds the run took at
pin time, for information only.  --check runs the pinned argv of each entry,
prints its time and the ratio to the pinned time, and exits 1 on any digest,
byte-count or exit-code mismatch.  --pin rewrites the entries it runs; use it
only when an output changes on purpose, and record that in CHANGES.md.
--only runs one entry.  pytest does not collect this file.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "reach.json"

ENTRIES = {
    "verma-irred-20": "verma-irred --phi + --level 1 --max-index 20 --max-exp 1",
    "verma-irred-22": "verma-irred --phi + --level 1 --max-index 22 --max-exp 1",
    "heis-verify-e8-k2": "heis-verify --type E --rank 8 --max-k 2",
    "heis-verify-e8-k3": "heis-verify --type E --rank 8 --max-k 3",
    "heis-verify-g2-k10": "heis-verify --type G --rank 2 --max-k 10",
    "weyl-verify-e8": "weyl-verify --type E --rank 8 --level 2 --max-k 2",
    "loop-mult-e8": "loop-mult --type E --rank 8 --beta 1,2,2,3,3,2,1,1 --k 0 --window 2",
}


def measure(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-m", "qheis.cli", *argv], cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    seconds = time.perf_counter() - start
    return {"argv": argv, "exit": child.returncode,
            "sha256": hashlib.sha256(child.stdout).hexdigest(),
            "bytes": len(child.stdout), "seconds": round(seconds, 2)}


def main(args=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--pin", action="store_true")
    parser.add_argument("--only", metavar="NAME", choices=sorted(ENTRIES))
    opts = parser.parse_args(args)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    names = [opts.only] if opts.only else list(ENTRIES)
    if opts.pin:
        for name in names:
            golden[name] = measure(ENTRIES[name].split())
            print(f"{name}: pinned in {golden[name]['seconds']:.2f} s", flush=True)
        GOLDEN.write_text(json.dumps({n: golden[n] for n in ENTRIES if n in golden}, indent=2) + "\n")
        return 0
    failed = []
    for name in names:
        if name not in golden:
            print(f"{name}: not pinned")
            failed.append(name)
            continue
        want = golden[name]
        got = measure(want["argv"])
        same = all(got[key] == want[key] for key in ("exit", "sha256", "bytes"))
        print(f"{name}: {got['seconds']:.2f} s, {got['seconds'] / max(want['seconds'], 0.01):.2f}x pinned"
              f"{'' if same else '  MISMATCH'}", flush=True)
        if not same:
            failed.append(name)
    if failed:
        print("failed: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

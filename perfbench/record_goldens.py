"""Record the golden outputs of `scan` and `conjecture` for the golden seeds.

    python3 perfbench/record_goldens.py

Writes ``perfbench/goldens.json``: per seed, the SHA-256 of each scan
pool entry's CSV and each conjecture batch's report.  Run it only at a
commit whose outputs are the reference; ``run.py`` compares against them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    goldens = {"scan": {}, "conjecture": {}}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        scan, conjecture = workloads.Scan(), workloads.Conjecture()
        for seed in workloads.GOLDEN_SEEDS:
            goldens["scan"][str(seed)] = [
                hashlib.sha256(scan.call(item).encode()).hexdigest() for item in scan.generate(seed, Path(tmp))
            ]
            goldens["conjecture"][str(seed)] = [
                list(conjecture.call(item)) for item in conjecture.generate(seed, Path(tmp))
            ]
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

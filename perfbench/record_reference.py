"""Write perfbench/reference.json from the probes of the current code.

Run from the repository root after a deliberate change to the program's
numbers, and say in the change why the reference moved:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from host import pin_blas_threads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
pin_blas_threads()

from probes import REFERENCE, probe  # noqa: E402


def main() -> int:
    work = HERE / "work" / "record-reference"
    values = {w: probe(w, work / w) for w in ("train", "generate", "curate")}
    shutil.rmtree(work)
    REFERENCE.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Write golden.json: the float64 reference outputs that the output check pins.

Run from the repository root after a change that is meant to alter the
model's outputs, and commit the result with that change:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json

from run import import_package


def main() -> None:
    import_package()
    import workloads

    ref = {name: wl.reference() for name, wl in workloads.WORKLOADS.items()}
    workloads.GOLDEN_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()

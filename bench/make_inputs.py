"""Write one workload's input files and print the seconds it took.

    python3 bench/make_inputs.py WORKLOAD SEED DIR

The time covers importing dynetlogit and generating and writing the files,
which is what `setup_s` reports; `run.py` runs this several times, each in
a fresh process, so the import is cold every time.
"""

import sys
import time
from pathlib import Path

START = time.perf_counter()
SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    if not (SRC / "dynetlogit" / "__init__.py").is_file():
        print(f"no dynetlogit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import write_inputs

    write_inputs(argv[0], int(argv[1]), Path(argv[2]))
    print(time.perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One in-process set-up, timed by its parent from process start.

Imports the package, starts a serial ``PreparationEngine``, runs the
throwaway warm-up job and prints ``ready``; ``run.py`` takes the time
from spawning this process to reading that line.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from inprocess import new_engine  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int, required=True)
new_engine(parser.parse_args().seed)
print("ready", flush=True)

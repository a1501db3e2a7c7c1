import sys
from pathlib import Path

# the benchmark's modules and the package under test, as run.py sees them
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

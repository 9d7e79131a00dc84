import sys
from pathlib import Path

# The benchmark package lives at the repository root, next to src/.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

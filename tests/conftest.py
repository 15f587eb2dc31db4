import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# The same examples on every run, so a tier-1 result does not depend on the run.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

"""Path set-up for the stack benchmark's own tests.

Run by explicit path (``python -m pytest benchmarks/stack/tests``); the
directory is outside tier-1's ``testpaths`` on purpose.
"""

import os
import sys

STACK = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(STACK))
for path in (os.path.join(ROOT, "src"), STACK):
    if path not in sys.path:
        sys.path.insert(0, path)

"""Session setup for every test under this directory, perfbench/tests included.

The compiled kernel is built into, and loaded from, a cache directory made
for the test session and removed when it ends, so a test run neither adds
builds to the user's kernel cache nor prunes the builds already there.
Subprocesses the tests start inherit XDG_CACHE_HOME, and so the same cache.
"""

import os
import shutil
import tempfile

_CACHE = tempfile.mkdtemp(prefix="pidtucker-test-cache-")
os.environ["XDG_CACHE_HOME"] = _CACHE


def pytest_unconfigure(config):
    shutil.rmtree(_CACHE, ignore_errors=True)

"""``repro.store`` sits below the service layer.

The store holds the file format, model snapshots and the registry; the
session snapshot lives with the session.  So importing the store, or the
offline experiment path that caches results through it, must not load
the advisory service (asyncio servers, clients, replay).
"""

import os
import subprocess
import sys

import repro


def test_store_and_scheduler_load_no_service_module():
    script = (
        "import sys\n"
        "import repro.store, repro.analysis.scheduler\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'repro.service'\n"
        "             or m.startswith('repro.service.')))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert loaded.strip() == "[]"

"""What a fresh interpreter pays for `import lieop`: every CLI call starts one."""

import json
import os
import subprocess
import sys

import lieop

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lieop.__file__)))

# the modules the import adds, compared with those already loaded before it, so
# that a site hook loading any of them earlier does not count against lieop
PROBE = """
import json, sys
before = set(sys.modules)
import lieop, lieop.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_lieop_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    added = set(json.loads(proc.stdout))
    assert "lieop.cli" in added
    assert not added & {"dataclasses", "inspect"}

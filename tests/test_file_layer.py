"""The numeric modules load no file layer.

``polysys`` holds every numeric size bound, and ``polysys``, ``numrank`` and
``continuation`` reach ``formats`` only to write or read a system file, so
sampling and certifying a member leaves ``structrank.formats`` unloaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints whether structrank.formats is loaded after the numeric work, then
# after a system file's dict is written.
_SCRIPT = """
import json, sys
import structrank.continuation, structrank.numrank, structrank.polysys
from structrank.datasets import get_dataset
from structrank.numrank import certify_acr
from structrank.polysys import sample_system

structure = get_dataset("cep3").structure
system = sample_system(structure, seed=1)
assert certify_acr(structure, trials=5, seed=1).passed
loaded = ["structrank.formats" in sys.modules]
system.to_json_dict()
loaded.append("structrank.formats" in sys.modules)
print(json.dumps(loaded))
"""


def test_sampling_and_certifying_load_no_file_layer():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True]

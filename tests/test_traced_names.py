"""Every name the benchmark tracer wraps still exists where the tracer looks.

`perfbench/tracer.py` skips a target it cannot resolve and reports its metrics
as absent, so a deleted or moved name would not fail a traced run: it would
print null metrics. This test resolves each target as `Tracer.install` does, in
a fresh interpreter that has run only what the benchmark child runs before it:
`import padicapprox; import padicapprox.cli`. A submodule that the package
does not register in sys.modules is then missing, as it is to the tracer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RESOLVE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import padicapprox
import padicapprox.cli
missing = []
for _layer, module, attr, _hot in tracer.TARGETS:
    owner = sys.modules.get(f"padicapprox.{module}")
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or vars(owner).get(last) is None:
        missing.append(f"{module}.{attr}")
print(json.dumps({"targets": len(tracer.TARGETS), "missing": missing}))
"""


def test_every_traced_name_resolves():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", RESOLVE, str(ROOT / "perfbench" / "tracer.py")],
                          capture_output=True, text=True, env=env, check=True)
    out = json.loads(proc.stdout)
    assert out["targets"] > 0
    assert out["missing"] == []

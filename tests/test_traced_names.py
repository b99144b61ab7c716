"""Every name the benchmark tracer wraps still exists where the tracer looks.

`perfbench/tracer.py` skips a target it cannot resolve and reports its metrics
as absent, so a deleted or moved name would not fail a traced run: it would
print null metrics. This test resolves each target as `Tracer.install` does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for _layer, module, attr, _hot in targets:
        owner = importlib.import_module(f"padicapprox.{module}")
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(last) is None:
            missing.append(f"{module}.{attr}")
    assert missing == []

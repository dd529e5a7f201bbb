import os
import subprocess
import sys
from pathlib import Path

import umbral

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The tracer replaces each traced function in every namespace that holds it
# and refuses to install while any dict still holds an original, so a lookup
# table that stores a traced function would make every traced run fail.
SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, {perfbench!r})
import umbral.cli, umbral.identities, umbral.poisson
from tracer import TARGETS, Tracer, _resolve

t = Tracer()
t.install()
with contextlib.redirect_stdout(io.StringIO()):
    assert umbral.cli.main(["eval", "2.u + inv(u) + part(u) + bar(u) + comp(u,u)"
                                    " + u^.2 + bell(x)"]) == 0
for name in ("dot", "inverse_umbra", "partition_umbra", "alpha_bar",
             "composition_umbra", "point_power", "bell_umbra"):
    assert t.count(f"ops.{{name}}.calls") >= 1, name
t.uninstall()
for (_, module, path, _), fn in zip(TARGETS, t.originals):
    assert _resolve(module, path) is fn, path
"""


def test_tracer_installs_and_uninstalls_over_the_engine():
    src = str(Path(umbral.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(perfbench=str(PERFBENCH))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""The runtime dependency stays numpy only, and import loads no unused stdlib module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "disthyp"
ALLOWED = {"numpy", "disthyp"} | set(sys.stdlib_module_names)


def absolute_imports(path: Path) -> list[str]:
    """Top-level package of every absolute import in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_library_imports_only_numpy_and_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        foreign = set(absolute_imports(path)) - ALLOWED
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


# Three standard-library modules load on the first call that needs them, not
# on import: hashlib (OpenSSL) for a fingerprint, concurrent.futures for
# sampling threads, statistics for centralized_second_order's normal quantile.
LAZY_SCRIPT = """
import sys
import numpy as np
import disthyp as d, disthyp.cli
p = d.JointPmf.from_probs([[0.4, 0.1], [0.1, 0.4]])
d.build_curve(p, np.array([0.1, 0.3]))
loaded = sorted({"_hashlib", "concurrent.futures", "statistics"} & set(sys.modules))
assert not loaded, f"loaded by import and build_curve: {loaded}"
assert p.fingerprint() == "d5fd9d96a93755fd", p.fingerprint()
qm = d.quantized_model(p, d.Encoder(d.TestChannel.identity(2, 2)))
res = d.estimate_errors(qm, n=4, t=0.0, trials=100, seed=1, workers=2)
assert 0.0 <= res.type1_hat <= 1.0 and 0.0 <= res.type2_hat <= 1.0
assert 0.0 < d.centralized_second_order(p, 0.1, 100) < 1.0
"""


def test_import_and_curve_load_no_unused_stdlib_module():
    src = str(SRC.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run([sys.executable, "-c", LAZY_SCRIPT], env=env, text=True,
                          capture_output=True)
    assert done.returncode == 0, done.stderr

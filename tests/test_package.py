"""What `import gazesim` loads and binds.

The package binds the five names that its callers read through it, plus
`__version__`. Importing it loads every module whose import time the
benchmark reports (`IMPORT_SELF` in perfbench/run.py), so those figures
never read 0. It loads no `numpy.random`: the seeding module reads
NumPy's ziggurat tables on the first normal draw, not at import."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BOUND = {
    "RunConfig", "parse_config", "run_experiment", "run_trial_detailed",
    "derive_response_table", "__version__",
}
PROBE = """\
import json, sys, types
import gazesim
attrs = vars(gazesim).items()
print(json.dumps({
    "loaded": sorted(name for name in sys.modules if name.split(".")[0] == "gazesim"),
    "numpy_random": "numpy.random" in sys.modules,
    "modules": {k: v.__name__ for k, v in attrs if isinstance(v, types.ModuleType)},
    "names": sorted(k for k, v in attrs if not isinstance(v, types.ModuleType)
                    and (k == "__version__" or not k.startswith("__"))),
}))
"""


def benchmarked_modules() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "IMPORT_SELF" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py assigns no IMPORT_SELF")


def test_import_loads_every_benchmarked_module_and_binds_five_names():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env,
        check=True, timeout=60,
    )
    probe = json.loads(result.stdout)
    benchmarked = benchmarked_modules()
    assert "gazesim.stats" in benchmarked
    assert benchmarked <= set(probe["loaded"])
    assert set(probe["loaded"]) - benchmarked == {"gazesim.records"}
    assert set(probe["names"]) == BOUND
    assert not probe["numpy_random"]
    assert all(name == f"gazesim.{k}" for k, name in probe["modules"].items())

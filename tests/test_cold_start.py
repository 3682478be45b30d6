"""The runtime needs no SciPy and no process pool: in a fresh interpreter
where SciPy cannot be imported, every command runs, and importing the
command line module, building a scenario and solving its equilibrium load
neither.  Nor do they, or the simulate and estimate commands, load the
experiment harness, which the experiment command does."""

import json
import subprocess
import sys
from pathlib import Path

import dsekit
from dsekit.config import default_config

SRC = Path(dsekit.__file__).resolve().parents[1]

SCRIPT = """
import json
import sys

sys.modules["scipy"] = None  # from here on, importing scipy raises ImportError
sys.path.insert(0, sys.argv[1])
import dsekit.cli
from dsekit.config import build_scenario, load_config
from dsekit.scenario import equilibrium


def watched():
    return sorted(
        name for name, module in sys.modules.items()
        if module is not None
        and (
            name.split(".")[0] == "scipy"
            or name in ("concurrent.futures.process", "dsekit.harness")
        )
    )


equilibrium(build_scenario(load_config(sys.argv[2])))
loaded, codes = [watched()], []
for argv in json.loads(sys.argv[3]):
    codes.append(dsekit.cli.main(argv))
    loaded.append(watched())
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_commands_run_without_scipy_or_a_process_pool(tmp_path):
    doc = default_config()
    # long enough to host the 6 s single outlier of the experiment matrix
    doc["scenario"]["t_end"] = 8.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    commands = [
        [command, "--config", str(cfg), "--out-dir", str(tmp_path / command), "--quiet", *extra]
        for command, extra in (
            ("simulate", []),
            ("estimate", []),
            ("experiment", ["--runs", "1", "--jobs", "1"]),
        )
    ]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), str(cfg), json.dumps(commands)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # after the set-up, then after each command in turn
    assert result == {"loaded": [[], [], [], ["dsekit.harness"]], "codes": [0, 0, 0]}

"""Start-up: what importing the command-line front end pulls in."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_skips_dataclasses_and_inspect():
    # dataclasses imports inspect, ast and dis, and execs generated methods per class:
    # a third of the package's import time, paid by every command
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import eccosim.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"

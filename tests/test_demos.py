"""The demos run and print exactly what they printed when recorded.

Each demo prints check reports, failing witnesses included, and
cohomology dimensions; its standard output does not depend on the hash
seed, so a sha256 of it pins every line.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "demo_algebroids.py": "3d9dcdbc2725f19c8771bf1e7146be5a6f84813f71ddfadb0f915eeba8d81392",
    "demo_axioms.py": "d1d511f6a5bda1c35bbb1af05fbb2f14b8f346bb37224698c2d72420057a536f",
    "demo_coefficients.py": "116f49a0ff273232834ffc6413f25a19f0b56bfb09994a15801d81e3e22863c0",
    "demo_cohomology.py": "a688705b95779be6621662dbd8ae2e0abfc04f4f6602034b8b5d7a2555489923",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_output_digest(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                         capture_output=True, check=True, timeout=120).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[demo]

"""Golden outputs: SHA-256 digests of four small fixed-seed CLI runs.

Each command runs in a fresh interpreter with one BLAS thread and relative
paths, so the digests hold on any machine.  A change that moves one of them
changes output bytes; if that is deliberate, record the old and new digests
with the change.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import arnorm

POWER_CONFIG = {
    "n": [100],
    "h": ["none", "gauss-scale:2.0"],
    "beta": [0.3],
    "n_reps": 200,
    "grid": 32,
    "limit_reps": 2000,
    "seed": 7,
}

# (argv, digest of stdout, file written by the run and its digest)
RUNS = [
    (
        ["quantiles", "--kind", "omega2", "--grid", "32", "--reps", "2000", "--seed", "3",
         "--out", "o.txt"],
        "8813713faab74df5aa3528ae11dc8b9680549b577000639b01e4193b2c7dc7f4",
        ("o.txt", "a11c904572e9aca3683f50bacc9e6c3a6b256d1c67a47d2a93e4cf50b6364bac"),
    ),
    (
        ["simulate", "--n", "200", "--beta", "0.5,-0.2", "--mu", "1.0", "--h", "laplace:4.0",
         "--seed", "4", "--out", "s.txt"],
        hashlib.sha256(b"").hexdigest(),
        ("s.txt", "d7d54d7768ad8526c02dfe520269b74306e1e84f81781c39dae82c79f3d8c862"),
    ),
    (
        ["test", "s.txt", "--p", "2", "--table", "o.txt", "--grid", "32", "--reps", "2000",
         "--seed", "5"],
        "08356b0f5c3e1f4954cd766a2c17aff6f13ec646309c6888db8b89579ac11864",
        None,
    ),
    (
        ["power", "c.json"],
        "7ddfdfff462c04d1ffef58dd466d2bba66c03dd21b999a85245e154bfeb91457",
        None,
    ),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_digests(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps(POWER_CONFIG))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(arnorm.__file__).parents[1]))
    # in order: test reads the files that quantiles and simulate write
    for argv, stdout_digest, written in RUNS:
        proc = subprocess.run([sys.executable, "-m", "arnorm", *argv], cwd=tmp_path,
                              env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert _sha256(proc.stdout) == stdout_digest, argv[0]
        if written is not None:
            name, digest = written
            assert _sha256((tmp_path / name).read_bytes()) == digest, name

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
        "4463d29b25a117d575f96f2eda5631cce35ba9e001754e66531c01ec0c12ca7e",
        ("o.txt", "78940b83a57e23b6e8a25812e5e0094dd5c28c6d3edf779173e0cd3c365569de"),
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
        "42f8cd3734b8bb83f793080c999226ea21f634a3c8b993a407baed1a57fbaf89",
        None,
    ),
    (
        ["power", "c.json"],
        "254050068858631f65d1a4efd7aff7dd58c246b121cade466f979e32b5e706e1",
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

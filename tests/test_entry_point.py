"""`python -m rateratio` in fresh interpreters: what no in-process test can compare.

A seeded report over three shards is the same bytes at --workers 1 and 2.
Each shard streams both sides a chunk at a time from its own two streams:
at l1 = 0.3 most chunks hold zero denominators and the shard counts its
(x1, x2) pairs, l1 = 1e6 lies past the alias table's cap and is drawn by
rng.poisson and sorted, and the Gamma ratio is sorted.
"""

import subprocess
import sys

import pytest

from test_cli import _child_env


def launch(*args: str) -> bytes:
    """The stdout bytes of `python -m rateratio args`, which must exit 0 with an empty stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "rateratio", *args], capture_output=True, env=_child_env(), check=True, timeout=120
    )
    assert proc.stderr == b""
    return proc.stdout


@pytest.mark.parametrize(
    "command",
    [
        "predict ratio --l1 0.3 --l2 0.5",
        "predict ratio --l1 1e6 --l2 30",
        "mc gamma-ratio --alpha1 4 --beta1 3 --alpha2 7 --beta2 6",
    ],
)
def test_workers_give_the_same_bytes(command):
    args = [*command.split(), "--n", "2500001", "--seed", "3", "--format", "json"]
    assert launch(*args, "--workers", "1") == launch(*args, "--workers", "2")

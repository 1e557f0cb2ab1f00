"""Golden-hash safety net: short CLI runs must keep their artifacts byte-identical.

A change that is not meant to alter physics or output formatting must leave
every digest here untouched. A change that alters them on purpose updates the
digests and says why in CHANGES.md.
"""

import hashlib

import pytest

from tsea.cli import main

CASES = {
    "track": ["track", "--duration", "2", "--period", "1", "--noise", "--seed", "1"],
    "cycle": ["cycle", "--n", "5"],
    "stiffness": ["stiffness", "--mode", "sea", "--preset", "paper-full-range",
                  "--cycles", "1"],
}

# stiffness's report.json is not pinned: its least-squares stiffness fit
# depends on the BLAS thread count (K_fit differs in the last digits between
# one and two threads), so its bytes vary with the machine's CPU count.
DIGESTS = {
    ("track", "trace.csv"): "e10b61c17bfe9629d46c0426cd5b2dd89d0c132ea4994b2ba4c5816dd3d3ad89",
    ("track", "report.json"): "e9566e535633682897479930d48722fd1c66148b0e3e838ad78336a360104a3d",
    ("track", "plot.svg"): "82ac5c839300454773dd2ffd6ae0446b0cc998aeec6f64d65306717b1b0af9ca",
    ("cycle", "trace.csv"): "cf697834cf4d475f153e6ebee75bb01d6f9853727c9dd6d1681dbdb63ead435f",
    ("cycle", "report.json"): "b970a6d83d30fcbd2b65462f6309724aed29953ca4345ab06b026d28438c291d",
    ("cycle", "plot.svg"): "e635200319f86750421cb3238750ef1c9d11c6a46dae1559cb547e9b9aeece0c",
    ("stiffness", "trace.csv"): "58b1c765f04f7b534c7dad30e8ba210416d4badbdddd9fa7828fbcf48978b43b",
    ("stiffness", "plot.svg"): "5ba606c6bbcfb9b4188553c2dd8f7517f60a5be3be418331012a3df85b0e77a8",
}


@pytest.mark.parametrize("command", list(CASES))
def test_golden_digests(command, tmp_path):
    assert main(CASES[command] + ["--out", str(tmp_path)]) == 0
    for (cmd, name), digest in DIGESTS.items():
        if cmd == command:
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, f"{command}/{name}"

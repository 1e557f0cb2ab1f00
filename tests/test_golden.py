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
    "cycle-40": ["cycle", "--n", "40"],  # cycles 14..39 replayed, not simulated
    "stiffness": ["stiffness", "--mode", "sea", "--preset", "paper-full-range",
                  "--cycles", "1"],
    "stiffness-pea": ["stiffness", "--mode", "pea", "--preset", "paper-full-range",
                      "--cycles", "1"],
    # legs 6..8 copied, not simulated
    "stiffness-2": ["stiffness", "--mode", "sea", "--preset", "paper-full-range",
                    "--cycles", "2", "--rate", "1"],
    "stiffness-pea-2": ["stiffness", "--mode", "pea", "--preset", "paper-full-range",
                        "--cycles", "2", "--rate", "1"],
    "disturb-sea": ["disturb", "--mode", "sea", "--impacts", "1"],
    "disturb-pea": ["disturb", "--mode", "pea", "--impacts", "1"],
    "disturb-pea-2": ["disturb", "--mode", "pea", "--impacts", "2"],
    "disturb-pea-3": ["disturb", "--mode", "pea", "--impacts", "3"],  # impact 2 replayed
    "hub-curve": ["hub-curve"],
}

# the stiffness report.json files are not pinned: their least-squares stiffness fit
# depends on the BLAS thread count (K_fit differs in the last digits between
# one and two threads), so their bytes vary with the machine's CPU count.
DIGESTS = {
    ("track", "trace.csv"): "e10b61c17bfe9629d46c0426cd5b2dd89d0c132ea4994b2ba4c5816dd3d3ad89",
    ("track", "report.json"): "e9566e535633682897479930d48722fd1c66148b0e3e838ad78336a360104a3d",
    ("track", "plot.svg"): "82ac5c839300454773dd2ffd6ae0446b0cc998aeec6f64d65306717b1b0af9ca",
    ("cycle", "trace.csv"): "cf697834cf4d475f153e6ebee75bb01d6f9853727c9dd6d1681dbdb63ead435f",
    ("cycle", "report.json"): "b970a6d83d30fcbd2b65462f6309724aed29953ca4345ab06b026d28438c291d",
    ("cycle", "plot.svg"): "e635200319f86750421cb3238750ef1c9d11c6a46dae1559cb547e9b9aeece0c",
    ("stiffness", "trace.csv"): "58b1c765f04f7b534c7dad30e8ba210416d4badbdddd9fa7828fbcf48978b43b",
    ("stiffness", "plot.svg"): "5ba606c6bbcfb9b4188553c2dd8f7517f60a5be3be418331012a3df85b0e77a8",
    ("stiffness-pea", "trace.csv"): "2fbafc98988c4dfb9ee341892faf6936d9585e5a1f2b367c8d0cbcdb4c5c2940",
    ("stiffness-pea", "plot.svg"): "c82bf3e8207ab52ef8c2ed5a2dee715c64a305b341ee6d0e04f68701a2cbc10d",
    ("disturb-sea", "trace.csv"): "6de35d8c1cd84fbb3306c5d3d2faa68450e4071764a3f061b2d3de838b988dda",
    ("disturb-sea", "report.json"): "d36ab636d328677ad0d465e822aa37096d9066608511552c27406f5aa4fbe7db",
    ("disturb-sea", "plot.svg"): "98ef5e8661dd092b901bf48394b12541089dac12123808ecda73e4c23c134128",
    ("disturb-pea", "trace.csv"): "a1831cf371405d652307eabb945bbb28ce0a92b6a51661dfde346dffd8c9ae7e",
    ("disturb-pea", "report.json"): "f9c56c853412cef33ba2d0acc46be1245639ab3efd29db45727dcf0731b550f4",
    ("disturb-pea", "plot.svg"): "cbf9d31f09894f707403c07fa983b669a8aeaaf22d203fe28adfdbf23b8a893f",
    ("disturb-pea-2", "trace.csv"): "63db4f7c753e2fd316cbfa69cbb511e611d10e92fa4e2e846bcd09b603233784",
    ("disturb-pea-2", "report.json"): "f520067916f6ef4df4ac674a300606eddfe294761cf59a1491b01b794c18e19f",
    ("disturb-pea-2", "plot.svg"): "06c4b8f82697d899a93daed10c09251d8e258ace20cda24cb0c7e27bf3c203b7",
    ("cycle-40", "trace.csv"): "88735722d0e66aa1dcf6b9d8e43677c370a5d74c000ccb674e14aa1681fddf0d",
    ("cycle-40", "report.json"): "79e4fdf92954771d82fa228b7298533c670d36846580762b09ce343ab67e2f6c",
    ("cycle-40", "plot.svg"): "d928a1af4a5c26051a3cddf0d453aaa73b67eb30b3faadc9ea5a2b74e40b131c",
    ("disturb-pea-3", "trace.csv"): "5b4d75b2dc119ee91f756c813520adcca473e4f66a4b908f49927b3076896a09",
    ("disturb-pea-3", "report.json"): "9525d5832422458a15971cae0c65aaff4a891b6b9b58812604aff9c25aa11f06",
    ("disturb-pea-3", "plot.svg"): "8966426ecaae21e06f39321ed95a64326e62f514f9c541afac3dd4c33dfa5112",
    ("stiffness-2", "trace.csv"): "e0313899a97040abc892623b18316fbd9edefb93ea64452d9d55d0f386092492",
    ("stiffness-2", "plot.svg"): "692a7214355a3a5475d4e5b001032e2768af9ff367fa1c7d787a4777741d1b9c",
    ("stiffness-pea-2", "trace.csv"): "1b4e55423a466e46c26883cbb4bae455901350b83cbee9ce8dc696870d94b1af",
    ("stiffness-pea-2", "plot.svg"): "e098addd7a3dc7c35d9d03d52210e3790da3efcac0cfdd4b9ba821b35671d8c1",
    ("hub-curve", "trace.csv"): "47b45430bdb0a945abe3c287fb143bb37921f1d9ffb0b74c255735ec9c96b451",
    ("hub-curve", "report.json"): "b8c410d9465c6cfcfcc482dd3229be073e66fc888d810df54ae54e560f807962",
    ("hub-curve", "plot.svg"): "1ceffae9a88592efb6c638b0db2a022a3d8b26e65e27ac7c113534b5a93b0d10",
}


@pytest.mark.parametrize("command", list(CASES))
def test_golden_digests(command, tmp_path):
    assert main(CASES[command] + ["--out", str(tmp_path)]) == 0
    for (cmd, name), digest in DIGESTS.items():
        if cmd == command:
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, f"{command}/{name}"

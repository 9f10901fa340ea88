"""The serving path loads no numerical library.

numpy is ~16 MB resident and ~120 ms of start-up; only the seeded
generators (:func:`repro.util.rng.make_rng`: workloads, fault
injection, a lossy network) and the E21 load reports use it, and they
import it when called.  A fresh interpreter imports every package a
server process needs, wires a network, serves a request over it and
must still not have numpy loaded.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SERVE_ONE_REQUEST = textwrap.dedent("""
    import sys

    import repro.admission, repro.library, repro.net, repro.rdb, repro.tiers
    from repro.net import DuplexLink, Network, Simulator, Station
    from repro.tiers.remote import RemoteTierClient, RemoteTierServer
    from repro.tiers.server import ClassAdministrator

    network = Network(Simulator())
    for name in ("registry", "workstation"):
        network.add(Station(name, DuplexLink.symmetric_mbps(10.0)))
    RemoteTierServer(network, "registry", ClassAdministrator())
    client = RemoteTierClient(network, "workstation", "registry")
    client.login("registrar", "administrator")
    assert client.call_sync("admit_student", student_id="s1", name="S").ok
    assert "numpy" not in sys.modules, sorted(
        name for name in sys.modules if name.startswith("numpy")
    )[:5]
    from repro.util.rng import make_rng
    make_rng(1, "x").random()  # the generators still work, and load it
    assert "numpy" in sys.modules
""")


def test_serving_path_does_not_import_numpy():
    done = subprocess.run(
        [sys.executable, "-c", SERVE_ONE_REQUEST],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

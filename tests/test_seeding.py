"""Per-component RNG seeds are stable across interpreter processes.

A lossy/jittery link, a RED queue and an unseeded RandomSample each draw
from an RNG seeded by their name.  Python randomizes ``hash(str)`` per
process, so a name hash would give a different run under every
``PYTHONHASHSEED``; the seeds must come from a stable digest instead.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = r"""
import json
from repro.click import Router
from repro.click.packet import ClickPacket
from repro.netem import Interface, Link
from repro.packet import EthAddr
from repro.sim import Simulator

sim = Simulator()
intf1 = Interface("a-eth0", None, EthAddr(1))
intf2 = Interface("b-eth0", None, EthAddr(2))
link = Link(sim, intf1, intf2, loss=0.3, delay=0.001, jitter=0.001)
arrivals = []
intf2.set_receiver(lambda intf, data: arrivals.append(sim.now))
for _ in range(200):
    intf1.send(b"x")
sim.run()

router = Router.from_config(
    "Idle -> red :: RED(5, 20, 0.5, 100);"
    "red -> Unqueue -> Discard;"
    "Idle -> r :: RandomSample(0.5) -> Discard;")
router.start()
red = router.element("red")
sample = router.element("r")
for _ in range(60):
    red.push(0, ClickPacket(b"x"))
    sample.push(0, ClickPacket(b"x"))

print(json.dumps({
    "link_drops": link.dropped_loss,
    "link_arrivals": arrivals,
    "red_early_drops": red.early_drops,
    "sampled": sample.sampled,
    "sample_dropped": sample.dropped,
}))
"""


def run_with_hash_seed(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def test_random_components_agree_across_hash_seeds():
    first, second = run_with_hash_seed(1), run_with_hash_seed(2)
    assert first == second
    # every component actually drew from its RNG
    assert 0 < first["link_drops"] < 200
    assert 0 < first["red_early_drops"]
    assert 0 < first["sampled"] < 60
    assert first["sampled"] + first["sample_dropped"] == 60

"""Golden trace digests: the simulator's output is pinned byte for byte.

Each scenario runs a seeded Poisson workload with growth steps recorded
and hashes ``Trace.to_jsonl(include_steps=True)``. A refactor of the
scheduler, merger or allocator must leave every digest unchanged; a
deliberate behaviour change updates the digests together with a
CHANGES.md entry that explains it.

Matrix: all 8 policies on a noise-seeded 8x8 grid under merge, no-merge,
backfill and exclusive, plus all 8 policies with merge on a ternary
tree, where buffers cut the chip into branches and stalls are common.
"""

import hashlib

import pytest

from qpusched import (
    Chip,
    CouplingGraph,
    MergeConfig,
    Policy,
    QubitSpec,
    SimConfig,
    default_spec,
    generate_grid,
    generate_poisson_workload,
    run,
)
from qpusched.scheduler import POLICY_NAMES

MODES = {
    "merge": (MergeConfig(enabled=True), False),
    "nomerge": (MergeConfig(enabled=False), False),
    "backfill": (MergeConfig(enabled=True, backfill=True), False),
    "exclusive": (MergeConfig(enabled=False), True),
}


def ternary_tree(n: int = 40) -> Chip:
    specs = tuple(
        QubitSpec(id=i, t2_us=80.0 + 7.0 * (i % 5), readout_error=0.005 + 0.002 * (i % 7))
        for i in range(n)
    )
    edges = tuple(((i - 1) // 3, i) for i in range(1, n))
    return Chip("tree-40", CouplingGraph(n_qubits=n, edges=edges), specs)


CHIPS = {
    "grid8": generate_grid(8, 8, noise_seed=7),
    "tree40": ternary_tree(),
}

GOLDEN = {
    ("grid8", "fcfs", "merge"): "c5923a7f5603465a9239a554a2110b375db5f4c20ee41f5a4061e6583cb8fbb6",
    ("grid8", "sjf", "merge"): "55b9b31ba3517a1ef273e002e23d17a4a3e771f23a861f88d1e2dc5d85d74fbf",
    ("grid8", "qsjf", "merge"): "80e051898e7c87b3a30c32fdcc008585c3b825a630dbc693c52b8a6cc3a7454a",
    ("grid8", "srtf", "merge"): "3dfc520afb8d58c444db9c08c2fd4f29ed4317387d455874b77a218ebde261b1",
    ("grid8", "rr", "merge"): "409bbd290003318e76a3ed288656ec4e09680f8e46b02df47f60a8abc292a26b",
    ("grid8", "mfq", "merge"): "16b7c73520b4a6a9da91e914162254b56e17eb528ba441ede77a26ce3892b5e4",
    ("grid8", "hrrf", "merge"): "1805549ca7ef59fa3d7252aff2c92c91d8e8cbfd8f27d006f1abb11567603473",
    ("grid8", "qhrrf", "merge"): "5245ee8c076f4d825e3a7b77daec8e5c22924da91ce049df47b95334530a6770",
    ("grid8", "fcfs", "nomerge"): "82fbaa554ff9673c7a920495d5f281912e3db88ea871ce10c14bffe1b78f7507",
    ("grid8", "sjf", "nomerge"): "8c9cd9e40f8c1b92a322272c30da84c2925dd8e06c70e851e5f44e6f3e9bfedc",
    ("grid8", "qsjf", "nomerge"): "c358fd8a0e52d6793eb0182370adee09bba35769dbacce908a408bc974dc6264",
    ("grid8", "srtf", "nomerge"): "2b028aa576999965e2112412e62d2e59c2ddca069b4d2d71310da491b9d7d032",
    ("grid8", "rr", "nomerge"): "0e34c726981aab2d001f011680859308bcfe80b8d6bf45a64e00a70ee4ea183d",
    ("grid8", "mfq", "nomerge"): "5c8f3951e229217bc1470e80c65d3954dbe4099102ab1d5d94d01d9e1a9c9628",
    ("grid8", "hrrf", "nomerge"): "c6df3727a7eae69a394dcca1fe2a6aa619ee72f5ec97b2917608573d51353941",
    ("grid8", "qhrrf", "nomerge"): "b5681234aff53f70601de98fc32ddf802c7c2333fe16cec4d3f0f5c0cce0cdef",
    ("grid8", "fcfs", "backfill"): "b9684a79022485b0c4feb434c945f5e01403255f14074b48a94c3b4791a7e5cb",
    ("grid8", "sjf", "backfill"): "c2401f552e23556e7198a3c53ec00fa6dc2b8088523963f8583d78aee2ad8f17",
    ("grid8", "qsjf", "backfill"): "e008c38bf5e1372822ec1fa262f285245b5d93fa3f1499583ee30348e865d372",
    ("grid8", "srtf", "backfill"): "d4ef7c65e22d1d5c4374a85f634adf7bc9041c35321943e0af2f7b72c52bcf9c",
    ("grid8", "rr", "backfill"): "e365553a8683999b8400f331276c0ed4ed50d0bf1b30a7d51e9515d3f2768809",
    ("grid8", "mfq", "backfill"): "690753fc5fc6e4fcb5bf6f00aa75a9e8b9493f3b90cf9b96d7105756fc64cd03",
    ("grid8", "hrrf", "backfill"): "165e0f6c2ffa6f90f8396f7634beb8eebde3e53cbdd15b5bbced574020d075d8",
    ("grid8", "qhrrf", "backfill"): "71e98be0a4cfcc639ef02b67fd9ae517ed0525c38dde952aac97f6cfd4a0a426",
    ("grid8", "fcfs", "exclusive"): "dd1d47a91f66ed18a016a9843fd46b6e1939eb8c4f9e3a670c5ec62a6bcc6a76",
    ("grid8", "sjf", "exclusive"): "7718c09fd9e1923c2bb496bd7439cc4f727975a27edfdca59f1cd7d0d68d3c97",
    ("grid8", "qsjf", "exclusive"): "9acf975feec932446f03e33c6f8265403fd9ae9d9517353751f0e08e4ca413f1",
    ("grid8", "srtf", "exclusive"): "667b7de89424e5fb0eab20d26e923cd6ceb79c415e2d95ccaf93b1182e28939e",
    ("grid8", "rr", "exclusive"): "767d49a2427c22c72fe187092966b7d522fcbc69f3fb158c2d167aacc77cba1b",
    ("grid8", "mfq", "exclusive"): "1d395e839031a0c8742b64fd44ca2d94be4be138103e4e72428c14c9441f5cd2",
    ("grid8", "hrrf", "exclusive"): "4bc3e0324843713ce59fa62dadd4e46a381920a633fea703dae78bbe5a9acc67",
    ("grid8", "qhrrf", "exclusive"): "913153441ebe839c81254ec3f364bdeb0fac5998e8619c748e6e4b466f26432e",
    ("tree40", "fcfs", "merge"): "76445783feaaaee0e87f155d4c1197d90142b678a405a4aedea8c330943f335d",
    ("tree40", "sjf", "merge"): "9b5f696d9c6edfb69442ad4c1bd954d36748a3fc559d88c8de01510d0c454af1",
    ("tree40", "qsjf", "merge"): "bbacdbc9eaae92695693543fc71dcb85ec0613092ff0aba447d545d8d16e426d",
    ("tree40", "srtf", "merge"): "78617b21b9a1d66171a40b4324fda0bc927d3064beea9d0e49ccb436150dda7e",
    ("tree40", "rr", "merge"): "41bfc333db568fea1b5f94aee5a9d596001228b3f811dbf64cbf8144ba727790",
    ("tree40", "mfq", "merge"): "925812fc31e1deb88e14b0b0b98d387b0933f81464efd162a2d7b3625cc413f0",
    ("tree40", "hrrf", "merge"): "8578e482a7c1f9e642f6e482628fd37b44f1b43c0da7580acceb0c9e032185f8",
    ("tree40", "qhrrf", "merge"): "35e49af5fe053775b63c441716a62371da52a013fe533674f79fcbef0d592273",
}


def _scenarios():
    for mode in MODES:
        for policy in POLICY_NAMES:
            yield "grid8", policy, mode
    for policy in POLICY_NAMES:
        yield "tree40", policy, "merge"


def trace_digest(chip_name: str, policy: str, mode: str) -> str:
    chip = CHIPS[chip_name]
    merge, exclusive = MODES[mode]
    workload = generate_poisson_workload(default_spec(chip.n_qubits, 10.0, 2.0, seed=5))
    config = SimConfig(
        chip=chip,
        workload=workload,
        policy=Policy(policy, rr_quantum_shots=50, mfq_base_quantum_shots=50),
        merge=merge,
        exclusive=exclusive,
        record_growth_steps=True,
    )
    trace, _ = run(config)
    return hashlib.sha256(trace.to_jsonl(include_steps=True).encode()).hexdigest()


@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_trace_digest(scenario):
    assert trace_digest(*scenario) == GOLDEN[scenario]

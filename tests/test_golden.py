"""Golden trace digests: the simulator's output is pinned byte for byte.

Each scenario runs a seeded Poisson workload twice: with growth steps
recorded, hashing ``Trace.to_jsonl()`` with its growth lines (``GOLDEN``),
and with steps off, the engine's default, hashing ``Trace.to_jsonl()``
(``GOLDEN_STEPS_OFF``). The two runs differ only in whether growth
steps are logged; the allocator runs the same code either way. Both are
pinned. A refactor of the scheduler, merger or
allocator must leave every digest unchanged; a deliberate behaviour
change updates the digests together with a CHANGES.md entry that
explains it.

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


GOLDEN_STEPS_OFF = {
    ("grid8", "fcfs", "merge"): "f323bbc04b381c6808797f30ac0317481085f2ceeee1e80fa9209b4a5943b020",
    ("grid8", "sjf", "merge"): "7862ae833e26ef70d624fb4267717fdfdf420b0cc5c80918be8833a8ef7c8d75",
    ("grid8", "qsjf", "merge"): "e0392388ad789e747d6f9af52abe20405098fddf97b0645140bbbe0721e3806e",
    ("grid8", "srtf", "merge"): "2fdb0933afb10121f8320d9ce867ae0ddc59f9a88b584e87b3dd18a1800808e5",
    ("grid8", "rr", "merge"): "ae021fb445e38025bd7dae0a6cee77811e14615644e5e4c6edc638a4d65b8790",
    ("grid8", "mfq", "merge"): "f7e3815a550ab341ec41fc81982459a18f9c92327844350e9e79c138aee66c8a",
    ("grid8", "hrrf", "merge"): "e1385e9ec15e66e05584c2a30ff7238b47ea336a2024f51c31cd4559337d4085",
    ("grid8", "qhrrf", "merge"): "13d1e4c3e07a4168bdfe3cad237548ca659a84bd2768f60dca0b1c576e63f6c3",
    ("grid8", "fcfs", "nomerge"): "c601a81a8a9fc8734d74915736097546b8271f6192366fcead9fa4ad33b5e492",
    ("grid8", "sjf", "nomerge"): "7d3179a5b062dc493e39ad61030ad9590f0eccf0e83a26230dd4b4149656439e",
    ("grid8", "qsjf", "nomerge"): "cb79c45c2bca83874c2517fa1e9dab157f1b63161190fcd86eed4605bdb34692",
    ("grid8", "srtf", "nomerge"): "0c5d2e7fde09f52e071ce77808812f2b50376ef93491f3f749f0ca0df109b807",
    ("grid8", "rr", "nomerge"): "d791f5940a1d6c50a56322130d029e3a0db6399d902cc8a2a5629cdb4c2ae850",
    ("grid8", "mfq", "nomerge"): "ad5c15385ab820fea0d656ac64ff49c417bf732bdfcad5205891b29971e9261d",
    ("grid8", "hrrf", "nomerge"): "16705d97bea27492287be8da30ee20392c72d70cd580358da28d03decc76c44f",
    ("grid8", "qhrrf", "nomerge"): "3fe7bac13c301bd6bd7015beaadacd530ea1b8862490e6c2185d5a5cd789f12a",
    ("grid8", "fcfs", "backfill"): "701ff8369b5f849f1aa59785ac20b1e3337c04bfa5fce418a3edc934633e67fd",
    ("grid8", "sjf", "backfill"): "544f348d9e12e0274b2f0746ffdc80e02853a95ca98d25e17dd3b050a37517cd",
    ("grid8", "qsjf", "backfill"): "13031434f50d7b3f6698d3c38f5ee2e5f89e96621bc8165674c67dc29f3c4f2e",
    ("grid8", "srtf", "backfill"): "cbc30c736f99d1c0e19323e88c242fa02eab1647e52b198468d501d454902844",
    ("grid8", "rr", "backfill"): "90cccfbc44a9eaddf323a95d7d87dbe9ab2cf7aee823521b66a6ddba13439309",
    ("grid8", "mfq", "backfill"): "326e035dea34481ad5fe9e5af576b38953a8ee2c0fbdc5057444360f56ba7e48",
    ("grid8", "hrrf", "backfill"): "2dedd7b3976e3a70804fe3ffa08872ba0d2d45a290b22766bdc282515c4de3c0",
    ("grid8", "qhrrf", "backfill"): "dd91317deafb8e0a8c9013e7600177e4431c53d187d2d596d9af05d556726b95",
    ("grid8", "fcfs", "exclusive"): "d2500dd694d34c366e8a660ea7b136238fede7208bd4e05da716e73550cab982",
    ("grid8", "sjf", "exclusive"): "48c465cfa852b22b868fa10906683d8d83edb5889bfea0afe4f8c756cd4b62ae",
    ("grid8", "qsjf", "exclusive"): "72570e1b396cdc68de9a7e051ad4a44a52b44c774f1dcd8903a31bc082c90b87",
    ("grid8", "srtf", "exclusive"): "db095dd7f09b169ea933c7149b298fb071d806bf3e42469e42a9b27dd3cd7800",
    ("grid8", "rr", "exclusive"): "138cdd984a5bd6ac953f3cd62e2b86fca8823e94312a8e41b8a09de480f121ea",
    ("grid8", "mfq", "exclusive"): "0bde937625a822fb2444b6c3651e7e9829fd8d66c89fb73a495ece908e26482a",
    ("grid8", "hrrf", "exclusive"): "9989a544e1983b6b82559b9679aa52d047119db5be37149470180ead2eca203a",
    ("grid8", "qhrrf", "exclusive"): "b6af04ba33a0a043a88296e93069af3df6e71f800a674def623066026ebcd0ac",
    ("tree40", "fcfs", "merge"): "b8c54c268cf5b4d54315445e544156738a6888143dfdba226bb7b5454a77329f",
    ("tree40", "sjf", "merge"): "21ab72cd572b76700db373ef33e6d8e1d45d07308e7c00d00bb05498427353a9",
    ("tree40", "qsjf", "merge"): "7f9dd06247147438e20df7fcbbd319d1070c6a961151aabf892861aec360ecb5",
    ("tree40", "srtf", "merge"): "0fb6b3bc1638fda1578e8b85897b56f34857356459505f113eb3877d5531bce0",
    ("tree40", "rr", "merge"): "17404c9682a30c9381f33f2ad19d456a8b6bc735148ea5e6e2dc7146c47beb64",
    ("tree40", "mfq", "merge"): "100a5efb36fc3f01dfd204d1aadfbac6b73e71ef12b9d74679f4913944ea1277",
    ("tree40", "hrrf", "merge"): "6c210718a2a44ea2bcfc8c17d0680bfc1f3ca0eb715ff103bb7bb638fff0d2ea",
    ("tree40", "qhrrf", "merge"): "baaf9f5a26e239f25ef9abf8f769f7f4d59f23c85efda5d8476f387e5aad9246",
}


def _scenarios():
    for mode in MODES:
        for policy in POLICY_NAMES:
            yield "grid8", policy, mode
    for policy in POLICY_NAMES:
        yield "tree40", policy, "merge"


def trace_digest(chip_name: str, policy: str, mode: str, steps: bool = True) -> str:
    chip = CHIPS[chip_name]
    merge, exclusive = MODES[mode]
    workload = generate_poisson_workload(default_spec(chip.n_qubits, 10.0, 2.0, seed=5))
    config = SimConfig(
        chip=chip,
        workload=workload,
        policy=Policy(policy, rr_quantum_shots=50, mfq_base_quantum_shots=50),
        merge=merge,
        exclusive=exclusive,
        record_growth_steps=steps,
    )
    trace, _ = run(config)
    return hashlib.sha256(trace.to_jsonl().encode()).hexdigest()


@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_trace_digest(scenario):
    assert trace_digest(*scenario) == GOLDEN[scenario]


@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_trace_digest_steps_off(scenario):
    assert trace_digest(*scenario, steps=False) == GOLDEN_STEPS_OFF[scenario]

"""Golden trace digests: the simulator's output is pinned byte for byte.

Each scenario runs a seeded Poisson workload twice: with growth steps
recorded, so that the trace has growth lines, and with steps off, the
engine's default. The two runs differ only in whether growth steps are
logged; the allocator runs the same code either way. Both are pinned
twice:

- ``GOLDEN_JSONL`` holds the sha256 of ``Trace.to_jsonl()``.
- ``GOLDEN`` (steps on) and ``GOLDEN_STEPS_OFF`` hold the digests pinned
  before each fact of the trace was written once. They are checked on
  ``legacy_jsonl(Trace.from_jsonl(text))``, the old format written from
  the trace read back, which shows that the reader rebuilds what the
  writer dropped and that the runs did not change.

A refactor of the scheduler, merger or allocator must leave every digest
unchanged; a deliberate behaviour change updates the digests together
with a CHANGES.md entry that explains it.

Matrix: all 8 policies on a noise-seeded 8x8 grid under merge, no-merge,
backfill and exclusive, plus all 8 policies with merge on a ternary
tree, where buffers cut the chip into branches and stalls are common.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from qpusched import (
    Chip,
    CouplingGraph,
    MergeConfig,
    Policy,
    QubitSpec,
    SimConfig,
    Trace,
    compute_report,
    default_spec,
    generate_grid,
    generate_poisson_workload,
    run,
)
from qpusched.scheduler import POLICY_NAMES

from legacy_trace import legacy_jsonl

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


GOLDEN_JSONL = {  # (chip, policy, mode, growth steps recorded) -> sha256 of to_jsonl()
    ("grid8", "fcfs", "merge", True): "638b3e368005fd4ab65f339f728bc72141effd380676584bd52722327e797bef",
    ("grid8", "sjf", "merge", True): "74caa4ff1978e9e22f2e3c34625dc4a5ae6ae9c93a1b803502f0fe926f46c6d0",
    ("grid8", "qsjf", "merge", True): "6bac4f716158fd190cd039d834da9df4962e623a894a4f5c692e98ad02b8d8a6",
    ("grid8", "srtf", "merge", True): "6650702b165cf969c2a9ba2f76be2abcd3c3bf6bec6a2c9dbd560b6b98fbd32c",
    ("grid8", "rr", "merge", True): "de44558071f50d229061a36aed8c851f2bb8c5fe7a1f24647d712bb46b5337c8",
    ("grid8", "mfq", "merge", True): "09c3a8bc6ad300dfd6816164a38ee122ed19360058fe6f787dbb7080eae05445",
    ("grid8", "hrrf", "merge", True): "ea3e732b707aad68316872e1ed8b0077ae5d62da6bb4850acb8e65b098c8c9d7",
    ("grid8", "qhrrf", "merge", True): "4b2b12bf828d79a491d018deb251d220c9a14c099093a41df2b461567f5daaae",
    ("grid8", "fcfs", "nomerge", True): "4e372aae332eff24b8f0ab6cddf0359853dff8b66dc4640701e52b465ef705e6",
    ("grid8", "sjf", "nomerge", True): "cbec0345d49b06de9139806f86a30d8421a0daca0c3cc374aa248d94fcd3d24b",
    ("grid8", "qsjf", "nomerge", True): "bf2ec63e6b1059f7217a9be4b361f5270e5b9ab209cf27f7d7ac9b4205511f2f",
    ("grid8", "srtf", "nomerge", True): "6f213bc7795f8f27ceac927a7fa1fa40f52c2dfb6ad061358a12aee622e5cd06",
    ("grid8", "rr", "nomerge", True): "44aadf4bbabb6a1ceb4a40060270142c08f6112572f357d2498e43e945eeed9c",
    ("grid8", "mfq", "nomerge", True): "b67d0ffc93ec5fca3a122742c1e12ca31da97d1835c478bd856d7d7c0da4478a",
    ("grid8", "hrrf", "nomerge", True): "03ab55c4e434b6e895112b2899d871cb64f70ce98cb6264fc3d73a82a894e3db",
    ("grid8", "qhrrf", "nomerge", True): "e668492cd2f834573027d79b20b2a5218b8f691e9576c9c8a0fdc6d6a8c23bff",
    ("grid8", "fcfs", "backfill", True): "01114ec0cb16371c19c9375b29921afb5b2180c79ad5c403c00e92d5ad1c9dbf",
    ("grid8", "sjf", "backfill", True): "4bd22aad92d7ceb7db8b03db7cef21235920a6b77ab66af60ea3b566cee5e224",
    ("grid8", "qsjf", "backfill", True): "70153ef6a101b8c7169f89c9a787e50f205675ad8befb1e0d1cca14797b8edca",
    ("grid8", "srtf", "backfill", True): "09d905047c9e8e9aec13d97fc044a5a93a66f894fb0a43a4030c687250e1e70f",
    ("grid8", "rr", "backfill", True): "0030d32ca22ccd0db9f86f6b296c70ceb27830afca1a841ed1e03a89907a9e1e",
    ("grid8", "mfq", "backfill", True): "994d7710c3a308ea85a7fb15e20c5e0f4cc23556e7fefdccc83941bf71fcec43",
    ("grid8", "hrrf", "backfill", True): "3d6df1f9c5cbed1cf06c6014852bd1bbe07ed98b1dcff4d215b1a35734cb29d3",
    ("grid8", "qhrrf", "backfill", True): "73c2fdf96fbff18561b84ac821bb5f7fbb77f303ba4838fead9fca48aaa3dfcf",
    ("grid8", "fcfs", "exclusive", True): "f3b0386f76abb72c8c55c097950619f8ecc6a4e635c0b9ff5c2cc37785667306",
    ("grid8", "sjf", "exclusive", True): "4110df563ea4715d88a27b0238149ca92fe84740ca54c45c0407fdb5eb3313c5",
    ("grid8", "qsjf", "exclusive", True): "e0e2dc9f8c753422b26d21aff0a0e56c4d31bde761ab5ad140dbfd6f3ef409ab",
    ("grid8", "srtf", "exclusive", True): "48f186733d6864eafb2adc1697e1ddd43b6ec3e76ef2748f67525f50fc43453d",
    ("grid8", "rr", "exclusive", True): "8189f0397e489ebe3da3ce7fdebb4678f81d3448ee556d50de789dac6aaebc19",
    ("grid8", "mfq", "exclusive", True): "3073d14623587a68491afaf685bfe959b9d80e8a6d5540f5195c23e45c06de5b",
    ("grid8", "hrrf", "exclusive", True): "a5d5b0cd1b032f80cc785d9b7126c889bc91c245776d088b1a1ddd55caeec669",
    ("grid8", "qhrrf", "exclusive", True): "8d162043b2f051e96dff45c6905bd15bf4e9e1a1013cd0709c8aca507614c7bb",
    ("tree40", "fcfs", "merge", True): "be5d286cc6bbc96bb1aac0e2c7b0b0961e035996079f3e29368150f21972394e",
    ("tree40", "sjf", "merge", True): "6108c452d45d1fe3a5bf6a8e4436e1e19cef87fa02419cefeddb6d0507e4740e",
    ("tree40", "qsjf", "merge", True): "0e34efaf0a80fcda2c5b4935076c1c3f52f3b83703cbc6779f1922d2747b0917",
    ("tree40", "srtf", "merge", True): "bd7b6bcf43fd07ae6987f9673f135281f586dd26b9e8a668f0af322f261849ed",
    ("tree40", "rr", "merge", True): "98a12e1797683be8e0a714de9c9b12b7b4acca2950cfcd4a8861f2221eba9d93",
    ("tree40", "mfq", "merge", True): "f228dca6fbd56365f4c00ad62e9d0d390cb36ecb8faae925e0f5d2e56f339518",
    ("tree40", "hrrf", "merge", True): "5614387add3d828ef5a8edadbca3964353ced7af9f2c4bc13f64c779fc0137f4",
    ("tree40", "qhrrf", "merge", True): "e42319b838254dc0c32e1307604dae0aa97ba3894db2fb3254e1af43e9b738bd",
    ("grid8", "fcfs", "merge", False): "1dfa38e4365ebbef85eca2a67912dfa57ea0f2d3a379a67ed0656ad747b7f058",
    ("grid8", "sjf", "merge", False): "dac63dad1422447487c0eba48d1b74604cdf77ce1364a8978c2d66e84b42ab3d",
    ("grid8", "qsjf", "merge", False): "5da5dda2e7d9485542ea999029c16337844648d29b9b8f6a0ed174370e342561",
    ("grid8", "srtf", "merge", False): "d9695d05fde446954a19da418457b3847971af79b6c06ff76e9719c3c5acd719",
    ("grid8", "rr", "merge", False): "997dc5961e6002b99dbc9554d177dcc9709977a8ae5e007c19a3b1bbefa4d068",
    ("grid8", "mfq", "merge", False): "7103e59ab8e8e45ba23d4c5100b0b8ec07301bfe4e096dc2efd967b3fe78feb8",
    ("grid8", "hrrf", "merge", False): "82823a38f697837d43da84548c502393db272a10768721deab2218207d892d43",
    ("grid8", "qhrrf", "merge", False): "fca01bf1bfc0dd02d61bab5723553976d60398fe8ed1a22227fc97b5448f2560",
    ("grid8", "fcfs", "nomerge", False): "a13c672bf6c40f853a63b4a61ec1d483a98db175e826f1f295a8c41003d0098e",
    ("grid8", "sjf", "nomerge", False): "08f84b0473e5831b64aa0972749a5ef67635948a82d9dbff299fdfb1ad34e9c3",
    ("grid8", "qsjf", "nomerge", False): "1aace24c95355346bea51fef3fde95cedd8aac81f481976c91d403735a795a48",
    ("grid8", "srtf", "nomerge", False): "af678f2e753081dde793ca188eb0024fd9888ba3fd2ab46a610c2ca0dad093b9",
    ("grid8", "rr", "nomerge", False): "d2cb3c31d50dd181243a781a74022a0c3d7801a4b4663707ab8269011b9d624a",
    ("grid8", "mfq", "nomerge", False): "1cf0e00feb7c8e3343c92ecaa92edb27ed32bd7639bd2efa063a77f7710a114f",
    ("grid8", "hrrf", "nomerge", False): "055169f97094bbca3995e0785ecf2d8ca2a9520526f12e9bba4d27491fca1df0",
    ("grid8", "qhrrf", "nomerge", False): "2e31ca759a6ccc86343e67158902f1f08b0f0e9db3b99230e60b42719bffe348",
    ("grid8", "fcfs", "backfill", False): "21d299699f89b886ebedff654a3e4af52e2fbd518de65b389229bd8f739998c2",
    ("grid8", "sjf", "backfill", False): "06c532ae2724470b1f9bc3694270760af3ada09e5892c4090a17e6fda28784a4",
    ("grid8", "qsjf", "backfill", False): "fc00de6b36670068c50d561c3db28ee897642511289df8d6f1cc8292984e4f26",
    ("grid8", "srtf", "backfill", False): "9629780c8d09ffa559c124d0a750f82b7cfd68f00ca0b8b09c4f06cfcc3df5a0",
    ("grid8", "rr", "backfill", False): "3570a47262935d7a6e86b6777f689578d56c9d18f5a658772cdbaff6282aabc5",
    ("grid8", "mfq", "backfill", False): "6d75f5e7a6867508ac8b333e30c648ea65f5bfb98457d139ac1e9af7f399b871",
    ("grid8", "hrrf", "backfill", False): "0c13c8bec5680b89d45f046f4a698c767be82b0c14d8ed87996894c92878d953",
    ("grid8", "qhrrf", "backfill", False): "966a84407abcce8607b52517aa760ac1ab20a3ce969eb1c993b7896a86aa26ac",
    ("grid8", "fcfs", "exclusive", False): "0c079115c315c3a65a82bd3ab9ed2f8c054cccd032842010a2b7fb2f54dcc1aa",
    ("grid8", "sjf", "exclusive", False): "040d1b1ac6cc10db282e288ff819865d3e3ca51294bfb8d8a0b335f05625b317",
    ("grid8", "qsjf", "exclusive", False): "76045256b3a79e5bac8d9f710afbbe46e917a37db8fec6d56b6b00361dcae0c8",
    ("grid8", "srtf", "exclusive", False): "5533c64608854ca9195cbdfb64016759ed4312df47452d63b64312e58f2cd04d",
    ("grid8", "rr", "exclusive", False): "fe975ceaba7a45bb273204c1c0b2ff5759421dad4907c24c5e5121527a5187a7",
    ("grid8", "mfq", "exclusive", False): "e70a58badbe55f94c6f08983e3b37b83286718fc5b8b280eeb23a23637a93bf0",
    ("grid8", "hrrf", "exclusive", False): "cc8291df6eea29b2c908959f239f19264613f22988259e9ec8bd9fbd630988b6",
    ("grid8", "qhrrf", "exclusive", False): "fa05ad09960a64d28bce4dbb30c0c2c6a884f6e2cb679e5204dbf689bc194307",
    ("tree40", "fcfs", "merge", False): "2866110244f4ccbc3a027ce951b2c9219880aef4a046b1d302151b49195971f7",
    ("tree40", "sjf", "merge", False): "858f37c72599c80702cf7aba377107638a7f2825386cdd7923e6298d992b10be",
    ("tree40", "qsjf", "merge", False): "8092937867ac659760d8d057a2bd25b4156a301311a9777e2f01e9da70976bd5",
    ("tree40", "srtf", "merge", False): "ff5c751067479c8e3a86adfa6cfd854eb12a8dbb23a98b9edde331e275a21bdd",
    ("tree40", "rr", "merge", False): "93f14db71545ad516e8716160056fb27d60c0c0ec6ab485f90086c74a2f69582",
    ("tree40", "mfq", "merge", False): "f0efed4d211f0e7f940ff8e7bc1518364949c14842ad3d7b389588efcc2d86ea",
    ("tree40", "hrrf", "merge", False): "7e45debb832e65c44087df24a0426b596c144aa5eb0fb5ff0dc062fe6eecef5a",
    ("tree40", "qhrrf", "merge", False): "60a29f1758467c7cbe18d6fdd56248045cfb50b556ce9a7d52b25e119531f281",
}


def _scenarios():
    for mode in MODES:
        for policy in POLICY_NAMES:
            yield "grid8", policy, mode
    for policy in POLICY_NAMES:
        yield "tree40", policy, "merge"


def golden_config(chip_name: str, policy: str, mode: str, steps: bool = True,
                  t_q_mode: str = "t2") -> SimConfig:
    chip = CHIPS[chip_name]
    merge, exclusive = MODES[mode]
    workload = generate_poisson_workload(default_spec(chip.n_qubits, 10.0, 2.0, seed=5))
    return SimConfig(
        chip=chip,
        workload=workload,
        policy=Policy(policy, rr_quantum_shots=50, mfq_base_quantum_shots=50),
        merge=merge,
        exclusive=exclusive,
        t_q_mode=t_q_mode,
        record_growth_steps=steps,
    )


@functools.cache
def golden_run(chip_name: str, policy: str, mode: str, steps: bool = True):
    """(``to_jsonl()`` text, metrics report) of a golden scenario."""
    trace, report = run(golden_config(chip_name, policy, mode, steps))
    return trace.to_jsonl(), report


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(chip_name: str, policy: str, mode: str, steps: bool = True) -> str:
    """Digest of the legacy format written from the scenario's trace read back."""
    text, _ = golden_run(chip_name, policy, mode, steps)
    return sha256(legacy_jsonl(Trace.from_jsonl(text)))


@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_trace_digest(scenario):
    assert trace_digest(*scenario) == GOLDEN[scenario]


@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_trace_digest_steps_off(scenario):
    assert trace_digest(*scenario, steps=False) == GOLDEN_STEPS_OFF[scenario]


@pytest.mark.parametrize("steps", [True, False], ids=["steps", "steps_off"])
@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_jsonl_digest(scenario, steps):
    text, _ = golden_run(*scenario, steps)
    assert sha256(text) == GOLDEN_JSONL[(*scenario, steps)]


def report_bits(report) -> str:
    """Every field of a report, floats by repr, so equal text is equal bits."""
    return json.dumps(report.to_dict(include_per_job=True))


def assert_rescores(text: str, report, chip: Chip) -> None:
    """The trace file alone re-scores to the run's report, through the replay."""
    meta = json.loads(text.splitlines()[0])
    rescored = compute_report(Trace.from_jsonl(text), chip, t_q_mode=meta["t_q_mode"])
    assert report_bits(rescored) == report_bits(report)


@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_trace_file_rescores_to_the_run_report(scenario):
    assert_rescores(*golden_run(*scenario, False), CHIPS[scenario[0]])


def test_trace_file_rescores_under_min_t1_t2():
    # pst reads T_Q, so a file that did not record t_q_mode would re-score
    # it under the default and miss
    chip = generate_grid(8, 8, QubitSpec(0, t2_us=100.0, readout_error=0.01, t1_us=60.0),
                         noise_seed=7)
    config = dataclasses.replace(golden_config("grid8", "qhrrf", "merge", steps=False),
                                 chip=chip, t_q_mode="min_t1_t2")
    trace, report = run(config)
    text = trace.to_jsonl()
    assert json.loads(text.splitlines()[0])["t_q_mode"] == "min_t1_t2"
    assert report != run(dataclasses.replace(config, t_q_mode="t2"))[1]
    assert_rescores(text, report, chip)

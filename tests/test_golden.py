"""Golden trace digests: the simulator's output is pinned byte for byte.

Each scenario runs a seeded Poisson workload once. Runs used to log their
growth steps on request, as ``growth`` lines; no run does now, and
``growth_steps`` regrows them from the trace read back. The digests were
pinned with and without those lines ("steps" and "steps off"), and each
is checked on the same run:

- ``GOLDEN_JSONL`` holds the sha256 of ``Trace.to_jsonl()``; with steps,
  of that text followed by the ``growth`` lines of the regrown steps,
  which is the text a run that logged its steps wrote.
- ``GOLDEN`` (steps) and ``GOLDEN_STEPS_OFF`` hold the digests pinned
  before each fact of the trace was written once. They are checked on
  ``legacy_jsonl(trace, steps)``, the old format written from the trace
  read back, with the regrown steps or none, which shows that the reader
  rebuilds what the writer dropped, that the regrowth gives back every
  step the runs logged, and that the runs did not change.

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
    growth_steps,
    run,
)
from qpusched.scheduler import POLICY_NAMES

from legacy_trace import legacy_growth, legacy_jsonl

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


GOLDEN_JSONL = {  # (chip, policy, mode, steps) -> sha256 of to_jsonl(), with steps + growth lines
    ("grid8", "fcfs", "merge", True): "cfdeb5c9af628080fafabb72a7b678fa39cba3cae1e498126920434f53cd06ff",
    ("grid8", "sjf", "merge", True): "df8d67fbb8ecbb072f1c129621b7b7cd8c875e92567a9a0f7057f0571be4efc2",
    ("grid8", "qsjf", "merge", True): "7baae3fd97f6ecece1c702ad583355c5155f3c26833d3394e107ad292e3f3dda",
    ("grid8", "srtf", "merge", True): "2ef4370058f2020f08d33c42ce366e05e25f913f45a80e132f2f277ce484b3d1",
    ("grid8", "rr", "merge", True): "211438f8b4a665090413e5fe6b1cb1a211817068acfaf0214964330005836967",
    ("grid8", "mfq", "merge", True): "4d38c4ac38f74efca6f1c70ae277144d4d46538ecd552cf26997f5f488952aae",
    ("grid8", "hrrf", "merge", True): "149197c6eda065ba02d76d7a95046021667154b368821f0d733613dc792146cd",
    ("grid8", "qhrrf", "merge", True): "839419d1063c31412e5726dc41c7f555e139aa1d27b0a823a33d761124ebc742",
    ("grid8", "fcfs", "nomerge", True): "a54e98fd90010bb5d6a2d16b8ef81351b4475dc87a725c1c110a8f63dc5e4180",
    ("grid8", "sjf", "nomerge", True): "c77d55925da6752319b7c42f97cd888878536129aadc76f1f709db4414944429",
    ("grid8", "qsjf", "nomerge", True): "fb1ec3cc8282a321cf3433ff8f32081018d145a8cb54489930f02aa9415aaa4f",
    ("grid8", "srtf", "nomerge", True): "e683625ce858824ad26e55bbd76b1ff245dbbf8474588548f257a8f570a6e2ec",
    ("grid8", "rr", "nomerge", True): "be286dcb4da1692ae9db41e0a86da047f6663d36fd6306226e1e346946e5a2f5",
    ("grid8", "mfq", "nomerge", True): "449435354774a012247aef5f59a0c84a73853f52f080eb770cad0f47a2e34f56",
    ("grid8", "hrrf", "nomerge", True): "0e40dd865ead1cc54dbb93f6cc9159384439a0cc3e8112befb944d59292d885b",
    ("grid8", "qhrrf", "nomerge", True): "0efb20737a39c4b727408e77603764e2ed70b6edcf0a064a70dd7c22dd6c86d0",
    ("grid8", "fcfs", "backfill", True): "5972dc974167069f9d7146992eee1855b64a749c8d8ed705ca489c9d36a18b73",
    ("grid8", "sjf", "backfill", True): "0565828332f9d7a445a3171aac408addc4541c5ffaf4fbfc36a4688df8d18e67",
    ("grid8", "qsjf", "backfill", True): "be262497e851b279bfbd743ed4bcf8d5e59a0ec05bd4e279d9bdbcd2710c15da",
    ("grid8", "srtf", "backfill", True): "b2228e15fae008500f3153250453d5c3884487347d3f1880d56383eeb2c0b1b0",
    ("grid8", "rr", "backfill", True): "48499fb76dcb9771a022ac1230730bf8b9da961989295ebc48d90511d13e1727",
    ("grid8", "mfq", "backfill", True): "216d0205cb48e79b781ce8607fb09db0696384229017c96f921effd4615d8b26",
    ("grid8", "hrrf", "backfill", True): "d477cfc15dfaf39f24f4c631ddbf357c456c98eb503c491f5722f766dfa00a5e",
    ("grid8", "qhrrf", "backfill", True): "3ae63817b0d58110a305d8111896a3a462bc25e0c47abf2f4a0c536234d5db1c",
    ("grid8", "fcfs", "exclusive", True): "ce179895aca7d25e79286ead7ca3319e37d3b83540692ff72683d98de05e0e1f",
    ("grid8", "sjf", "exclusive", True): "e095786a54ad49a07bb41a94b318fbeae0db062fa348f4a00b2ed19e8bfe5dbd",
    ("grid8", "qsjf", "exclusive", True): "f5c9df3a2d59e12166d2a0bf3a7bf654dd619008f09f164a2147f950ed180679",
    ("grid8", "srtf", "exclusive", True): "9bcb61b4df5db8d4bb80bbb5b60d3d6f2cb496941eae7ea678c040c2522a5bf4",
    ("grid8", "rr", "exclusive", True): "fcc8ff33ae82238c1d9e3ecaa86d3b231cc353b6b97cbe0144ff0b35adc0fbfc",
    ("grid8", "mfq", "exclusive", True): "decdb9fedd19faa8f212c3f7b9bf190c9a1c92079b3e8d16955676e731c3cd9d",
    ("grid8", "hrrf", "exclusive", True): "3a435af23d78fc2461108f3f24518ef5e14a8dd947fe0587b892133ef985e224",
    ("grid8", "qhrrf", "exclusive", True): "206289d3f78e89fae4ec1bffbf252e2859b2901731368d668e8c685fe74e3fa7",
    ("tree40", "fcfs", "merge", True): "3a9e7a037de4f235744b6e1bb64a3225950c170b367f1f6fb3faace9e998804b",
    ("tree40", "sjf", "merge", True): "6225e63302d525508fe2f18c9a1770a8edfdda673bc0f2b1d20b97f08b4d1c86",
    ("tree40", "qsjf", "merge", True): "1126b837607c70be7397665f6becbe8e9a76157956a03579869e1030069f459c",
    ("tree40", "srtf", "merge", True): "da569400ac3e3be9f9494b8daf7de396b5c5e9efb26d65bc4949ed2453ed816e",
    ("tree40", "rr", "merge", True): "ae841421f8c6f864564f2fcc3748836fe52c9d4d77aeeb2cab9f7367d9766945",
    ("tree40", "mfq", "merge", True): "2ba68e49a617bc1bc06bbc2af02c8235c0eb0a39fa5c996dd58d8a02fb9b0b61",
    ("tree40", "hrrf", "merge", True): "f5ef73f83de946a20486f1c88c5366cdd8e18231daa88e7f9245cc3642580630",
    ("tree40", "qhrrf", "merge", True): "b97056bd7451a5ea1030b435f1bbdc4a765cf40040871b11db2a1db78ad12082",
    ("grid8", "fcfs", "merge", False): "409605659bc2b372fd053385d510c6fe7978dc813df00d246d0909fa926e6761",
    ("grid8", "sjf", "merge", False): "71a8fc0aa215c7356efc7e4f1d7b805c8409f4fa0a3a10d0db647fab0439fd24",
    ("grid8", "qsjf", "merge", False): "d0d228e33c44b2d89635a9d93dfc6a3c69d626505562a32e64637d207b189ffa",
    ("grid8", "srtf", "merge", False): "00e0f2ceaadddc541ed617e636db3ccd00fc34d57363456217ed7a4a9bee2b6f",
    ("grid8", "rr", "merge", False): "1031f7fc2243ca7ddb00e9257541598e846a2e0ad73eadbd9a272ea8ea72614e",
    ("grid8", "mfq", "merge", False): "a57593302b5ff47c8be79b9e3fdcd4f3c3e5d69f168d9256957aaddb4b02e33e",
    ("grid8", "hrrf", "merge", False): "52d4adbcb3d56ad0fc8f0e71c67df1f93bbdc1315253dd4e104c2f67f52ad0b0",
    ("grid8", "qhrrf", "merge", False): "e663704ee51cce04f0c056c07078607413f3c8ee15d1d409c75620d8a6057fcb",
    ("grid8", "fcfs", "nomerge", False): "0b54ff151dda19450d0cd3b5c2a7949bf214fb81de64274e95a7ef34036b171f",
    ("grid8", "sjf", "nomerge", False): "e716d75875f27b1ca82156398f717075407049ad8f0e8b7c7ced478c0110789e",
    ("grid8", "qsjf", "nomerge", False): "6c2a92f843a8b8e6f83b0c5c205e0df83df2c8facb158405dc181056abfdf531",
    ("grid8", "srtf", "nomerge", False): "e621e4d1c5c78d43aa270068e9c4f7f35872ceef7fb7fbe2c22af973339d7ea2",
    ("grid8", "rr", "nomerge", False): "bb77265474f10dc0ae7766ac3542160d00f406f0e985ef578cd6f730f9f52227",
    ("grid8", "mfq", "nomerge", False): "c49147602f7b0a453e3831ce08d4c87e185041bacc14503b6c9d5017d59ca22c",
    ("grid8", "hrrf", "nomerge", False): "ed85167ba1b7b181e9a35777dabb676d5d600bdb245892e5e8b4bb0c13594d8e",
    ("grid8", "qhrrf", "nomerge", False): "7a9f1bb922f88d6471c3c80aea1e4fb9123190cadcfcc7287722bdbac4cc1f57",
    ("grid8", "fcfs", "backfill", False): "622703282b6581e6729944e920d19c71ec94a63252d208e43105a89fef2b3281",
    ("grid8", "sjf", "backfill", False): "2db2cf4a03df222e848e22d613f11ebbaeb9d88ca698acf67186c49cfcfcfd99",
    ("grid8", "qsjf", "backfill", False): "3bd47ff62541fcaf017d878f8b0b9b89ffa11e35047858e53bdca77ce46ffe66",
    ("grid8", "srtf", "backfill", False): "bb089413fa44851745d5529eb670acdd51b357526850686d41e03c55bab61361",
    ("grid8", "rr", "backfill", False): "08563634a04de3353b05e554ab2e08364f6bee48b75b52dfe62dacee4de7f7dc",
    ("grid8", "mfq", "backfill", False): "ea0b47d2abd691e67a6f865559dad5833176d808a8a8fd150971e07ab62e9435",
    ("grid8", "hrrf", "backfill", False): "4a87e7fa343979e19123bbc0360eb87b153d1484173ba09033fbbd994bea045d",
    ("grid8", "qhrrf", "backfill", False): "586c8296b79e9a4da2f3ef45ed801a0dad51d1411ccc82d31345f3317fc45246",
    ("grid8", "fcfs", "exclusive", False): "1e3571b4f9b9e7f1fbee0a0ca7a218fbacd2def5e12cf90f9f712b94215b6d87",
    ("grid8", "sjf", "exclusive", False): "8c56309ecdf388fa6a2cd398520d71bdb15ab68cd915a274fb076b35c6077c2f",
    ("grid8", "qsjf", "exclusive", False): "d06415eff1fac7056d1d45bc2336f8596930c4790cf5b59a2c948ea48c5f204c",
    ("grid8", "srtf", "exclusive", False): "f9c9a81253ed12bcb608470079cc4a990ee175563c1d47c5ebbec4005f0a2758",
    ("grid8", "rr", "exclusive", False): "a2c26c8e066f9f61d8422e0867d7723e400b3928bcdb9b47ce3c2fe802e910fc",
    ("grid8", "mfq", "exclusive", False): "51327193d824ae77ca9ad60b0194ecc1b479d10b73c96583c222cb17e41e2624",
    ("grid8", "hrrf", "exclusive", False): "daf147cefd24a4216345e4709b7296af0af5e50becc8f0e11835f1e5dab6baa3",
    ("grid8", "qhrrf", "exclusive", False): "2ad6baddd9f008e689fa9db56ff0984b5d8778e04a1d4aaeefd67d27e4496a6b",
    ("tree40", "fcfs", "merge", False): "a57a45bb4fe3c1b9fc4e80c53799c69ee2907705dc67e73e4a6fc34d7d440288",
    ("tree40", "sjf", "merge", False): "0e3954e9a66a920c45f2abbb8c8bbd7d64c18976ae2d9faefde18c73f0214e7b",
    ("tree40", "qsjf", "merge", False): "38c04e0f20f8f059af62a428e617e652d55d2fe78934fb7fa22da060b09253e2",
    ("tree40", "srtf", "merge", False): "d21575af470d4cb30262dc81277192a0c671789efbed81e3f9a31fc2929d4e60",
    ("tree40", "rr", "merge", False): "003591ade9f276a47b7bf9a15712c123f5fb11c7938b5654bbd8230721f45215",
    ("tree40", "mfq", "merge", False): "4d1ece2150f9e7fef18dc944f1b4e72480dff24920946d40a441ccedab6876a0",
    ("tree40", "hrrf", "merge", False): "321a90178b6ae2d93ee533f140318a6c5cc34109e3ff17efd9cf7c2d7be2bc8f",
    ("tree40", "qhrrf", "merge", False): "17cae357f1816f1aa0873545fe80f8eb4344a7538da43279c832147c2519675d",
}


def _scenarios():
    for mode in MODES:
        for policy in POLICY_NAMES:
            yield "grid8", policy, mode
    for policy in POLICY_NAMES:
        yield "tree40", policy, "merge"


def golden_config(chip_name: str, policy: str, mode: str, t_q_mode: str = "t2") -> SimConfig:
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
    )


@functools.cache
def golden_run(chip_name: str, policy: str, mode: str):
    """(``to_jsonl()`` text, metrics report) of a golden scenario."""
    trace, report = run(golden_config(chip_name, policy, mode))
    return trace.to_jsonl(), report


@functools.cache
def golden_read(chip_name: str, policy: str, mode: str):
    """The scenario's trace read back from its text, and its growth steps
    regrown from that trace."""
    trace = Trace.from_jsonl(golden_run(chip_name, policy, mode)[0])
    return trace, growth_steps(trace, CHIPS[chip_name])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(chip_name: str, policy: str, mode: str, steps: bool = True) -> str:
    """Digest of the legacy format written from the scenario's trace read
    back, with its regrown growth steps or none."""
    trace, grown = golden_read(chip_name, policy, mode)
    return sha256(legacy_jsonl(trace, grown if steps else {}))


@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_trace_digest(scenario):
    assert trace_digest(*scenario) == GOLDEN[scenario]


@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_trace_digest_steps_off(scenario):
    assert trace_digest(*scenario, steps=False) == GOLDEN_STEPS_OFF[scenario]


@pytest.mark.parametrize("steps", [True, False], ids=["steps", "steps_off"])
@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_jsonl_digest(scenario, steps):
    text, _ = golden_run(*scenario)
    if steps:  # the text of a run that logged its growth steps
        trace, grown = golden_read(*scenario)
        encode = json.JSONEncoder(allow_nan=False).encode
        text += "".join(encode(doc) + "\n" for doc in legacy_growth(trace, grown))
    assert sha256(text) == GOLDEN_JSONL[(*scenario, steps)]


def report_bits(report) -> str:
    """Every field of a report, floats by repr, so equal text is equal bits."""
    return json.dumps(report.to_dict(include_per_job=True))


def assert_rescores(text: str, report, chip: Chip) -> None:
    """The trace file alone re-scores to the run's report, through the replay,
    under the coherence mode its meta line records."""
    rescored = compute_report(Trace.from_jsonl(text), chip)
    assert report_bits(rescored) == report_bits(report)


@pytest.mark.parametrize("scenario", list(_scenarios()), ids="-".join)
def test_trace_file_rescores_to_the_run_report(scenario):
    assert_rescores(*golden_run(*scenario), CHIPS[scenario[0]])


def test_trace_file_rescores_under_min_t1_t2():
    # pst reads T_Q, so a file that did not record t_q_mode would re-score
    # it under the default and miss
    chip = generate_grid(8, 8, QubitSpec(0, t2_us=100.0, readout_error=0.01, t1_us=60.0),
                         noise_seed=7)
    config = dataclasses.replace(golden_config("grid8", "qhrrf", "merge"),
                                 chip=chip, t_q_mode="min_t1_t2")
    trace, report = run(config)
    text = trace.to_jsonl()
    assert json.loads(text.splitlines()[0])["t_q_mode"] == "min_t1_t2"
    assert report != run(dataclasses.replace(config, t_q_mode="t2"))[1]
    assert_rescores(text, report, chip)

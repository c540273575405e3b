"""Byte-level pins of the presentations built by the functors and restrictions.

Cohomology tables cannot see generator order or signs; these digests can.
Each entry hashes the ``serialize_module`` bytes of every output on a fixed
set of seeded inputs, so any change to how a presentation is assembled
shows up here even when every table agrees.
"""

import hashlib

import pytest

from koszulkit.algebra import make_algebra
from koszulkit.dgmodule import serialize_module
from koszulkit.lkd import functor_F, functor_G, functor_jcut, standard_window
from koszulkit.qmodel import pushforward_p, restrict_to_T
from koszulkit.samples import random_module, stream

TRIALS = 4


def _outputs(e, f, p):
    S, T, Q = (make_algebra(kind, e, f, p) for kind in "STQ")
    for t in range(TRIALS):
        rng = stream(77, f"presentations:{e}:{f}:{p}:{t}")
        M = random_module(S, rng, max_gens=3)
        yield "F", functor_F(M, functor_jcut(standard_window(M), f)).module
        yield "G", functor_G(random_module(T, rng, max_gens=3)).module
        MQ = random_module(Q, rng, max_gens=3)
        jhi = max(j for _, j in MQ.gens) + 2 * (e + 1)
        yield "restrict", restrict_to_T(MQ, jhi)[0]
        yield "push", pushforward_p(MQ)[0]


DIGESTS = {
    (1, 1, 3): {
        "F": "378c6b57192b32e296e4fd33019091170a6cdf879bda69ec48d52d32145c599a",
        "G": "6049fcd69c0b4d88ad1c8b800b2a38c6a02e2a813c95c6e8533a48a4742ca26f",
        "restrict": "37f6e49dfec33e95c68a13a3bfe18bd6eeb819e9b05be1f0890bd6651534932c",
        "push": "66d0eefc99b616da6a5d4cdfe67514263ea678d9f492cfceeb6e0fa4e4a35742",
    },
    (2, 0, 3): {
        "F": "304b60d37bc7ae3e79caa92f1b62b3d541a9c64d72f1c7d20629361cba2de45a",
        "G": "883da4824e250b97ce1e5f6d1aab6db74fc32718591ffc1c7a2ee6ea2c8cbbd9",
        "restrict": "8c0d04ce9c95aa5861b9dc567f66602d818f795e47cb2bb8e18c70ce06e6e219",
        "push": "bb82363dc40eb2ffa9133b1fdd5b9666af07e239dba820b87df4a4c92b56bf46",
    },
    (2, 1, 5): {
        "F": "b9c34b2fec83d6e86d5ca9132f4bebc7e72f5b12f6b4b143f448a1fc87472ad9",
        "G": "2fef91020a3df41dbe04ac006b6d7a123429ce2dc3ca65d610ab941db2a0e936",
        "restrict": "176feaea78c40036e94a5ce9db5427ae7b4f0947bfce9fc4be477f9836288f10",
        "push": "57ded68e4016c5804512e1915630a4b9f3db8475e3ad7f19a77581cfe1203a22",
    },
    (2, 2, 3): {
        "F": "8ad37f7c7e168faa70da21a139dc55cdf18e96a50fe2e4a7ce736db436c67f35",
        "G": "e91cac2c9a8f78e16e24b34cce56afa3fa09b7250f070c3449193cb1b818ec0f",
        "restrict": "e4540c3661eb78e8d381dd658902ad29aa85ef85d306e8182a2430d9207d46e6",
        "push": "c4054ac988cde52c453417237dbf7dfed6ef67cf70f0815fed242b3dd3624d23",
    },
    (3, 1, 3): {
        "F": "cba87e17e831b7df921b7a743c64fbe101d5c29938991b33935de8097e46838b",
        "G": "47fa84790bbd17b92d310edbad481e3f0a41faae4186bfc879c727dd5e7b1d55",
        "restrict": "3ae1ef56cf890bb576671e44452b5ad2af82fd20f5ddaebac5d559c29fa2a44e",
        "push": "4b852dbe2a91bdb51e2e62091eae9324b7149fa711c37ffa52a1af4847129e39",
    },
}


@pytest.mark.parametrize("e,f,p", sorted(DIGESTS))
def test_presentation_digests(e, f, p):
    hashes = {}
    for name, module in _outputs(e, f, p):
        hashes.setdefault(name, hashlib.sha256()).update(serialize_module(module).encode() + b"\n")
    got = {name: h.hexdigest() for name, h in hashes.items()}
    assert got == DIGESTS[(e, f, p)]

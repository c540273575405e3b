"""Byte-level pins of the presentations built by the functors and restrictions.

Cohomology tables cannot see generator order or signs; these digests can.
Each entry hashes the ``serialize_module`` bytes of every output on a fixed
set of seeded inputs, so any change to how a presentation is assembled
shows up here even when every table agrees.  Finite modules (the full
expansion of a T-module and its closed-form dual) are pinned the same way
through their basis bidegrees and the (row, col, coeff) triples of d and
of every generator action, sorted by (row, col); the actions, which finite
modules do not hold, are read from the dense reference record
(``finite_reference``), built from ``Expansion.action``.
"""

import hashlib
import json

import pytest

import finite_reference as dense_ref
from koszulkit.algebra import make_algebra
from koszulkit.dgmodule import serialize_module
from koszulkit.homdual import dualize_T_formula, expand_T_module
from koszulkit.lkd import functor_F, functor_G, functor_jcut, standard_window
from koszulkit.qmodel import pushforward_p, restrict_to_T
from koszulkit.samples import random_acyclic, random_module, stream

TRIALS = 4


def _triples(matrix):
    """The (row, col, coeff) triples of a finite module's term arrays,
    sorted by (row, col)."""
    return sorted(zip(*(x.tolist() for x in matrix)))


def _dense_triples(matrix):
    """The (row, col, coeff) triples of a dense matrix's nonzero entries,
    sorted by (row, col)."""
    rows, cols = matrix.nonzero()
    return _triples((rows, cols, matrix[rows, cols]))


def _finite_text(M, ref) -> str:
    """Basis bidegrees and d of a finite module, and every generator action
    of its dense reference record, whose d must equal the module's."""
    dense_ref.assert_same_d(M, ref)
    degs = [[int(x) for x in bd] for bd in M.basis_degs]
    return json.dumps([degs, _triples(M.d), [_dense_triples(a) for a in ref.sym_act], [_dense_triples(a) for a in ref.ext_act]])


def _outputs(e, f, p):
    S, T, Q = (make_algebra(kind, e, f, p) for kind in "STQ")
    for t in range(TRIALS):
        rng = stream(77, f"presentations:{e}:{f}:{p}:{t}")
        M = random_module(S, rng, max_gens=3)
        yield "F", serialize_module(functor_F(M, functor_jcut(standard_window(M), f)).module)
        yield "G", serialize_module(functor_G(random_module(T, rng, max_gens=3)).module)
        MQ = random_module(Q, rng, max_gens=3)
        jhi = max(j for _, j in MQ.gens) + 2 * (e + 1)
        yield "restrict", serialize_module(restrict_to_T(MQ, jhi)[0])
        yield "push", serialize_module(pushforward_p(MQ)[0])
        for N in (random_module(T, rng, max_gens=3), random_acyclic(T, rng)):
            fin, ref = expand_T_module(N), dense_ref.expand_T(N)
            yield "expand", _finite_text(fin, ref)
            yield "dual", _finite_text(dualize_T_formula(fin), dense_ref.shift(dense_ref.k_linear_dual_T(ref), f, 2 * f))


DIGESTS = {
    (1, 1, 3): {
        "F": "378c6b57192b32e296e4fd33019091170a6cdf879bda69ec48d52d32145c599a",
        "G": "6049fcd69c0b4d88ad1c8b800b2a38c6a02e2a813c95c6e8533a48a4742ca26f",
        "restrict": "37f6e49dfec33e95c68a13a3bfe18bd6eeb819e9b05be1f0890bd6651534932c",
        "push": "66d0eefc99b616da6a5d4cdfe67514263ea678d9f492cfceeb6e0fa4e4a35742",
        "expand": "51f2ffc32ab90c228067962e67f17aba114f2643fca103a8a3c7fc57d95ce2aa",
        "dual": "b663882652b04fd379bf270418879ddbcd7e5b9c498ed4501d17cf551ab44621",
    },
    (2, 0, 3): {
        "F": "304b60d37bc7ae3e79caa92f1b62b3d541a9c64d72f1c7d20629361cba2de45a",
        "G": "883da4824e250b97ce1e5f6d1aab6db74fc32718591ffc1c7a2ee6ea2c8cbbd9",
        "restrict": "8c0d04ce9c95aa5861b9dc567f66602d818f795e47cb2bb8e18c70ce06e6e219",
        "push": "bb82363dc40eb2ffa9133b1fdd5b9666af07e239dba820b87df4a4c92b56bf46",
        "expand": "54b211e9a3e6f31b754a62f0f04ddc709f07e2cd122ef7bd2ff450c682e4762f",
        "dual": "906ff122481d705168ad311e77e048332b72dd7abf2bbe871d13d9cbff3d8bb2",
    },
    (2, 1, 5): {
        "F": "b9c34b2fec83d6e86d5ca9132f4bebc7e72f5b12f6b4b143f448a1fc87472ad9",
        "G": "2fef91020a3df41dbe04ac006b6d7a123429ce2dc3ca65d610ab941db2a0e936",
        "restrict": "176feaea78c40036e94a5ce9db5427ae7b4f0947bfce9fc4be477f9836288f10",
        "push": "57ded68e4016c5804512e1915630a4b9f3db8475e3ad7f19a77581cfe1203a22",
        "expand": "4d901cc0237bc1edc313c8b519f47617363ccb2d26f238c282534dfd847c3778",
        "dual": "0d9c82af8292be7720a0158a4b2f6b8df4807143234d2385b5686e27304338c5",
    },
    (2, 2, 3): {
        "F": "8ad37f7c7e168faa70da21a139dc55cdf18e96a50fe2e4a7ce736db436c67f35",
        "G": "e91cac2c9a8f78e16e24b34cce56afa3fa09b7250f070c3449193cb1b818ec0f",
        "restrict": "e4540c3661eb78e8d381dd658902ad29aa85ef85d306e8182a2430d9207d46e6",
        "push": "c4054ac988cde52c453417237dbf7dfed6ef67cf70f0815fed242b3dd3624d23",
        "expand": "066f80ec46dc1cdde79c078410fb281b8af594c6220d2b50b86a4c234eb8bd5e",
        "dual": "e91f785ae9f477eada42c4401ab653fad538a84459b795cd71878f9f5c1e3538",
    },
    (3, 1, 3): {
        "F": "cba87e17e831b7df921b7a743c64fbe101d5c29938991b33935de8097e46838b",
        "G": "47fa84790bbd17b92d310edbad481e3f0a41faae4186bfc879c727dd5e7b1d55",
        "restrict": "3ae1ef56cf890bb576671e44452b5ad2af82fd20f5ddaebac5d559c29fa2a44e",
        "push": "4b852dbe2a91bdb51e2e62091eae9324b7149fa711c37ffa52a1af4847129e39",
        "expand": "97ff4229792699172cb2cc4dd937ce76434864344b8fe561bf1a93a314dabd0b",
        "dual": "3821414fb5fe7a6ed9c31b8ec0963df37b3cfbad2e5da14cc87941b4be89fb3d",
    },
}


@pytest.mark.parametrize("e,f,p", sorted(DIGESTS))
def test_presentation_digests(e, f, p):
    hashes = {}
    for name, text in _outputs(e, f, p):
        hashes.setdefault(name, hashlib.sha256()).update(text.encode() + b"\n")
    got = {name: h.hexdigest() for name, h in hashes.items()}
    assert got == DIGESTS[(e, f, p)]


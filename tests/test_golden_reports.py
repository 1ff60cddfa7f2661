"""Golden reports: the sha256 of the --report bytes of cohomology, hf and
barcode, recorded before the linear algebra behind them went sparse, of
check-ainf, recorded before the relation scan was compiled into insertion
plans and the monoid enumeration was kept, and of the isotopy commands,
recorded before the pseudoisotopy sums moved onto the same insertion plans,
and of torus-suite, check-unit, check-subalgebra, check-commuting, mc-defect
and box-product, recorded before the torus calculus and the relation scan
moved onto integers and K was kept per basis pair, more check-commuting
and check-subalgebra reports, recorded before those scans became lookups into
the stored tables, and of check-kunneth and check-hf-kunneth, recorded before
the rank and kernel over Q became one echelon elimination, and of
check-kunneth, cohomology, hf and barcode on larger generated models,
recorded before every matrix became sparse rows, where it is made and
wherever it is read.

Report determinism (criterion 10) compares two runs of the same code; these
digests pin the bytes across code changes, so a different choice of
cohomology representatives, bars or dimensions fails here.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ainfkit import models
from ainfkit.ainf import AInfAlgebra
from ainfkit.cli import main
from ainfkit.scalars import BETA_ZERO, EnergyMonoid
from ainfkit.specio import FORMAT

GOLDEN = {
    ("cohomology", "derham_t1"):
        "a83503f744fa30ea6a5f49e1459598b0f96eb7c9b2e2212d3d087ee3c7e986ba",
    ("cohomology", "derham_t2"):
        "bad3080e1a5dba02c649ecee1c943af84229cd12a09e31de1b2e59ac39920578",
    ("cohomology", "kunneth_derham"):
        "bad3080e1a5dba02c649ecee1c943af84229cd12a09e31de1b2e59ac39920578",
    ("cohomology", "kunneth_minimal"):
        "bad3080e1a5dba02c649ecee1c943af84229cd12a09e31de1b2e59ac39920578",
    ("cohomology", "gapped_product"):
        "88d2fccf0c97345fcaf6837bbca643a681e48d966a36e2c0d465f54bf1733453",
    ("cohomology", "barcode_simple"):
        "23b91599bc2befcb23944a2bc9b48b7d00437bb96bc64cce4ec561cb0ebbcf87",
    ("cohomology", "derham_1_4"):
        "de95d5a3e891627ae7cf57f73997ca24c92e70489cc894bc37d7b3fb33d91bc1",
    ("cohomology", "two_factor_A"):
        "e434da52cb39d8a2393bca4fa121bb1419e2fbbd8fb5d887ab341f0c1d0305db",
    ("cohomology", "two_factor_B"):
        "e434da52cb39d8a2393bca4fa121bb1419e2fbbd8fb5d887ab341f0c1d0305db",
    ("barcode", "barcode_simple"):
        "83cce5cc441ad22de9dca4d9987c05e35ccf0d7a748a1a2ebc556577cb602565",
    ("barcode", "derham_1_4"):
        "d3cfcbd12c1d286dc4a43ac9bac51bd2076e9de5e2a7a9c3ba95594a4e0f2a5a",
    ("barcode", "two_factor_A"):
        "bf0265e26f8128753e1d14b22ce36e0a3ad93a1a89a44cf05f590b3c226bc3e0",
    ("barcode", "two_factor_B"):
        "ed2d74f38ad571440c0ce19111d4390ddcc1b97b189503a6e998d0da296afa77",
    ("barcode", "gapped_product"):
        "ed2d74f38ad571440c0ce19111d4390ddcc1b97b189503a6e998d0da296afa77",
    ("hf", "barcode_simple"):
        "7f13f39e67ae9efb629a70ac52b2101fa70f3bbb1ace64d1c290d53c8345e7d7",
    ("hf", "derham_1_4"):
        "1f07c903788ecb8343dabc2bd4be17d9c289c1042e13373c118eb1e9d636dc42",
    ("hf", "two_factor_A"):
        "7f13f39e67ae9efb629a70ac52b2101fa70f3bbb1ace64d1c290d53c8345e7d7",
    ("hf", "two_factor_B"):
        "7f13f39e67ae9efb629a70ac52b2101fa70f3bbb1ace64d1c290d53c8345e7d7",
    ("hf", "gapped_product"):
        "7f13f39e67ae9efb629a70ac52b2101fa70f3bbb1ace64d1c290d53c8345e7d7",
}

# check-ainf: (document, extra arguments) -> (exit code, report digest). The
# flips are the six evenly spaced constant ids the benchmark flips.
CHECK_AINF = {
    ("barcode_simple", ()):
        (0, "da4c9a5886f59664f24ccbe8038538a931cb5f2f959ebb1c1bb827e75eba22cd"),
    ("commuting_isotopy", ()):
        (0, "3d47e187f83e3050e5162dbc97563d571c6ad23e31fd164682245e55b0b04df7"),
    ("derham_t1", ()):
        (0, "f33dd68d5703bbb4f88163a0453493b2e1fc083d46b351a90cdac659c34073d7"),
    ("derham_t2", ()):
        (0, "f33dd68d5703bbb4f88163a0453493b2e1fc083d46b351a90cdac659c34073d7"),
    ("gapped_product", ()):
        (0, "52444cdc8d098b8bedadb8346dfe91465137be3de569651fcd49f283a7bba9c4"),
    ("isotopy_chain", ()):
        (0, "5e1055a5464ca9865a396ea2685d5711c99f20769835cd0e7515654ba86a8636"),
    ("isotopy_extend", ()):
        (0, "5e1055a5464ca9865a396ea2685d5711c99f20769835cd0e7515654ba86a8636"),
    ("kunneth_derham", ()):
        (0, "f33dd68d5703bbb4f88163a0453493b2e1fc083d46b351a90cdac659c34073d7"),
    ("kunneth_minimal", ()):
        (0, "f33dd68d5703bbb4f88163a0453493b2e1fc083d46b351a90cdac659c34073d7"),
    ("curved_line_1_4", ()):
        (0, "ad2768f68df0302290836934f711abf22415676dd144ecdaf6b4865474162280"),
    ("curved_line_3_8", ()):
        (0, "c751e2ac0ef85d398d501c0439e53479e999f8f8684ab3344601308429c62aea"),
    ("curved_line_1_2", ()):
        (0, "f49b5f688f0d858f8c7961a9983972939df9a77bd8d01e59a13c9378847e6991"),
    ("gapped_product", ("--cutoff", "2")):
        (0, "52444cdc8d098b8bedadb8346dfe91465137be3de569651fcd49f283a7bba9c4"),
    ("gapped_product", ("--cutoff", "4")):
        (0, "9cd558e1b25f0fa12288d134b602ed299e36a80c5289cea265f08a55e835dbd7"),
    ("gapped_product", ("--cutoff", "6")):
        (0, "7caaf661088f1ba9dce9e3408b2113e8c50639440a19ae22636b281ca4051b0e"),
    ("gapped_product", ("--cutoff", "8")):
        (0, "1548a5d940b1fa12118868fb1e8ea4201a41becd7dbd70ef13addeefd86a0e60"),
    ("derham_t2", ("--mutate", "flip:m2:0/0:f-1_-1;d2,f-1_2;d1->f-2_1;d12")):
        (1, "899609fff37278349ff5809e8bccc0d8c20ca8e4e9d60b4497b2b04647595223"),
    ("derham_t2", ("--mutate", "flip:m2:0/0:f-1_1;d2,f2_0;d->f1_1;d2")):
        (1, "cb2a61183d2a852c033768ad23593e3634d6fda77216e2362d44b9b651a29280"),
    ("derham_t2", ("--mutate", "flip:m2:0/0:f0_-1;d1,f1_0;d2->f1_-1;d12")):
        (1, "6dbaeb2dcfb9dcb95cb03428b9e63843fec8395552f4e8249b6b63f50e299438"),
    ("derham_t2", ("--mutate", "flip:m2:0/0:f0_1;d,f0_1;d12->f0_2;d12")):
        (1, "519a03ced5123bf1d73e7b48c4b0d056ee35932077f3be2bd294de39e995b7aa"),
    ("derham_t2", ("--mutate", "flip:m2:0/0:f1_0;d,f-1_1;d1->f0_1;d1")):
        (1, "01987ca07fe588c027f0766856f5ad4578bae8ef2b08e3a46b190abef287bc8c"),
    ("derham_t2", ("--mutate", "flip:m2:0/0:f2_-1;d1,f0_1;d->f2_0;d1")):
        (1, "64dad1ac48c2520cda04a7815c3388e951cb3ebbcdc7da2d1699d8dd3903f406"),
    ("kunneth_derham", ("--mutate", "flip:m2:0/0:f-1_-1;d2,f-1_2;d1->f-2_1;d12")):
        (1, "899609fff37278349ff5809e8bccc0d8c20ca8e4e9d60b4497b2b04647595223"),
    ("kunneth_derham", ("--mutate", "flip:m2:0/0:f-1_1;d2,f2_0;d->f1_1;d2")):
        (1, "cb2a61183d2a852c033768ad23593e3634d6fda77216e2362d44b9b651a29280"),
    ("kunneth_derham", ("--mutate", "flip:m2:0/0:f0_-1;d1,f1_0;d2->f1_-1;d12")):
        (1, "6dbaeb2dcfb9dcb95cb03428b9e63843fec8395552f4e8249b6b63f50e299438"),
    ("kunneth_derham", ("--mutate", "flip:m2:0/0:f0_1;d,f0_1;d12->f0_2;d12")):
        (1, "519a03ced5123bf1d73e7b48c4b0d056ee35932077f3be2bd294de39e995b7aa"),
    ("kunneth_derham", ("--mutate", "flip:m2:0/0:f1_0;d,f-1_1;d1->f0_1;d1")):
        (1, "01987ca07fe588c027f0766856f5ad4578bae8ef2b08e3a46b190abef287bc8c"),
    ("kunneth_derham", ("--mutate", "flip:m2:0/0:f2_-1;d1,f0_1;d->f2_0;d1")):
        (1, "64dad1ac48c2520cda04a7815c3388e951cb3ebbcdc7da2d1699d8dd3903f406"),
}


# Isotopy commands: (command, document, extra arguments) -> (exit code, report
# digest). The flips reach the ainf-family, differential-equation, endpoint,
# restriction and k-insertion clauses.
ISOTOPY = {
    ("check-isotopy", "isotopy_extend", ()):
        (0, "082f6b9c7c0e01cd550c8b30106e2ef913a22bf44146c496a31d17d8a9d2b7f8"),
    ("check-isotopy", "commuting_isotopy", ()):
        (0, "082f6b9c7c0e01cd550c8b30106e2ef913a22bf44146c496a31d17d8a9d2b7f8"),
    ("extend", "isotopy_extend", ()):
        (0, "96febc07acee66279ec33be3653ff781b675e959c3676db13e5673277c4dd3e2"),
    ("extend", "isotopy_chain", ()):
        (0, "5408785724fe988ce984efe79f9369ac4751f661c0c478138648d88cb147b25d"),
    ("check-commuting-isotopy", "commuting_isotopy", ()):
        (0, "e39d706a9d1306802fc9d4c4abe34163d819b3e9b381d957da450dc411c80c9d"),
    ("check-isotopy", "isotopy_extend", ("--mutate", "flip:im0:1/0:->z")):
        (1, "3aca76ae387dd263c89a124bdb0e0a5a23206d730777df97f0bcca0cd2dc585d"),
    ("check-isotopy", "isotopy_extend", ("--mutate", "flip:im2:0/0:e,x->x")):
        (1, "51fbb32e4ec6ebd250b3bccd439da79a9b0d32470f486c3557caefb404f97a32"),
    ("check-isotopy", "isotopy_extend", ("--mutate", "flip:im2:1/0:x,x->z")):
        (1, "a2d21db3a242fd94982355ccf9612006cbec8966fef70ac26cf96c4812fdbcc4"),
    ("check-isotopy", "isotopy_extend", ("--mutate", "flip:ic0:1/0:->x")):
        (1, "839e02fce0d4a80a7905f885852a70e445a3359fa3bc84a3531b79016c01fd13"),
    ("extend", "isotopy_extend", ("--mutate", "flip:ic0:1/0:->x")):
        (1, "7c1bf26b88e13c550705fa22a84098b3c6e0d2489e761a9db13ef53410acd686"),
    ("check-isotopy", "commuting_isotopy",
     ("--mutate", "flip:im1:0/0:xA|eB->zA|eB")):
        (1, "bacbe3df4137d2477c0c03cea9ef47687aa6c3ebd9497441acf1e09535d436ed"),
    ("check-isotopy", "commuting_isotopy",
     ("--mutate", "flip:im2:0/0:eA|xB,xA|eB->xA|xB")):
        (1, "60440f2970074f8f0a92e1b9c5299b52cf7da99d227b9aab98e4d52c45b898e8"),
    ("check-isotopy", "commuting_isotopy",
     ("--mutate", "flip:ic0:1/0:->xA|eB")):
        (1, "7ce90032a58afd5a3e7c70921be4b912a4c41fd9579345a040684b0a63ec5a40"),
    ("check-commuting-isotopy", "commuting_isotopy",
     ("--mutate", "flip:im0:1/2/2:->eA|eB")):
        (1, "c96ec90922c2996290e31dd02f873c0f8b4690e3d5210b9aae30dd9fc742135d"),
    ("check-commuting-isotopy", "commuting_isotopy",
     ("--mutate", "flip:im1:0/0:eA|xB->eA|zB")):
        (1, "d4c8da413bbaa39a1fa0c9ebafe9def00d7e7f8e1a86ca1bb126937ad1c66902"),
    ("check-commuting-isotopy", "commuting_isotopy",
     ("--mutate", "flip:im2:0/0:eA|xB,xA|eB->xA|xB")):
        (1, "6428dbae597b65ec36eee25e90580b6355c9788edf8040daf5278f3ea07278d4"),
    ("check-commuting-isotopy", "commuting_isotopy",
     ("--mutate", "flip:ic0:1/0:->xA|eB")):
        (1, "9956bcb1bd7c825281a2d0ca3e611c31e8e0a7ac9bb0dfe6433e531fcdcde03b"),
}


# The remaining commands: (command, document or None, extra arguments) ->
# (exit code, report digest). torus-suite reads no document. The flips reach
# the anticommutator and K-insertion clauses of check-commuting and the
# restriction clause of check-subalgebra.
COMMANDS = {
    ("torus-suite", None, ("--seed", "1", "--trials", "200")):
        (0, "51fb3bdd1fdf3abd6d40d1922092e6232073b7c257fe393ba8d5d2ba6abb2e4d"),
    ("torus-suite", None, ("--seed", "2", "--trials", "200")):
        (0, "fda84bac99685bc27c82a7a841ec8e6d400bc396e86bc2df841deebb048c75d2"),
    ("torus-suite", None, ("--seed", "3", "--trials", "200")):
        (0, "5df671ab6ec25da35b46b74fdc43d89ee16f01cc1213436bfb1d841b635a79de"),
    ("torus-suite", None, ("--seed", "0", "--trials", "1")):
        (0, "5af853bb3e6c0a6fd93319275f5d1218ffc6b4a00bfaec5d108fb1519d88be63"),
    ("check-unit", "derham_t2", ()):
        (0, "f901b67bf130bf16ef9944502ef070335cfa9400403a8376f4165ee475fb6464"),
    ("check-unit", "curved_line_1_2", ()):
        (0, "f901b67bf130bf16ef9944502ef070335cfa9400403a8376f4165ee475fb6464"),
    ("check-subalgebra", "kunneth_derham", ("--embedding", "A")):
        (0, "b8775021dd172e515da408d62b2868a6592b0043a3d0bb2fa92012871ea600f1"),
    ("check-subalgebra", "kunneth_derham", ("--embedding", "B")):
        (0, "b8775021dd172e515da408d62b2868a6592b0043a3d0bb2fa92012871ea600f1"),
    ("check-subalgebra", "kunneth_derham",
     ("--mutate", "flip:m2:0/0:f1_0;d,f1_0;d->f2_0;d")):
        (1, "d951c49c26e0b53501f851fc180229c3fdab248bf48048c51680cc890ea6a333"),
    ("check-commuting", "kunneth_derham", ()):
        (0, "6f876cd2bbb3c53d70f576c9e10a6e58ccbabd81a04fb4bcb3ac5d3701565e70"),
    ("check-commuting", "kunneth_minimal", ()):
        (0, "6f876cd2bbb3c53d70f576c9e10a6e58ccbabd81a04fb4bcb3ac5d3701565e70"),
    ("check-commuting", "kunneth_derham",
     ("--mutate", "flip:m2:0/0:f1_0;d,f0_1;d->f1_1;d")):
        (1, "1801dbbb7e190614e86199ac4bb0ec7638d58ddac617b6706e886706e9ed2c9c"),
    ("check-commuting", "kunneth_derham",
     ("--mutate", "flip:m1:0/0:f1_0;d->f1_0;d1")):
        (1, "db62853bab48b2b203e00701d393658fc67c447b37e44cdf1b83a9fae530869a"),
    ("mc-defect", "gapped_product", ("--cutoff", "2")):
        (0, "f2f1308b42466f6a5705947a28ebb39d85de1455c746df26c41c856730cfb8e6"),
    ("mc-defect", "gapped_product", ("--cutoff", "4")):
        (0, "f2f1308b42466f6a5705947a28ebb39d85de1455c746df26c41c856730cfb8e6"),
    ("mc-defect", "gapped_product", ("--cutoff", "6")):
        (0, "f2f1308b42466f6a5705947a28ebb39d85de1455c746df26c41c856730cfb8e6"),
    ("mc-defect", "gapped_product", ("--cutoff", "8")):
        (0, "f2f1308b42466f6a5705947a28ebb39d85de1455c746df26c41c856730cfb8e6"),
    ("box-product", "gapped_product", ()):
        (0, "b7ac27762764ac135af8e8f7fb6d09287d7c93bd0d56ee8ab17343ab62a22296"),
    # Recorded at c9f57b7, before check-commuting and check-subalgebra moved
    # onto table lookups: flips that reach every clause (c-insertion from an
    # all-A and an all-B plain tuple), nonzero beta (gapped_product), and a
    # document whose violation lists reach both caps (stray_product).
    ("check-commuting", "gapped_product", ()):
        (0, "6f876cd2bbb3c53d70f576c9e10a6e58ccbabd81a04fb4bcb3ac5d3701565e70"),
    ("check-commuting", "gapped_product", ("--mutate", "flip:m0:1/0:->zA|eB")):
        (1, "756c7dc0e05bfa175d7be2a093cca4040f58a643d0cf21c7194c813afc8146ea"),
    ("check-commuting", "gapped_product",
     ("--mutate", "flip:m2:0/0:xA|eB,eA|xB->xA|xB")):
        (1, "4f78e567a960825203a46bedaec92b88661b29f06b1015babe13fa7398a44fbb"),
    ("check-commuting", "kunneth_derham",
     ("--mutate", "flip:m2:0/0:f-1_-1;d,f-1_0;d->f-2_-1;d")):
        (1, "b4b613dfeafe6d90634849cadb51759599d157f072f14d7aeb909e3de3900f98"),
    ("check-commuting", "kunneth_derham",
     ("--mutate", "flip:m2:0/0:f-1_-1;d,f0_-1;d->f-1_-2;d")):
        (1, "302005090717f0bc9473acfe56e5ba1d8ade0dd7f8a156b83c90b0afc58fd050"),
    ("check-commuting", "kunneth_derham",
     ("--mutate", "flip:m2:0/0:f0_0;d,f0_0;d->f0_0;d")):
        (1, "699e35409502f5df05d0df2098869153e004ecd4d20afad088eab8aec262ed9b"),
    ("check-commuting", "kunneth_minimal",
     ("--mutate", "flip:m2:0/0:f0_0;d1,f0_0;d2->f0_0;d12")):
        (1, "8e14debd0900442d0fd737e54da32f2047d87725fead25667271b92e5b0c4aaf"),
    ("check-commuting", "stray_product", ()):
        (1, "51a17d70d1b6a71f5e22912de81865fc673251e4d2527fd5060bf2cfc3d05da7"),
    ("check-commuting", "stray_product",
     ("--mutate", "flip:m2:1/2/0:xA|eB,eA|xB->xA|xB")):
        (1, "f7867a5fa4e9128036556555025c1fb22d697fecb021e22ae5632011001d10d9"),
    ("check-subalgebra", "gapped_product", ("--embedding", "A")):
        (0, "b8775021dd172e515da408d62b2868a6592b0043a3d0bb2fa92012871ea600f1"),
    ("check-subalgebra", "gapped_product",
     ("--embedding", "B", "--mutate", "flip:m1:0/0:eA|xB->eA|zB")):
        (1, "1711ab6126e0ff406ac959feb7f96a57a594e128ac737a5dc5fb03c3da9b7c45"),
    ("check-subalgebra", "kunneth_derham",
     ("--embedding", "B", "--mutate", "flip:m1:0/0:f0_-1;d->f0_-1;d2")):
        (1, "c989765ac88204512ce2bd17a57e46a69b589891b7b8441c7271707111471460"),
    ("check-subalgebra", "stray_product", ("--embedding", "A")):
        (1, "31b9e421df16a419bd09c1a043968116e09bb3a17a5206a7da6c59c791376da1"),
    ("check-subalgebra", "stray_product", ("--embedding", "B")):
        (1, "56c2aa546d9d55739f7f95403e2db56e48b412af056dbe6b8ea6c8c52fdc2088"),
    # Recorded at 7cdb11e, before the rank and kernel over Q moved onto one
    # echelon elimination and m^b_1 onto deformed_eval.
    ("check-kunneth", "kunneth_derham", ()):
        (0, "9f9bf30dc453e9dff52f267f78cdd8a96d7ada9cd5a76735e3af36098cd9ccf2"),
    ("check-kunneth", "kunneth_minimal", ()):
        (0, "ec2710032c0678916d3368514da2b17f8cfe34f5e4efeeb875a5fdff25c82fd9"),
    ("check-kunneth", "kunneth_derham",
     ("--mutate", "flip:m2:0/0:f1_0;d,f0_1;d->f1_1;d")):
        (1, "e90ba7e24d3d543c18aa20f25b842057d166702cef96ac4c1de95593f79980b2"),
    ("check-hf-kunneth", "gapped_product", ()):
        (0, "75c090e567b2ed5a4ccd65f417c3d5a27b8aab57670f54daa48a3189d5cd15bf"),
    # Recorded at 1365be8, before every matrix became {row: {col: entry}}:
    # the 260-pair scope of derham_factor_embeddings(1, 1, 2) and the
    # 100-name torus derham_model(2, 1).
    ("check-kunneth", "kunneth_derham_1_1_2", ()):
        (0, "ddc0af38419e927929750d5ae03ffd4653d7facc2fe7ce1aa784235c0391992c"),
    ("cohomology", "derham_2_1", ()):
        (0, "bad3080e1a5dba02c649ecee1c943af84229cd12a09e31de1b2e59ac39920578"),
    ("hf", "derham_2_1", ()):
        (0, "d6c18bdd1c5c2ffa786f449c9122bcf589ec1fa08d1bf8927cf0f1b57316620e"),
    ("barcode", "derham_2_1", ()):
        (0, "814f8625b9ebc9dfe1d64980be7cb6e9805d37901d12839becf07ede01a3159a"),
}


def curved_line(cutoff):
    """Curvature 3z at (1/20, 0) and -5e at (1/20, 2) over the monoid
    generated by (1/20, 0), (1/19, 0), (1/20, 2), modulo T^cutoff."""
    basis = [("e", 0), ("x", 1), ("z", 2)]
    monoid = EnergyMonoid([(Fraction(1, 20), 0), (Fraction(1, 19), 0),
                           (Fraction(1, 20), 2)])
    units = {("e", nm): {nm: 1} for nm, _ in basis}
    units.update({("x", "e"): {"x": -1}, ("z", "e"): {"z": 1}})
    ops = {(2, BETA_ZERO): units,
           (1, BETA_ZERO): {("x",): {"z": 1}},
           (0, (Fraction(1, 20), 0)): {(): {"z": 3}},
           (0, (Fraction(1, 20), 2)): {(): {"e": -5}}}
    return AInfAlgebra(basis, monoid, "modulo", cutoff, "e", ops)


def stray_product():
    """gapped_product's target plus copies of its m_{1,0} and m_{2,0} tables
    at the energies (1/2, 0), (1, 0) and (3/2, 0): mixed and pure tuples that
    must vanish do not, and the violation lists reach both caps of
    check-commuting."""
    two = models.two_factor_gapped()
    c = two["C"]
    ops = dict(c.ops)
    for energy in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        for k in (1, 2):
            ops[(k, (energy, 0))] = c.ops[(k, BETA_ZERO)]
    target = AInfAlgebra(c.basis, c.monoid, c.mode, c.cutoff, c.unit, ops,
                         c.window)
    return {"format": FORMAT, "algebra": target.to_json(),
            "embeddings": {side: two[f"emb{side}"].to_json() for side in "AB"}}


def write_documents(root):
    """The generated documents the digests are taken on: {name: path}."""
    two = models.two_factor_gapped()
    generated = {
        "derham_1_4": (models.derham_model(1, 4), {}),
        "derham_2_1": (models.derham_model(2, 1), {}),
        "two_factor_A": (two["A"], two["b1"].to_json()),
        "two_factor_B": (two["B"], two["b2"].to_json()),
    }
    paths = {}
    for name, (alg, b) in generated.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps({"format": FORMAT, "algebra": alg.to_json(),
                                    "bounding": {"b": b}}))
        paths[name] = str(path)
    for cutoff in ("1/4", "3/8", "1/2"):
        path = root / f"curved_line_{cutoff.replace('/', '_')}.json"
        path.write_text(json.dumps({
            "format": FORMAT,
            "algebra": curved_line(Fraction(cutoff)).to_json()}))
        paths[path.stem] = str(path)
    path = root / "stray_product.json"
    path.write_text(json.dumps(stray_product()))
    paths[path.stem] = str(path)
    emb_a, emb_b = models.derham_factor_embeddings(1, 1, 2)
    path = root / "kunneth_derham_1_1_2.json"
    path.write_text(json.dumps({
        "format": FORMAT, "algebra": emb_a.target.to_json(),
        "embeddings": {"A": emb_a.to_json(), "B": emb_b.to_json()}}))
    paths[path.stem] = str(path)
    return paths


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    return write_documents(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_report_bytes_match_golden(command, name, documents, fixture_path,
                                   tmp_path, capsys):
    spec = documents.get(name) or fixture_path(f"{name}.json")
    dest = tmp_path / "report.json"
    assert main([command, spec, "--report", str(dest)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(dest.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, name)]


@pytest.mark.parametrize("name,extra", sorted(CHECK_AINF))
def test_check_ainf_report_bytes_match_golden(name, extra, documents,
                                              fixture_path, tmp_path, capsys):
    spec = documents.get(name) or fixture_path(f"{name}.json")
    dest = tmp_path / "report.json"
    code = main(["check-ainf", spec, *extra, "--report", str(dest)])
    capsys.readouterr()
    digest = hashlib.sha256(dest.read_bytes()).hexdigest()
    assert (code, digest) == CHECK_AINF[(name, extra)]


@pytest.mark.parametrize("command,name,extra", sorted(ISOTOPY))
def test_isotopy_report_bytes_match_golden(command, name, extra, fixture_path,
                                           tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main([command, fixture_path(f"{name}.json"), *extra,
                 "--report", str(dest)])
    capsys.readouterr()
    digest = hashlib.sha256(dest.read_bytes()).hexdigest()
    assert (code, digest) == ISOTOPY[(command, name, extra)]


@pytest.mark.parametrize("command,name,extra", sorted(
    COMMANDS, key=lambda key: (key[0], key[1] or "", key[2])))
def test_command_report_bytes_match_golden(command, name, extra, documents,
                                           fixture_path, tmp_path, capsys):
    dest = tmp_path / "report.json"
    argv = [command, *extra]
    if name is not None:
        argv.insert(1, documents.get(name) or fixture_path(f"{name}.json"))
    code = main([*argv, "--report", str(dest)])
    capsys.readouterr()
    digest = hashlib.sha256(dest.read_bytes()).hexdigest()
    assert (code, digest) == COMMANDS[(command, name, extra)]

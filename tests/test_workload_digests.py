"""Pinned SHA-256 digests of every registered workload's trace.

The digests were computed with a node-by-node interpreter that drew each
outcome straight from ``numpy.random.Generator`` and stopped at exactly
the requested length.  The generator that replaced it is each program
compiled into one Python function: it draws from
:class:`repro.utils.rng.PrefetchedDraws` and cuts an overshooting run to
length, and must give the same bytes, since every report digest
downstream depends on them.  The 160,000-branch entries are the traces
``ablation-trace-length`` synthesizes on every cold run; they were
pinned with the interpreter too.
"""

import hashlib

import pytest

from repro.workloads.ibs import benchmark_names, benchmark_program
from repro.workloads.spec_like import spec_benchmark_names
from repro.workloads.spec_like import _program as spec_program

#: (benchmark, seed, length) -> (sha256 of pcs bytes, sha256 of outcomes bytes)
DIGESTS = {
    ("gcc", 0, 1): (
        "8540d5c72a43c50aaaaf2a40dc9ecdc175b3502e5c133f09fc1b99075b9ac4d2",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("gcc", 0, 999): (
        "5e97b33efa733ff5c34400f445f2b3ea7531f46ee6371f6e452827a7e22724fd",
        "b2038fc70fa5bec6239ff274fd670f35f373d8ec014af133186b96c23a4e3050",
    ),
    ("gcc", 0, 16384): (
        "7cac22e1ce11fe621a12d9e95bcdbd24d9f079cf038fee2164d482fb5efe98c3",
        "4ac0ee632dcadde3bbcf00a678b3f93eb0fd1c9ea0c3e1a896b22595b9e3ea52",
    ),
    ("gcc", 0, 160000): (
        "3fef9989522a09d8f4e0ad04bb76d61efc266e9602e1c7d79b1889f8698368ae",
        "8bb51ebbe567c94e64489f1f4db2c1b2cfe9bde0220f8443b454c56aca69fb7d",
    ),
    ("gcc", 1306, 1): (
        "8540d5c72a43c50aaaaf2a40dc9ecdc175b3502e5c133f09fc1b99075b9ac4d2",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("gcc", 1306, 999): (
        "5e97b33efa733ff5c34400f445f2b3ea7531f46ee6371f6e452827a7e22724fd",
        "a8fb0b4365a834219ac0bcf40509a7cbe329d62c54b085e8abd5c779145245a4",
    ),
    ("gcc", 1306, 16384): (
        "79b66f1b68c52c542d9aa70180936bfbf09b940578427b8afc309634bdc8d662",
        "56e206cf4d6703b83aec5dcb48300f9e27e6357b3a2e39fab5c9962d89d35d35",
    ),
    ("gs", 0, 1): (
        "dc98da4909c4e529f784137046771fab0df5459bad2f78c7490466f29998d2b3",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("gs", 0, 999): (
        "f1b47ac6669af937531d2a26a5346f9721f00effea96d6965b464c4c0812bf35",
        "66f11ac42e4769f27738e0c8f0b6b15f4e077af2cafaa630417116192c5fff24",
    ),
    ("gs", 0, 16384): (
        "747db6b36eed86ae1f2ff55821d4c89215491f460ea231483088facf7a2febb6",
        "581277405c5faffa278fac11a8c88c8ef16c59300ae0d7f750cf19ded465f1bb",
    ),
    ("gs", 1306, 1): (
        "dc98da4909c4e529f784137046771fab0df5459bad2f78c7490466f29998d2b3",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("gs", 1306, 999): (
        "cda8c787693b8c4b583bf42844417d70e0de4aebdbfd95c45aa82deff003e20d",
        "a4262ffc594d81d5939a0dfc5cd9e86b266b4012a0d88be0c0450c845d9f683c",
    ),
    ("gs", 1306, 16384): (
        "2d4b260d566600c00247753ca3339576cd402783bb646207e1fec1dec565e3fc",
        "727054627552030d749f04107fb1a86dc1fd60f3637042a9b6fa66f04912f7fa",
    ),
    ("jpeg_play", 0, 1): (
        "9c69dd560d27a47fa41611d4a6b13e2bf2472b957d34353462271f6b5d05b768",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ),
    ("jpeg_play", 0, 999): (
        "8a582b35a9190a8a37e9732c78ea66a9228b1f0771f817237f0f54c81a7e7a66",
        "5ffb84accf9cf92e51ca9d6f72a893e98f9d228eb47e7ec292e85b16b709740c",
    ),
    ("jpeg_play", 0, 16384): (
        "88ce6ea81c411871bd32651c533662290a948bc83a891e24c15bd8637bc3cab5",
        "76e8f48212716726c24cd1d104483d8b507250d92f52c3ef48b258033ba28192",
    ),
    ("jpeg_play", 0, 160000): (
        "98d48af12848dde8fdb25debd5cd54653c5c2ba7b98634cf6ad02f1770f1ac16",
        "ee44cb1374453a43a5e8314f375763661629062be9e852a68ed3009e25516115",
    ),
    ("jpeg_play", 1306, 1): (
        "9c69dd560d27a47fa41611d4a6b13e2bf2472b957d34353462271f6b5d05b768",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("jpeg_play", 1306, 999): (
        "ee76ddbee49f0c347048a9e4a7dbf856a001a224eb3e754f1e648e7fde9af18f",
        "185f76f5ff331067cd5d4b6fe62d60efa6fb9bb767d53bfb4be7fc6625803446",
    ),
    ("jpeg_play", 1306, 16384): (
        "e20fd8d22cf69e74172fc94ef3623c074f9add72b644ce5836001e21754d6289",
        "639645a68a9a6982bfe8be88b3502fc7e9d9b8afc19e39ec1a50cd53a05b3e15",
    ),
    ("mpeg_play", 0, 1): (
        "f789748a397282d77a82893ac39c0672a2bcff0b7b2ab70ee9e46e7ae81e0348",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("mpeg_play", 0, 999): (
        "9c9303aa431cdeb5ad5ecdd18e19cdec392ac72509ee1c2272537fdf8f573d96",
        "4ee61489c97442e102b694b5dc4d5cf4b1902a8d6e0730aaba55b3562038c9ab",
    ),
    ("mpeg_play", 0, 16384): (
        "4592f600af144cdb45552bd997d1190cc6b794fe12abfca014312901f9fd4a89",
        "0863858ce7bd67be5f9c5f1e5d8871f4c55cf34b0bfba6ab28420a117b1cf45f",
    ),
    ("mpeg_play", 0, 160000): (
        "e522fb1328f06bf27708071fa04652c3048a3bbee6b8e4320130c621b3d8e02f",
        "a5722dd314bee27dbf1759c967f6deb896b90c9d7128efc23f2b9af41b82e7f3",
    ),
    ("mpeg_play", 1306, 1): (
        "f789748a397282d77a82893ac39c0672a2bcff0b7b2ab70ee9e46e7ae81e0348",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("mpeg_play", 1306, 999): (
        "9c9303aa431cdeb5ad5ecdd18e19cdec392ac72509ee1c2272537fdf8f573d96",
        "49db55dde03ae86673b92fb5628bbe7e27eb94a896bd126a85544729d5381cec",
    ),
    ("mpeg_play", 1306, 16384): (
        "04e0167a9532e2cbd0e9ffd503751e919416c3a6dcd2ad77a74dcd0628bf8247",
        "ff22e9231dd450c9f8653b46ab349c6b74aad0ff45e179d84a5da2014474baa8",
    ),
    ("nroff", 0, 1): (
        "a031f5f1e00775de2614dbb2a1e5c2ae6e24b943f03c05700d0e10a605a4c5b0",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("nroff", 0, 999): (
        "2d5c692befbda430c24411f2cd35c5526a5d8f04e43a7f42adca528ff592db58",
        "4c97cc50e4b44aedcc3148aea11621930c1630f96966144cd8ba508749391b4e",
    ),
    ("nroff", 0, 16384): (
        "8f8c059d19946bf43278ca92a24557689798d1014a754290b3df39427b7f55aa",
        "389e8b875a7aca374dca4c2d653bf4a8b3d732b0788f589122b478b845bb1897",
    ),
    ("nroff", 0, 160000): (
        "5373bd687a8299006cb10fea64b4fffb362574b821ad2fbd2524cbe22dcf6249",
        "50c49728478f4c480322145cb6451efec38a308613825596852a95b8b6429a95",
    ),
    ("nroff", 1306, 1): (
        "a031f5f1e00775de2614dbb2a1e5c2ae6e24b943f03c05700d0e10a605a4c5b0",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("nroff", 1306, 999): (
        "1a8f2dcbdb2f2325076594705c4ba07e963cabc23aef7dc891bb78de63c202e4",
        "f118051ebf61dc68720761c463ffdd92eabfae6bba56f0e03a28a218b8c67b0b",
    ),
    ("nroff", 1306, 16384): (
        "4af03857e319e1e16931e725a53010600616d093410e9333b97a630818938bbb",
        "fac1643e970595b449ee83a39bcb22b239f10b5cf580edc2f53be5cfd07a82fe",
    ),
    ("sdet", 0, 1): (
        "412514765370dfe6c8d5dcb93e3babc6d86e02832dda2e60b3e179998c6324fd",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("sdet", 0, 999): (
        "9aac1152917002a92d419b0838a5bdb6944ebe66d54765d94783071ae1b6010f",
        "6ac402b82a5093278d9b770ec86fac228baeaff2de2ce579f7acb7de78da7a92",
    ),
    ("sdet", 0, 16384): (
        "8878bd5ebe0d0a7bf6857fa6c765a9735388b6cf12124a607b05f7990a9b7e5f",
        "1b35eb5997d3cd43b6ad5de2f013faa7986f5cc73bd8f3ad60ca0f6f47e79c31",
    ),
    ("sdet", 1306, 1): (
        "412514765370dfe6c8d5dcb93e3babc6d86e02832dda2e60b3e179998c6324fd",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("sdet", 1306, 999): (
        "0aad5b973e0d4b870e6af2a4e614e4b2ce2ace42937151fb54f4e30ad5f21f5f",
        "b662edaf61020d6af99f40d49f2f4178202ef6425d08bfb08fd7b54ed4cc6fbb",
    ),
    ("sdet", 1306, 16384): (
        "af611a3d30239782aa3c44772d7240577d1c51dde18b97216b91a3f62cea60d7",
        "48c717e49f18482270d368635bcd6419d81d56df046197b407ac62559c7ca2e2",
    ),
    ("verilog", 0, 1): (
        "a4a581eef2ff166900fb14a685722149146d5c75adf3018db6c905b4b23e2bdf",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("verilog", 0, 999): (
        "3a7f2f91a9324e92eeb3ae5d41b2bee48a20cf74b1a0ec82865851577832a04e",
        "c88946e7eed53ed04724bab5a71524497585fd03ad964caec3964b73d3aa6d96",
    ),
    ("verilog", 0, 16384): (
        "fe28d4ca3970a704c7b4a33aeb5912811b70afda86542a22987151df0293a493",
        "a5f30cd65cf5456e4f7b150335f12103dae14019478d1b77fa8e1bb6aab85115",
    ),
    ("verilog", 1306, 1): (
        "a4a581eef2ff166900fb14a685722149146d5c75adf3018db6c905b4b23e2bdf",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("verilog", 1306, 999): (
        "a116ae4740892f752e3d640213dfd99cb1a436ebbcca50f7c3b6bacffbf6cd3d",
        "1c66bbd39a04a9ef04176912f43b8b7b128774c332e2e19c7f65f10add4936ce",
    ),
    ("verilog", 1306, 16384): (
        "bcee987c53552cdf7a71e1a608e79f8dda970deff0bc2d9446871823c77d562c",
        "0b839c8de07e29c0f054f39e4c12eaed8b8aa63e36f6acf17c4634120cbf231f",
    ),
    ("video_play", 0, 1): (
        "24ca5b003390542bc7f21d0ad3bf6abe19c41c4d86da11ca4ada9337a2cc97c7",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("video_play", 0, 999): (
        "0f9a34592e912bc02098fde306c87ce9a92fd85fa48068cce28c84eed3870c4c",
        "c97654428b019719ae6cb7ad50be10b9c08da7a6e57949ffe7abb157339a3e38",
    ),
    ("video_play", 0, 16384): (
        "32481be9c8df18cbe5e4c7f4030c2054896579ab24a1027ace91930fa14f8f28",
        "f3e16e386da801f259f61c63b785793c29ef9501725afd326d6096763938be35",
    ),
    ("video_play", 1306, 1): (
        "24ca5b003390542bc7f21d0ad3bf6abe19c41c4d86da11ca4ada9337a2cc97c7",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("video_play", 1306, 999): (
        "0f9a34592e912bc02098fde306c87ce9a92fd85fa48068cce28c84eed3870c4c",
        "84aa30069a477b3e6be0d4e5ca0f5fbbc9a5c16031f463e73d32e141c01831bc",
    ),
    ("video_play", 1306, 16384): (
        "32481be9c8df18cbe5e4c7f4030c2054896579ab24a1027ace91930fa14f8f28",
        "2eee8980ce97f2dada1d2d37ec2186a76634b151273ebfe0737ae51a549a0024",
    ),
    ("compress", 0, 1): (
        "e31713597547ad14d92390f69909e76a4b104d29ccd941a32bcfd43e4cfc9558",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("compress", 0, 999): (
        "e27548a17b5064a3254358d8f7a4d1b5b8e73effe8a7276295e6b3a8211df946",
        "efd79e10e06c22de635d4b23894a674e203690e1ff9076c5db5ad11bc0b7304d",
    ),
    ("compress", 0, 16384): (
        "05e11ab3bc0cb575c0b56886ab03d51f9e63ea2ceab5d3b7a22a0e726aef1f93",
        "f771a90d2b01206e6cbdae72018dd61cca78d8e8d153bf124ebcfaf8f58e54d5",
    ),
    ("compress", 1306, 1): (
        "e31713597547ad14d92390f69909e76a4b104d29ccd941a32bcfd43e4cfc9558",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("compress", 1306, 999): (
        "e27548a17b5064a3254358d8f7a4d1b5b8e73effe8a7276295e6b3a8211df946",
        "b9d959e5287b607b0c0bf17efc98febd5267ac5b96f5e134983b7c9e56b7dc25",
    ),
    ("compress", 1306, 16384): (
        "f4704abc1e963fa963eec9749b9a20281924985f694bbf0e623e0bdec87d46f4",
        "a3e0576d91c9b4cef9a7820cbc608cd8862d2b645955861e6e9382ddd1625895",
    ),
    ("go", 0, 1): (
        "c63044b3f8fb4d622a497e9d19425a1ca466976cf110d40ca975007bb0e3f899",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("go", 0, 999): (
        "e5dd9b3c64e42489be67289980088c2c10dbd7adeddeae0fb7cb2c124e4ccef0",
        "90fbae3241de525dacce52488f57b4be9c0651a0ddb03f8e2c85898fd4e8dfc8",
    ),
    ("go", 0, 16384): (
        "6ecf069da6b4500a34580d4dd3730cdb5bc8033a7a569e392a0ee49f89459142",
        "b4c859f2d51d2a545b84c7b9d2637c00a0bda397b5503add11b697d975d0defd",
    ),
    ("go", 1306, 1): (
        "c63044b3f8fb4d622a497e9d19425a1ca466976cf110d40ca975007bb0e3f899",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("go", 1306, 999): (
        "9e31baec6552a76d17b0c1aaf8a3d5297f7c936f5633a8c9816acba9d9a9408c",
        "32ce565bd6f2531eb2e700ee419e419256e83875467e1d25e2bb8a4707281939",
    ),
    ("go", 1306, 16384): (
        "58cab3b6a5aafd420fb77cd3a00a71de381df98dc9443857050da7902bcc6cf3",
        "b2486fdfff3c04d9041ff0d8bc3cf42040ef5fe4449e782451e2659faf7e21f3",
    ),
    ("li", 0, 1): (
        "0397790ffffbe3e7a3151757a644c0e748440ca57e141bb8b2246d2f5ebae6f4",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("li", 0, 999): (
        "e37d99e0e40f886f971fa77f56ac21ffbcd28bf4dc400712382163aa1bb5be95",
        "99c1bbfd2d20cb43c80afa522f415d1d45f3975683a26325e2ded5828635f983",
    ),
    ("li", 0, 16384): (
        "f9c6a71f98ea86e7c54f0fb76bdea04865b6439b723ba38763889b4e71ef8a01",
        "6277c6d3c28135904169d7a3b8976c8f13f9212d93a024798c13f053cf8e8316",
    ),
    ("li", 1306, 1): (
        "0397790ffffbe3e7a3151757a644c0e748440ca57e141bb8b2246d2f5ebae6f4",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("li", 1306, 999): (
        "e37d99e0e40f886f971fa77f56ac21ffbcd28bf4dc400712382163aa1bb5be95",
        "712a0af47c4e3084214a8b69cd6b6fb5f7c764a86451eadbee4820e9fb70e9db",
    ),
    ("li", 1306, 16384): (
        "f29e547fe67c7caf1c035d17d55bc81b578ad63c5b9d26de53a61c71bd758c40",
        "8ca5eb51e1d5a84d471b2e78ac34e791ee3546f82c77817ce2f7331041e958ff",
    ),
    ("perl", 0, 1): (
        "7da3863f086487acc8a0201b099270599cf0cd68ed339a7404aed35829f08290",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("perl", 0, 999): (
        "c974a31c127e77878934273c236fbded961458881b996f60d3e87287a4fbc29f",
        "73958ca3190360d9f9900e6633c67df019cc5e0f6979afe9f1402b5e635f5ebf",
    ),
    ("perl", 0, 16384): (
        "3ce443812051848355569ec0de7a55edd1b492a7440b9b4edaf82ec63ec5f843",
        "c62a043c6a744a7f7cb89bbb2d0d90a5df2e5abff46f219dabad207aaa2cffd1",
    ),
    ("perl", 1306, 1): (
        "7da3863f086487acc8a0201b099270599cf0cd68ed339a7404aed35829f08290",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    ("perl", 1306, 999): (
        "c974a31c127e77878934273c236fbded961458881b996f60d3e87287a4fbc29f",
        "42ac88e7b7774fd042750ec2acc56bedfe6c9b79131feaf5b815b6a2a48ed2b1",
    ),
    ("perl", 1306, 16384): (
        "be598341a44840c6939773f79c4c75f41f7df652b302030311819a9d61040222",
        "930f1474b8446f4e40be2bb8cfc766e2b1e14d3ff0130da5fc6c3a3dc81af0af",
    ),
}


def _program(name):
    if name in spec_benchmark_names():
        return spec_program(name)
    return benchmark_program(name)


def test_every_registered_workload_is_pinned():
    names = {name for name, _, _ in DIGESTS}
    assert names == set(benchmark_names()) | set(spec_benchmark_names())


@pytest.mark.parametrize("name, seed, length", sorted(DIGESTS))
def test_trace_bytes_match_pinned_digest(name, seed, length):
    trace = _program(name).generate(length, seed)
    assert trace.pcs.dtype.str == "<u8" and trace.outcomes.dtype.str == "|u1"
    digests = (
        hashlib.sha256(trace.pcs.tobytes()).hexdigest(),
        hashlib.sha256(trace.outcomes.tobytes()).hexdigest(),
    )
    assert digests == DIGESTS[name, seed, length]

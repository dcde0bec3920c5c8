"""Golden compressed-payload pins for the codec data plane.

The SHA-256 digests below were generated from the scalar (pre-vectorization)
SZx / ZFP / PIPE-SZx implementations on fixed seeded fields; ZFP's decoded
values are pinned too (``GOLDEN_ZFP_*_DECODED``), so a rewrite of its
dequantise or inverse-transform passes cannot drift unseen.  The width-class
batched data plane must keep the on-wire format **bit-for-bit identical**, so
any change to these digests is a format break, not a refactor.

If a change legitimately revises the payload format (bump the magic when you
do), regenerate with::

    PYTHONPATH=src python - <<'EOF'
    from tests.compression.test_golden_payloads import regenerate
    regenerate()
    EOF
"""

import hashlib

import numpy as np
import pytest

from repro.compression.pipelined import PipelinedSZx
from repro.compression.szx import SZxCompressor
from repro.compression.zfp import ZFPCompressor

FIELD_SEED = 20240711
FIELD_N = 10_000
PIPE_FIELD_N = 30_000


def field(kind: str, n: int, dtype: str, seed: int = FIELD_SEED) -> np.ndarray:
    """Deterministic test fields spanning the codec's block classes."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 8.0 * np.pi, n)
    if kind == "smooth":
        data = np.sin(t) + 0.1 * np.cos(7.0 * t)
    elif kind == "rough":
        data = rng.standard_normal(n)
    elif kind == "mixed":
        data = np.sin(t) + 0.02 * rng.standard_normal(n)
        data[n // 3 : n // 2] = data[n // 3]  # constant stretch
    elif kind == "sparse":
        data = np.zeros(n)
        idx = rng.integers(0, n, size=n // 50)
        data[idx] = rng.standard_normal(idx.size) * 5.0
    else:  # pragma: no cover - guarded by the parametrisation
        raise ValueError(kind)
    return data.astype(dtype)


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


#: (field kind, dtype, error bound) -> sha256(compress_bytes(...))
GOLDEN_SZX = {
    ("smooth", "float32", 0.01): "d1deba84f2972ee4e73d89e35ca3c9240112d64e07fa1cc3bf88989560c05da9",
    ("smooth", "float32", 0.0001): "07ba21d9d9edfdb77c8d2b514f60eb154168dda3443aab850b75bac39ee8f084",
    ("smooth", "float64", 0.01): "25b31740da4e41ec5b7ba42d19b7f02b14424aedc463da0ef9f1731ebb1a7959",
    ("smooth", "float64", 0.0001): "24989989a5839d2c9f7929f7ccaf87c8d25d09779e4ef7e7bc30cca9aefdfda8",
    ("rough", "float32", 0.01): "6b2996e03357df9508a0e99c1765c0fa42aa1b3fb2e85885cd42b310103858c8",
    ("rough", "float32", 0.0001): "b66ace10d4031fd882a625eebf00fdca3cc984cb0855c53d7cd0dcb34c3836a8",
    ("rough", "float64", 0.01): "245deac3c92706f7b343b2141d5e18a3e43e26a1e3e857ae4ed91080aeb95d0a",
    ("rough", "float64", 0.0001): "9d3d4f146c9b1ff288adbf5320aa0c55af97875ff7c35173dd67aa2148e3ada2",
    ("mixed", "float32", 0.01): "ec31837d8a9b414e947e2565a1a46c843a6b43b435047f0f25a3bbda3e16d917",
    ("mixed", "float32", 0.0001): "b6b4db3e143e1b543f075dda388763021e3711403ea50dc57c79cbfe129b2522",
    ("mixed", "float64", 0.01): "8ab240306777c8cad84d4af11edbdb1873a8076ced62964df18ff647e9f05f5a",
    ("mixed", "float64", 0.0001): "44089ca7517c4ca62dea7005e0947cdceb6b9d9a63072cf0a7eeb4012bf59efb",
    ("sparse", "float32", 0.01): "be2e0270ac4e5d01c20a53eb4ea3b983a22d0767bdc18e539d4f6a8e4c0beba0",
    ("sparse", "float32", 0.0001): "f521eaa14a71b1b167330be7ff78f6eb726e15aa033f08fb19497e0bb41c6e0b",
    ("sparse", "float64", 0.01): "00083d155f4bdf3c4dfce65de5830b619758fe5cdf8a118c5ddbb212244df93a",
    ("sparse", "float64", 0.0001): "d986d7f620f0d18e75f1cfe48640641d3e9c730204df191e0bac89c68b5eb0e9",
}

GOLDEN_ZFP_ABS = {
    ("smooth", "float32", 0.01): "26ea7bdd1d103c7ecdc80751b89d837750bb2387036bfaa4e5b8ddfed62ded60",
    ("smooth", "float32", 0.0001): "dae1380236ed887a8728701cdd856202c5f02813e69f31f2c35a7795735a3dee",
    ("smooth", "float64", 0.01): "badb94193bc669743a27fdc5c3a21333a2b8a7d1e46c4ecdad69843262eee1b5",
    ("smooth", "float64", 0.0001): "c470a96497fab319c5fb2ebaaaf4412cf70ffd0fc5dc3417471fe52ba8ee7f71",
    ("rough", "float32", 0.01): "c8dd08e7d256b9b9cac90730e6b2fffc6a41b33d7abfa7b88666b756edee6acd",
    ("rough", "float32", 0.0001): "c22f4a280567f23bb2e3dca701ff708d35e50a56ebe6d051c3e049ff804c61ce",
    ("rough", "float64", 0.01): "638175c1f2f79916a351566afb43da1b4e305c48fadf20d3d205f4d33b049c52",
    ("rough", "float64", 0.0001): "46f4ac8662d74be5b1b00b8560109b5cbc4ed71fcd6c7f7685ea7620935e83e1",
    ("mixed", "float32", 0.01): "2e22d612ffd85ed6bb44a5b099acbc11f4683509b051db76819144f7978bd3ab",
    ("mixed", "float32", 0.0001): "2bbe16706a76910c55c74b7a24270bd81de175227dc52b343d23f0562b737c2d",
    ("mixed", "float64", 0.01): "0650fe8f2710a9e43d66a2a5ee4a66147f2a24a1da569a880808669f01dc2509",
    ("mixed", "float64", 0.0001): "a2809672e42161d49740b858c77a9de8ae6fa73f41ec942abe25eecf64ffac69",
    ("sparse", "float32", 0.01): "65242aaededa92e1585d0fad287f2286f2131ac119446dd5a340b82af3d8736d",
    ("sparse", "float32", 0.0001): "78ae5bb805c1043a3a4d51b2d9bead5c1610776fce228bca334731aeea989379",
    ("sparse", "float64", 0.01): "9cbb77610e1052300e692a1ad15c194460cf056f3a0dd094d843f2496936847a",
    ("sparse", "float64", 0.0001): "6612ce5c1533cef13122ea7f4a716d89b1e6dced7de13355f748ad6738a598c8",
}

#: (field kind, dtype, rate) -> sha256(compress_bytes(...))
GOLDEN_ZFP_FXR = {
    ("smooth", "float32", 4.0): "21b4d79635599da595a3181692a2cd529a0ab87cb43236ea3b273387d1c28647",
    ("smooth", "float32", 8.0): "0e6b72c72abd1e36fa00e2dc1b348e10c74d618ee5730b817b0df5860d6feb03",
    ("smooth", "float32", 16.0): "85c61f485a99438f4a6a511483c335e4165bbfea4ca828bb65e725ba050eb78e",
    ("smooth", "float64", 4.0): "3882ed9bbc0ba991670a0629a59b878d66178ef03b7e674c0fde6893de6d9a37",
    ("smooth", "float64", 8.0): "407615c3c7fb1c76172678238c03519fe10aee6e36fde572c19e47fbecf420ea",
    ("smooth", "float64", 16.0): "9952a0b483824a2520d4d42c3cb9132cc79e1c81a60977540443b6ffe42b752a",
    ("rough", "float32", 4.0): "79ce376483ef796853cedd9c203e646a222210eb161c5e3dbf331146acc1c1e8",
    ("rough", "float32", 8.0): "f15b11c47cce2e6cc43ee2279b59da7be38b066fe6db3cb36d3fde88219613a9",
    ("rough", "float32", 16.0): "92a092d9d4763b35bb4bdea7eafe473bb40a3defd467a99bf44d4bd94b96525a",
    ("rough", "float64", 4.0): "22ec522dc39bb651a209972a9d021e0f9bf4fe7133a7fb4ae3f3342837bcd8dc",
    ("rough", "float64", 8.0): "b76543051c121ca495ee3d0a60922b32919100512b2ea747fd6497036b401d9d",
    ("rough", "float64", 16.0): "0fffdd3aa4a3f810120544c005c75598c78fccc42cf968e47b32d7457e450ab4",
    ("mixed", "float64", 4.0): "7e721fbfdedc6be8127f0ae08b477f5ed60b4b25277b03d0ff7d1ab6ed8102e0",
    ("mixed", "float64", 8.0): "61d6be054a69df54061ee3ac16b89ddcbe731ace632694e6ed237e0623ce46bc",
    ("mixed", "float64", 16.0): "1dca712aafee3e5ec8ec68b2d6961bbabc73565278b59baf99c454d12411e50e",
    ("sparse", "float64", 4.0): "572f6784a3f18e4acbc15ddbcbbf5d71bcb26bb5633aa8e5afa95ee8776e930c",
    ("sparse", "float64", 8.0): "278b1a79603941a52058ca09cdc65cef34774241c7f12a410ecd06297e519b2a",
    ("sparse", "float64", 16.0): "f0723d80af64f234783ca9826d1256aa80d34064b92c8e57897e256bbbd18f75",
}

#: (field kind, dtype, error bound) -> sha256(decompress_bytes(compress_bytes(...)))
GOLDEN_ZFP_ABS_DECODED = {
    ("mixed", "float32", 0.0001): "c3ae34d23f5c3bdd266f2183741143fcb5ce7ff71d8981ae139c03a23ce35ad0",
    ("mixed", "float32", 0.01): "75ac874f0e649265b78e7029fd6be46aec74844fab460eb87b2ba10602195de4",
    ("mixed", "float64", 0.0001): "7d4d779c3dbcabe2cfa8704dc19cfcc164cb4d8748a9dbf294cc9f0433721276",
    ("mixed", "float64", 0.01): "9b922a085b1e7e37f37c969aae1cd880d28e7fa97d81fa5a55ef8cb993b267a5",
    ("rough", "float32", 0.0001): "9553c1ab584e92770d268bef7533e5173d927a55e443d9f38886ad0c5d143614",
    ("rough", "float32", 0.01): "7fb30d2f68042eb996dc74be95f06399a15d389bf765ba4a36989529aa441d43",
    ("rough", "float64", 0.0001): "ed99e40707f7fd1fc167ad414ca5f99d5260ab46386d6b9a3f1aa74264af2b98",
    ("rough", "float64", 0.01): "ecdf070d6c69dd2ea79e436e956397def831036024dcfb02bff6c6d27b31af19",
    ("smooth", "float32", 0.0001): "0f8d482834418dfba615e302ad24ffb6f12ad07170bc8b5b9ba2020a3b370864",
    ("smooth", "float32", 0.01): "8b32462579785ee6fa574929f2bf42af800312d2d4de65a45d8f69f4266cb22d",
    ("smooth", "float64", 0.0001): "2993bb515eefdac8d27e56a357e800640034c6070223087a36773d13c8f5456b",
    ("smooth", "float64", 0.01): "5c86d1d9d8b96d3e8925312c33fdbe1ad0b7818b4d8f28894289db862f26935d",
    ("sparse", "float32", 0.0001): "7a6638c71f924700bca974335e58586dc638900706c6bf5db5b1503c70841509",
    ("sparse", "float32", 0.01): "8c7ae5f650437c1995925cee6732419989faa370bf85fd00622c8cfc3662e9b8",
    ("sparse", "float64", 0.0001): "82fbade6866e3c50184860c462aed96e67c05ab4cc6e63892774d318b2bc232a",
    ("sparse", "float64", 0.01): "7d8af1fa9d29855107d65b2ee3bbef575d5db2827744b629c21797a041cbaf17",
}

#: (field kind, dtype, rate) -> sha256(decompress_bytes(compress_bytes(...)))
GOLDEN_ZFP_FXR_DECODED = {
    ("mixed", "float64", 4.0): "e5663316543f16c0e6ca15bc8d6b2e17ce3fe5c9ac4ba8cb39ac9e5a691c640d",
    ("mixed", "float64", 8.0): "df0b1ac735ac73b269a8d81cdfcc0852f9b4d13a7dab255797e04a8eaf2d1385",
    ("mixed", "float64", 16.0): "91d22ea03d5df4baae6f3f9b06ced4f1c74d4e0479991a02872a7e086b161242",
    ("rough", "float32", 4.0): "bf925bb6a778a02768695df31a0d3b2b5d273198a607e55802040fe02f9d4c04",
    ("rough", "float32", 8.0): "90840795f80fac5409cd77e0ff060494e5f3fe5a44e94c1dbd2feeaaa646fdb7",
    ("rough", "float32", 16.0): "9a043bad8d535a787a13b4db4b2f28e120526470e7a08b06d8175d7f60ef5cd8",
    ("rough", "float64", 4.0): "461bc03310b49e1685352556fc4c65e683148f5f42cd9be1aaacd52594017e21",
    ("rough", "float64", 8.0): "8009c2125903bcfb45a2bfad50f691ef21e52b83374927a5a7feb24158f40eeb",
    ("rough", "float64", 16.0): "7c7e78d705d4d84ccabb6f3fafb000ff268455282740c6d12e83e3ab02fc5c05",
    ("smooth", "float32", 4.0): "30b00378559c9e3ecdfc482184d9720ae99b46c8507f16fa00835eaecbde2c4c",
    ("smooth", "float32", 8.0): "d5d7ab76c07043928e6c460e72d8e67fbac7654e13fffd905bb862e35560b739",
    ("smooth", "float32", 16.0): "aa4a1709cfbb2174cbc74965ac9ea44a73dfcab5cde01c9ab4f58b6985bfc84f",
    ("smooth", "float64", 4.0): "a6221d72732056b789f2b2b41e99ad5d0ae7056d0e0770039172cdde7c420ade",
    ("smooth", "float64", 8.0): "8f107b03790aec99c8574b1c1a607c9441f7e8f9216d96819df3525cf6f9ad7e",
    ("smooth", "float64", 16.0): "979ef1e1007e6dea2bac3f1bdfeb72042ea2657d57def9a2ff9c0b50d7993fcf",
    ("sparse", "float64", 4.0): "6dd9a0d1f4e1b689c69a1c9839efe080be5255973efea896925725f8711f7bb9",
    ("sparse", "float64", 8.0): "b204af660947aacb8c83a06f74f3e0d8da239c83dab4be1c25b89045fd496782",
    ("sparse", "float64", 16.0): "a0b3fc3c8d142f5b7539c9d97a9a251b664506a251671eee178efb5f03ce6775",
}

GOLDEN_PIPE_SZX = {
    ("smooth", "float32", 0.01): "16ac9c060d77f510eb873b51f4b349d2f26570b6c887bdfe43c9a20bf1f8a33b",
    ("smooth", "float32", 0.0001): "dcb45a9576d0d303c6bd6668617aaded7b44c71aa3c0e431371301a73e5febef",
    ("smooth", "float64", 0.01): "9309806316d9fb3a80298e85327b56f4b62c9b62a4a3f248c1ab5cd348f19253",
    ("smooth", "float64", 0.0001): "f5a55d49f1ad41597f204a6bb8cde6a781253f99693c6ed4325929e0a84ebde9",
    ("rough", "float32", 0.01): "6f30e8b2972c766fde764b28c2d8c0afb3d353bf3247628d911ef563064d9934",
    ("rough", "float32", 0.0001): "fa1defa440cc2345abd47e029a1a45e37b2831f94e1c31e0b9e852ae995c4812",
    ("rough", "float64", 0.01): "5cc1b3d57f16ec920ef64e053d2f5ee2c6ce510d28008b65bb5a3be027673af2",
    ("rough", "float64", 0.0001): "1852a92a1077fe9e76efa76bc64f21037e118ce3c95243dba4638b61dfdb7584",
}


class TestGoldenSZx:
    @pytest.mark.parametrize("kind,dtype,eb", sorted(GOLDEN_SZX))
    def test_payload_digest(self, kind, dtype, eb):
        data = field(kind, FIELD_N, dtype)
        payload = SZxCompressor(error_bound=eb).compress_bytes(data)
        assert digest(payload) == GOLDEN_SZX[(kind, dtype, eb)]


class TestGoldenZFPAbs:
    @pytest.mark.parametrize("kind,dtype,eb", sorted(GOLDEN_ZFP_ABS))
    def test_payload_digest(self, kind, dtype, eb):
        data = field(kind, FIELD_N, dtype)
        payload = ZFPCompressor(mode="abs", error_bound=eb).compress_bytes(data)
        assert digest(payload) == GOLDEN_ZFP_ABS[(kind, dtype, eb)]


class TestGoldenZFPFxr:
    @pytest.mark.parametrize("kind,dtype,rate", sorted(GOLDEN_ZFP_FXR))
    def test_payload_digest(self, kind, dtype, rate):
        data = field(kind, FIELD_N, dtype)
        payload = ZFPCompressor(mode="fxr", rate=rate).compress_bytes(data)
        assert digest(payload) == GOLDEN_ZFP_FXR[(kind, dtype, rate)]


class TestGoldenZFPDecoded:
    """The decoded values of the ZFP payloads above: the payload digests pin
    the encoder, these pin the dequantise and inverse Haar passes behind it."""

    @pytest.mark.parametrize("kind,dtype,eb", sorted(GOLDEN_ZFP_ABS_DECODED))
    def test_abs_decoded_digest(self, kind, dtype, eb):
        codec = ZFPCompressor(mode="abs", error_bound=eb)
        decoded = codec.decompress_bytes(codec.compress_bytes(field(kind, FIELD_N, dtype)))
        assert decoded.dtype == np.dtype(dtype)
        assert digest(decoded.tobytes()) == GOLDEN_ZFP_ABS_DECODED[(kind, dtype, eb)]

    @pytest.mark.parametrize("kind,dtype,rate", sorted(GOLDEN_ZFP_FXR_DECODED))
    def test_fxr_decoded_digest(self, kind, dtype, rate):
        codec = ZFPCompressor(mode="fxr", rate=rate)
        decoded = codec.decompress_bytes(codec.compress_bytes(field(kind, FIELD_N, dtype)))
        assert decoded.dtype == np.dtype(dtype)
        assert digest(decoded.tobytes()) == GOLDEN_ZFP_FXR_DECODED[(kind, dtype, rate)]


class TestGoldenPipelinedSZx:
    @pytest.mark.parametrize("kind,dtype,eb", sorted(GOLDEN_PIPE_SZX))
    def test_payload_digest(self, kind, dtype, eb):
        data = field(kind, PIPE_FIELD_N, dtype)
        payload = PipelinedSZx(error_bound=eb).compress_bytes(data)
        assert digest(payload) == GOLDEN_PIPE_SZX[(kind, dtype, eb)]


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Print fresh digest tables (format-revision aid; see module docstring)."""
    for name, table, codec in (
        ("GOLDEN_SZX", GOLDEN_SZX, lambda p: SZxCompressor(error_bound=p)),
        ("GOLDEN_ZFP_ABS", GOLDEN_ZFP_ABS, lambda p: ZFPCompressor(mode="abs", error_bound=p)),
        ("GOLDEN_ZFP_FXR", GOLDEN_ZFP_FXR, lambda p: ZFPCompressor(mode="fxr", rate=p)),
        ("GOLDEN_PIPE_SZX", GOLDEN_PIPE_SZX, lambda p: PipelinedSZx(error_bound=p)),
    ):
        print(f"{name} = {{")
        n = PIPE_FIELD_N if name == "GOLDEN_PIPE_SZX" else FIELD_N
        for kind, dtype, param in sorted(table):
            payload = codec(param).compress_bytes(field(kind, n, dtype))
            print(f'    ("{kind}", "{dtype}", {param!r}): "{digest(payload)}",')
        print("}")
    for name, table, codec in (
        ("GOLDEN_ZFP_ABS_DECODED", GOLDEN_ZFP_ABS, lambda p: ZFPCompressor(mode="abs", error_bound=p)),
        ("GOLDEN_ZFP_FXR_DECODED", GOLDEN_ZFP_FXR, lambda p: ZFPCompressor(mode="fxr", rate=p)),
    ):
        print(f"{name} = {{")
        for kind, dtype, param in sorted(table):
            zfp = codec(param)
            decoded = zfp.decompress_bytes(zfp.compress_bytes(field(kind, FIELD_N, dtype)))
            print(f'    ("{kind}", "{dtype}", {param!r}): "{digest(decoded.tobytes())}",')
        print("}")

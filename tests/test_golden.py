"""Golden output gate: fixed-seed SHA-256 of `grng gen` output.

Pins the bytes of every algorithm x mode x format (sample file and its
.meta.json sidecar) at N = 10^4, seed 1.  At this size the LFSR's
lane-parallel `words` cuts each source's block into lanes of up to 32
words: 157 lanes for box-muller's 5000 words per source, 196 for polar's
6251 and 313 for each clt summand's 10 000.  Each of polar's 256-word
top-ups gives 8 lanes.  A change to any of these hashes is a change of
output bytes and must be called out as such.

The text writers of `quadrature` and `hist` are pinned beside them:
quadrature at 70 000 pairs, past the first 2^16-row chunk of its text, and
hist of the seed-1 box-muller reference bin file, to a file and to stdout.
The chi2/ad/ks battery is pinned on `gen --n 200000 --seed 1` of every
algorithm and mode: about 10^5 values on each side of zero, so the tail
pass and both tests cross `stats._BLOCK` (2^16) on either side.
"""

import contextlib
import hashlib
import io

import pytest

from _fixtures import cut_rounds
from grng import sampleio, stats
from grng.cli import main

N = 10_000

GOLDEN = {
    ("box-muller", "reference", "bin"): ("9d8555fad227b5d5ca54b64e6522368f8b8a03a5ce30382b2d4a14a79f6d069c",
        "9902551aa148c73fd870bef6764925694783df380d46d90c10918773f0fe0361"),
    ("box-muller", "reference", "csv"): ("8ad5591cbabbe524a9f7719277f48606dfbc0bfa27b251cff7cb143f127011eb",
        "353c8b9392e1570e92048a189be7c15494777635c85589b632550a78c3e8e3cb"),
    ("box-muller", "reference", "json"): ("20ae3b3072dd756565119ddec1ae29aa2df63fc50e3d529618e538ab8963d5ab",
        "cd5cfb2ebe1f29841ca561f10605f51a34ecbcdf0fe9f7dcd45b8e93ad924f54"),
    ("box-muller", "pipeline", "bin"): ("9ef5ffea0de72e7f3e9cf03a184bc9005f3b73ac7ea9d4d1b7e610403f13cbff",
        "bd4d349ffd85e27b1fa516ecadaf178f011ea88c154a9583882ea603cca6350c"),
    ("box-muller", "pipeline", "csv"): ("4d8fc24f74b65515eac215839a49a60a03b1d13ed0aba7d81ef9035d74f9dd69",
        "e0ea547e52950cf6713c7d2c472c98b81f1f6cf182734488ecadd7448f8860ae"),
    ("box-muller", "pipeline", "json"): ("d1e55bdf4ccbc70ca468c867431e9a72450a2580d3ef158441e00d59c13b03a3",
        "72395d94cdb05eecd11f01b229b2b9292910e1be2a9148451f42a3cbb05d4f13"),
    ("polar", "reference", "bin"): ("7beb9be767b50576990057a25ab50085564d4491ac8711c9f6e15eb61f810300",
        "ecb903b28e7011f636a34ed46e323277227907fb71588802a0f3c0c7633b73fc"),
    ("polar", "reference", "csv"): ("d5769863c6667f8829fd9cc189b73888d49c183bf7523d02dbe383f65b6549af",
        "d85649aad90610a3dd58a7b0529593659566090ac11087f454777b4cf00a2f88"),
    ("polar", "reference", "json"): ("5af424cd43934e20e88291bfb46e7a2b10d8f5cbd4531472d8d60902718102c1",
        "7688bb7c648b45e5f314abdc044e874dd0b73fdf3e6fda179ab2b616be431a13"),
    ("polar", "pipeline", "bin"): ("4ee916181f0bab99865be98c04681210d68f2e9cd8726f4217ade2244da36d69",
        "8718399e83bc74a1f082786f432346870ce271bdc115f75e246e5d2e8da31440"),
    ("polar", "pipeline", "csv"): ("1bb213c3fca409f1179368fd126465f5e1b95b64d5247d979d9ba40d182fe19c",
        "10cf6a8311c3ce55c03dea8356ce4762325681bb9ba59f8720ef1efeb1e9f5cf"),
    ("polar", "pipeline", "json"): ("0433b4981898936dedb1ec012e0a8ac45d8ab0388306b2765f2a04717398ed4e",
        "eee83022c9ba60bacb6b07f9fa663f21406cb75e64db310bf7206a410c8f9297"),
    ("clt", "reference", "bin"): ("d080c68bf97ba9e31dfb61eefcce6944b3b239e8ae5179224f6389d03421fcdf",
        "3495c914bde0785d79a21b4adcfe27c344ef86ccab5462e7f1ce017d7e937b55"),
    ("clt", "reference", "csv"): ("d29ee9f1d1745df133303fa0411df375e47d4b8b28bc5bbf53b1f33f31571e1c",
        "555bec08f49345aa7dfbf7926993822bf5faab15f5ddc6f288599c5f77fea6cc"),
    ("clt", "reference", "json"): ("66b964fb7ed31b319af7b21588b90cab06f48ad6aa076ac57d70176816b079d0",
        "8cbace18ae0be0f0a85bdd615b2ee8571624b77508e865606fd05c4b5f816673"),
    ("clt", "pipeline", "bin"): ("6f1e01caf1f41e43653426ab72e2305c57e923cbed0f51a8948ca782c5e9eecc",
        "c8429caac44bb7f33e5989eae9d96a7d69a3aaaeb82b45fe4f1692c6076ddd9a"),
    ("clt", "pipeline", "csv"): ("892ec5b2304c9a6949d1f5a7f616971cc194e8efc330c1fc154b9b1e51f114a3",
        "a5dd1a0bfe82cb3eeea9a7dc9b2c1a848fd4732cfaa2f6f0c44250a213e657b3"),
    ("clt", "pipeline", "json"): ("c72c1458e1e38cb06106b3efe963cd4a74455af0a24797642b3709efb0c780e5",
        "8960310c25b9b25e604c20cf87b87531ea81091dc33c8fb8a1f31392900c88a6"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("algo,mode,fmt", sorted(GOLDEN))
def test_gen_output_bytes_pinned(tmp_path, algo, mode, fmt):
    _check_golden(tmp_path, algo, mode, fmt)


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("algo,mode,fmt", sorted(GOLDEN))
def test_gen_output_bytes_pinned_in_blocks(tmp_path, monkeypatch, algo, mode,
                                           fmt, threads):
    """The same hashes when each round is cut into blocks of >= 1000 passes
    on 1-4 threads."""
    cut_rounds(monkeypatch, threads)
    _check_golden(tmp_path, algo, mode, fmt)


def _check_golden(tmp_path, algo, mode, fmt):
    out = tmp_path / f"golden.{fmt}"
    argv = ["gen", "--algo", algo, "--n", str(N), "--seed", "1",
            "--mode", mode, "--format", fmt, "--out", str(out)]
    if algo == "clt":
        argv += ["--k", "12"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    sidecar = tmp_path / f"golden.{fmt}.meta.json"
    assert (_sha256(out), _sha256(sidecar)) == GOLDEN[algo, mode, fmt]


QUADRATURE = {
    "csv": ("1fae6076aa91313541e032ac07836e7114b5edca36f365c4908eb313e2d0328c",
            "69b6bd62d3463bacbe6f78374c932b420e71cee1e61c4efd649f6428febe261a"),
    "json": ("10270939b3298d64ff444a7498830ce7180f0203dfeaca4c25f2cefde97b9984",
             "8ee8f0e5f77789564dbb48f381343710afa7504e61b77fe15eb7943f22e6c7d0"),
}
HIST = "4b62fa47d7e3b2fd0a8f352eaa1b4cdb6a5fdc2dd6642b9e2b41aec76a464247"


@pytest.mark.parametrize("fmt", sorted(QUADRATURE))
def test_quadrature_output_bytes_pinned(tmp_path, fmt):
    out = tmp_path / f"pairs.{fmt}"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["quadrature", "--n", "70000", "--seed", "1",
                     "--format", fmt, "--out", str(out)]) == 0
    sidecar = tmp_path / f"pairs.{fmt}.meta.json"
    assert (_sha256(out), _sha256(sidecar)) == QUADRATURE[fmt]


def test_hist_output_bytes_pinned(tmp_path):
    _check_golden(tmp_path, "box-muller", "reference", "bin")
    out = tmp_path / "hist.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["hist", str(tmp_path / "golden.bin"), "--out", str(out)]) == 0
        assert stdout.getvalue() == ""
        assert main(["hist", str(tmp_path / "golden.bin")]) == 0
    assert _sha256(out) == HIST
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == HIST


# float.hex of (statistic, p-value) of each test of `run_suite`
BATTERY = {
    ("box-muller", "reference"): {
        "chi2": ("0x1.b50870110a138p+1", "0x1.b03d0553d071dp-1"),
        "ad": ("0x1.93fb082d00000p-2", "0x1.b5550fd38ce40p-1"),
        "ks": ("0x1.54fdf77671800p-10", "0x1.c64f436f0606fp-1")},
    ("box-muller", "pipeline"): {
        "chi2": ("0x1.b50870110a138p+1", "0x1.b03d0553d071dp-1"),
        "ad": ("0x1.93fb342700000p-2", "0x1.b554fa2692dc9p-1"),
        "ks": ("0x1.55017cb7ae400p-10", "0x1.c64b84b33617fp-1")},
    ("polar", "reference"): {
        "chi2": ("0x1.078feef5ec80cp+2", "0x1.883a88acc5500p-1"),
        "ad": ("0x1.bb9eb29f00000p-2", "0x1.a169a3a8b5496p-1"),
        "ks": ("0x1.74319e44cce80p-10", "0x1.a1193e8ea9ac2p-1")},
    ("polar", "pipeline"): {
        "chi2": ("0x1.078feef5ec80cp+2", "0x1.883a88acc5500p-1"),
        "ad": ("0x1.bb9ea22f80000p-2", "0x1.a169ac093f2a0p-1"),
        "ks": ("0x1.7433668af4d80p-10", "0x1.a116eb45088aap-1")},
    ("clt", "reference"): {
        "chi2": ("0x1.5e754f3775b81p+5", "0x1.f4197c84a3decp-23"),
        "ad": ("0x1.23fd66468c000p+3", "0x1.cf05a1b230000p-16"),
        "ks": ("0x1.68d65cb6ed4a0p-8", "0x1.6919298918c2ap-17")},
    ("clt", "pipeline"): {
        "chi2": ("0x1.5e754f3775b81p+5", "0x1.f4197c84a3decp-23"),
        "ad": ("0x1.23fd6730d4000p+3", "0x1.cf058f3768000p-16"),
        "ks": ("0x1.68d90622eafe0p-8", "0x1.68d88c2ea60dfp-17")},
}


@pytest.mark.parametrize("algo,mode", sorted(BATTERY))
def test_battery_pinned(tmp_path, algo, mode):
    out = tmp_path / "battery.bin"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--algo", algo, "--mode", mode, "--n", "200000",
                     "--seed", "1", "--out", str(out)]) == 0
    values, _mode = sampleio.read_samples(out)
    reports = stats.run_suite(values)
    assert {r.test_name: (r.statistic.hex(), r.p_value.hex())
            for r in reports} == BATTERY[algo, mode]

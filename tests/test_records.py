"""Binary container tests: the shared reader, and the pinned bytes of every format."""

import hashlib

import numpy as np
import pytest

from stylerec import records
from stylerec.errors import FormatError
from stylerec.model import ModelConfig, init_params, save_checkpoint
from stylerec.style import STYLE_DIM, save_style_cache, write_feature_maps


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedBytes:
    """Digests recorded before the three formats moved onto ``records``: a
    change to any byte a writer emits, or to ``init_params``, fails here."""

    def test_seeded_files_and_init_are_unchanged(self, tmp_path):
        cfg = ModelConfig(d_product=8, d_model=4, n_blocks=2, n_heads=2, d_ffn=8, max_len=8)
        params = init_params(cfg, 9, seed=5)
        save_checkpoint(params, tmp_path / "m.s4ck")
        rng = np.random.default_rng(7)
        write_feature_maps([rng.standard_normal((3, 4, 5)).astype(np.float32),
                            rng.standard_normal((2, 6, 6)).astype(np.float32)],
                           tmp_path / "f.s4rf")
        save_style_cache({i: rng.standard_normal(STYLE_DIM).astype(np.float32)
                          for i in (4, 1, 9)}, tmp_path / "c.s4se")
        digests = {name: sha256((tmp_path / name).read_bytes())
                   for name in ("m.s4ck", "f.s4rf", "c.s4se")}
        assert digests == {
            "m.s4ck": "bc2e4b7b38075cd23fc3e97469493cc43950f382d2bf8f958422f8fc1fa5566e",
            "f.s4rf": "21f4b525999512d313846b9997088b80268f8540a65b6cda49d3ae8acd6c190f",
            "c.s4se": "8a9d7337555320be9fdaf3e7a1fc3bd27109c13b376b4ac8ccccb136f3412cd0",
        }
        # every init tensor, bit for bit, in insertion order
        h = hashlib.sha256()
        for name, t in params.items():
            h.update(name.encode())
            h.update(t.data.tobytes())
        assert h.hexdigest() == "b216fe2d3367359947b7f06b472a2a29d812f1a57b843f96a632e6b10de6fe48"


def container(tmp_path, payload: bytes, magic=b"TEST", version=records.VERSION):
    path = tmp_path / "x.bin"
    path.write_bytes(magic + version.to_bytes(4, "little") + payload)
    return path


class TestReader:
    def test_fields_read_back(self, tmp_path):
        floats = np.arange(6, dtype="<f4")
        path = tmp_path / "ok.bin"
        records.write(path, b"TEST", [records.pack("HI", 2, 7), "né".encode(),
                                      floats.tobytes()])
        r = records.Reader(path, b"TEST")
        assert r.unpack("HI", "counts") == (2, 7)
        assert r.text(3, "word") == "né"
        np.testing.assert_array_equal(r.floats((2, 3), "grid"), floats.reshape(2, 3))
        r.finish()  # every byte was read

    def test_short_read_names_offset(self, tmp_path):
        r = records.Reader(container(tmp_path, b"\x01\x00"), b"TEST")
        with pytest.raises(FormatError, match="needed 4 bytes for count at byte 8, have 2"):
            r.unpack("I", "count")

    def test_huge_shape_is_short_read(self, tmp_path):
        r = records.Reader(container(tmp_path, b"\x00" * 8), b"TEST")
        with pytest.raises(FormatError, match="at byte 8"):
            r.floats((2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1), "data")

    def test_header_checks(self, tmp_path):
        with pytest.raises(FormatError, match="bad magic"):
            records.Reader(container(tmp_path, b"", magic=b"NOPE"), b"TEST")
        with pytest.raises(FormatError, match="unsupported TEST version 9 at byte 4"):
            records.Reader(container(tmp_path, b"", version=9), b"TEST")
        (tmp_path / "short.bin").write_bytes(b"TES")
        with pytest.raises(FormatError, match="header at byte 0"):
            records.Reader(tmp_path / "short.bin", b"TEST")

    def test_bad_text_and_trailing_data(self, tmp_path):
        r = records.Reader(container(tmp_path, b"\xff\xfeab"), b"TEST")
        with pytest.raises(FormatError, match="name at byte 8 is not UTF-8"):
            r.text(2, "name")
        with pytest.raises(FormatError, match="trailing data at byte 10"):
            r.finish()

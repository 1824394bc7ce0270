"""Style module tests: gram/loss oracles, pooling, provider, binary formats."""

import hashlib
import struct

import numpy as np
import pytest

from stylerec import threads
from stylerec.errors import ConfigError, ContractError, FormatError, ShapeError
from stylerec.style import (
    STYLE_DIM,
    _pseudo_weights,
    extract_style_embedding,
    gram,
    load_feature_maps,
    load_style_cache,
    max_pool2d,
    pseudo_feature_provider,
    save_style_cache,
    standardize_embeddings,
    style_loss,
    style_table,
    write_feature_maps,
)


def brute_force_gram(stack):
    """Independent oracle: explicit double loop over map pairs and pixels."""
    n = len(stack)
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a, b in zip(np.ravel(stack[i]), np.ravel(stack[j])):
                acc += float(a) * float(b)
            g[i, j] = acc
    return g


class TestGram:
    def test_constant_map_gives_pixel_count(self):
        g = gram(np.ones((1, 4, 4)))
        assert g.shape == (1, 1)
        assert g[0, 0] == 16.0

    def test_disjoint_supports_orthogonal(self):
        stack = np.zeros((2, 4, 4))
        stack[0, :2] = 3.0
        stack[1, 2:] = 5.0
        g = gram(stack)
        assert g[0, 1] == 0.0 and g[1, 0] == 0.0
        assert g[0, 0] == 9.0 * 8 and g[1, 1] == 25.0 * 8

    def test_matches_brute_force_exactly_on_integer_maps(self):
        # integer-valued inputs make every product and partial sum exact,
        # so the comparison is order-independent and can demand equality
        rng = np.random.default_rng(31)
        stack = rng.integers(-4, 5, size=(3, 5, 7)).astype(np.float64)
        np.testing.assert_array_equal(gram(stack), brute_force_gram(stack))

    def test_matches_brute_force_on_float_maps(self):
        rng = np.random.default_rng(32)
        stack = rng.standard_normal((4, 6, 5))
        np.testing.assert_allclose(gram(stack), brute_force_gram(stack),
                                   rtol=1e-12, atol=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(33)
        g = gram(rng.standard_normal((16, 9, 9)))
        assert np.array_equal(g, g.T)

    def test_pseudo_layer_gram_is_exactly_symmetric_unmirrored(self):
        """On a 64 x 1024 pseudo-provider layer, the product numpy returns is
        exactly symmetric and equals its lower triangle mirrored, the value
        ``gram`` returned when it mirrored that triangle itself."""
        image = np.random.default_rng(36).random((32, 32, 3))
        layer = pseudo_feature_provider(image, seed=7)[1]
        assert layer.shape == (64, 32, 32)
        g = gram(layer)
        assert np.array_equal(g, g.T)
        assert np.array_equal(g, np.tril(g) + np.tril(g, -1).T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(34)
        for trial in range(5):
            g = gram(rng.standard_normal((12, 8, 8)))
            min_eig = float(np.linalg.eigvalsh(g).min())
            assert min_eig >= -1e-8 * np.linalg.norm(g)

    def test_dims_independent_of_map_size(self):
        rng = np.random.default_rng(35)
        for h, w in ((4, 4), (9, 5), (16, 32)):
            assert gram(rng.standard_normal((6, h, w))).shape == (6, 6)

    def test_ragged_maps_rejected(self):
        # a layer is one [N, H, W] array: a list of maps is rejected, ragged or not
        for maps in ([np.zeros((3, 3)), np.zeros((4, 3))], [np.zeros((3, 3))] * 2):
            with pytest.raises(ShapeError, match=r"\[N, H, W\] array .*got list"):
                gram(maps)

    def test_empty_layer_rejected(self):
        with pytest.raises(ShapeError):
            gram(np.zeros((0, 4, 4)))
        with pytest.raises(ShapeError):
            gram([])


class TestLosses:
    def test_identical_grams_zero(self):
        g = np.arange(9.0).reshape(3, 3)
        assert style_loss([g], [g.copy()], [1.0], [3], [10]) == 0.0

    def test_zero_weights_zero(self):
        a, b = np.ones((2, 2)), np.zeros((2, 2))
        assert style_loss([a, a], [b, b], [0.0, 0.0], [2, 2], [4, 4]) == 0.0

    def test_hand_case_single_layer(self):
        # N=1, M=2: (4-2)^2 / (4 * 1 * 4) = 0.25
        loss = style_loss([np.array([[4.0]])], [np.array([[2.0]])], [1.0], [1], [2])
        assert loss == 0.25

    def test_weighted_sum_across_layers(self):
        g4, g2 = np.array([[4.0]]), np.array([[2.0]])
        loss = style_loss([g4, g4], [g2, g2], [1.0, 3.0], [1, 1], [2, 2])
        assert loss == pytest.approx(0.25 + 3 * 0.25)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(36)
        a = rng.standard_normal((5, 5))
        b = a + rng.standard_normal((5, 5)) * 0.1
        assert style_loss([a], [b], [1.0], [5], [9]) > 0.0
        assert style_loss([a], [a.copy()], [1.0], [5], [9]) == 0.0

    def test_gram_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            style_loss([np.ones((2, 2))], [np.ones((3, 3))], [1.0], [2], [4])


class TestRefusals:
    """Each refusal of a style function names its fault."""

    @pytest.mark.parametrize("call, message", [
        (lambda path: style_loss([np.zeros((2, 2))], [], [1.0], [2], [4]),
         "per-layer argument lists must have equal length"),
        (lambda path: max_pool2d(np.zeros(16)), "max_pool2d expects a matrix, got (16,)"),
        (lambda path: style_table(3, {1: np.zeros(5)}), "style vector for id 1 has shape (5,)"),
        (lambda path: write_feature_maps([np.zeros((8, 8))], path),
         "S4RF layer must be [N, H, W], got (8, 8)"),
    ], ids=["loss-list-lengths", "pool-a-vector", "style-vector-shape", "s4rf-layer-2d"])
    def test_refusal_names_its_fault(self, tmp_path, call, message):
        with pytest.raises(ShapeError) as refused:
            call(tmp_path / "maps.s4rf")
        assert str(refused.value) == message
        assert not (tmp_path / "maps.s4rf").exists()


class TestPooling:
    def test_all_equal_stays_equal(self):
        out = max_pool2d(np.full((64, 64), 2.5), 4)
        assert out.shape == (16, 16)
        assert np.all(out == 2.5)

    def test_single_max_lands_in_first_window(self):
        m = np.zeros((64, 64))
        m[0, 0] = 9.0
        out = max_pool2d(m, 4)
        assert out[0, 0] == 9.0
        assert out.sum() == 9.0

    def test_window_arithmetic(self):
        m = np.arange(16.0).reshape(4, 4)
        out = max_pool2d(m, 2)
        np.testing.assert_array_equal(out, [[5.0, 7.0], [13.0, 15.0]])

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            max_pool2d(np.zeros((10, 10)), 4)


class TestStyleEmbedding:
    def make_layers(self, rng, h=8, w=8):
        return [rng.standard_normal((64, h, w)), rng.standard_normal((64, h, w))]

    def test_output_length_512(self):
        emb = extract_style_embedding(self.make_layers(np.random.default_rng(39)))
        assert emb.shape == (STYLE_DIM,)
        assert np.all(np.isfinite(emb))

    def test_wrong_layer_count_rejected(self):
        rng = np.random.default_rng(40)
        with pytest.raises(ConfigError):
            extract_style_embedding([rng.standard_normal((64, 8, 8))])

    def test_wrong_map_count_rejected(self):
        rng = np.random.default_rng(41)
        with pytest.raises(ConfigError):
            extract_style_embedding([rng.standard_normal((32, 8, 8)),
                                     rng.standard_normal((64, 8, 8))])

    def test_scale_covariance(self):
        rng = np.random.default_rng(42)
        layers = self.make_layers(rng)
        base = extract_style_embedding(layers)
        scaled = extract_style_embedding([3.0 * l for l in layers])
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)

    def test_length_independent_of_map_size(self):
        rng = np.random.default_rng(43)
        for h, w in ((8, 8), (12, 16), (56, 56)):
            emb = extract_style_embedding(self.make_layers(rng, h, w))
            assert emb.shape == (STYLE_DIM,)

    def test_standardize_zero_mean_unit_variance(self):
        rng = np.random.default_rng(44)
        raw = {i: rng.standard_normal(STYLE_DIM) * 7 + 3 for i in range(1, 9)}
        out = standardize_embeddings(raw)
        stack = np.stack([out[i] for i in range(1, 9)]).astype(np.float64)
        np.testing.assert_allclose(stack.mean(axis=0), 0.0, atol=1e-5)
        np.testing.assert_allclose(stack.std(axis=0), 1.0, atol=1e-5)

    def test_standardize_skips_imageless_products(self):
        # the caller passes only the products with images; the rest get no vector here
        rng = np.random.default_rng(45)
        raw = {1: rng.standard_normal(STYLE_DIM), 2: rng.standard_normal(STYLE_DIM),
               3: rng.standard_normal(STYLE_DIM)}
        out = standardize_embeddings(raw)
        assert sorted(out) == [1, 2, 3]
        stats = np.stack([out[i] for i in (1, 2, 3)]).astype(np.float64)
        np.testing.assert_allclose(stats.mean(axis=0), 0.0, atol=1e-5)

    def test_standardize_constant_dimension_zeroed(self):
        raw = {1: np.full(STYLE_DIM, 5.0), 2: np.full(STYLE_DIM, 5.0)}
        out = standardize_embeddings(raw)
        assert np.all(out[1] == 0.0) and np.all(out[2] == 0.0)

    def test_standardize_needs_some_images(self):
        with pytest.raises(ConfigError):
            standardize_embeddings({})

    def test_style_table_layout(self):
        rng = np.random.default_rng(46)
        vecs = {2: rng.standard_normal(STYLE_DIM).astype(np.float32)}
        table = style_table(3, vecs)
        assert table.shape == (4, STYLE_DIM)
        assert np.all(table[0] == 0.0) and np.all(table[1] == 0.0) and np.all(table[3] == 0.0)
        np.testing.assert_array_equal(table[2], vecs[2])
        with pytest.raises(ContractError):
            style_table(3, {5: np.zeros(STYLE_DIM)})


class TestPseudoProvider:
    def test_zero_image_gives_zero_maps(self):
        layers = pseudo_feature_provider(np.zeros((8, 8, 3)), seed=0)
        assert all(np.all(l == 0.0) for l in layers)

    def test_shapes_and_nonneg(self):
        layers = pseudo_feature_provider(np.random.default_rng(47).random((10, 12, 3)), seed=1)
        assert [l.shape for l in layers] == [(64, 10, 12), (64, 10, 12)]
        assert all(np.all(l >= 0.0) for l in layers)

    def test_same_seed_bit_identical(self):
        img = np.random.default_rng(48).random((9, 9, 3))
        a = pseudo_feature_provider(img, seed=5)
        b = pseudo_feature_provider(img, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_different_seed_differs(self):
        img = np.random.default_rng(49).random((9, 9, 3))
        a = pseudo_feature_provider(img, seed=5)
        b = pseudo_feature_provider(img, seed=6)
        assert not np.array_equal(a[0], b[0])

    def test_shift_locality(self):
        # shifting the image one column right shifts deep features the same
        # way except inside the receptive field of the new boundary
        rng = np.random.default_rng(50)
        img = rng.random((12, 16, 3))
        shifted = np.zeros_like(img)
        shifted[:, 1:] = img[:, :-1]
        f = pseudo_feature_provider(img, seed=7)[1]
        f_shift = pseudo_feature_provider(shifted, seed=7)[1]
        # two stacked 3x3 convs see two columns to each side, so equality
        # holds away from both vertical boundaries and fails at the edges
        np.testing.assert_array_equal(f_shift[:, :, 2:14], f[:, :, 1:13])
        assert not np.array_equal(f_shift[:, :, :2], f[:, :, :2])
        assert not np.array_equal(f_shift[:, :, 14:], f[:, :, 13:15])

    def test_small_image_rejected(self):
        with pytest.raises(ShapeError, match=r"H, W >= 8 and C >= 1, got shape \(4, 8, 3\)"):
            pseudo_feature_provider(np.zeros((4, 8, 3)), seed=0)

    def test_grayscale_accepted(self):
        layers = pseudo_feature_provider(np.ones((8, 8)), seed=2)
        assert layers[0].shape == (64, 8, 8)


# three provider seeds, the last one as large as the CLI's derived seeds
PIN_SEEDS = (0, 1, 2**63 + 12345)


def pin_images() -> dict:
    """Six seeded images: uint8 RGB, RGBA, float grayscale, one channel, zeros."""
    rng = np.random.default_rng(51)
    u8 = lambda *shape: rng.integers(0, 256, size=shape, dtype=np.uint8)  # noqa: E731
    return {"32x32x3": u8(32, 32, 3), "10x12x3": u8(10, 12, 3), "17x9x4": u8(17, 9, 4),
            "gray8x8": rng.standard_normal((8, 8)), "9x9x1": u8(9, 9, 1),
            "zeros": np.zeros((12, 8, 3), dtype=np.uint8)}


def provider_digests() -> dict:
    """Per image of ``pin_images``: the SHA-256 of the provider's maps and of
    their style embedding, over the three ``PIN_SEEDS``. One scratch serves
    every call, so its buffers grow and are reused across image shapes."""
    got = {}
    scratch = {}
    for name, image in pin_images().items():
        maps, emb = hashlib.sha256(), hashlib.sha256()
        for seed in PIN_SEEDS:
            layers = pseudo_feature_provider(image, seed, scratch)
            for layer in layers:
                maps.update(layer.tobytes())
            emb.update(extract_style_embedding(layers, scratch).tobytes())
        got[name] = [maps.hexdigest(), emb.hexdigest()]
    return got


class TestProviderPin:
    """The pseudo provider's maps and embeddings, pinned bit for bit on six
    image shapes and three seeds. The digests are taken at one BLAS thread
    (``threads.one_blas_thread``), so they do not depend on the machine's CPU
    count."""

    RECORDED = {
        "32x32x3": ["878e09f488cbc71444a6e53541cb1db843b16b66d9bb2c917084920cfa9fc9bf",
                    "176f2a280329f53e2322011da7dbb3320846fe071931eb2e32226a7f514e60c6"],
        "10x12x3": ["59cf5f25e5b5cb19c19b36a48c39e1433cb88b38f005a863bdaaaf115ba275e6",
                    "9a6af9aa2ab78c66e13d7e683b7362e7699e499053445534236381368d75fe53"],
        "17x9x4": ["fd2a6033b17c55d74fa7d82c7a24cb5c54a10c95a191dd6605ef9c628fe29cf1",
                   "711ec178c6092b64bd7ca386dc20b8930d628666613531c44a84844c77e6dedf"],
        "gray8x8": ["5777af980820e7b7edf476c05c5f1eb5cb474472295205a78a1018631c991d04",
                    "d52c90390e283e59ad1378fadbb56024d9ce41bb7925174c6898a800089deffc"],
        "9x9x1": ["30c03ca14e6dc50c59523de34aeb683675cf413c00b44b7da5b54dffed5b2cf5",
                  "efccd8743da333856b613ae9c1cf77bb249c951ccf13ee9843c5b965767fd26b"],
        "zeros": ["8123c216413f82bbaa0339c27a43d9822c2a043e20662b27c97874429b996e9a",
                  "f3cc103136423a57975750907ebc1d367e2985ac6338976d4d5a439f50323f4a"],
    }

    def test_provider_outputs_are_pinned(self):
        with threads.one_blas_thread():
            assert provider_digests() == self.RECORDED

    def test_filter_banks_are_cached_read_only(self):
        w1, w2 = banks = _pseudo_weights(9, 3)
        assert w1.shape == (64, 27) and w2.shape == (64, 576)
        assert not w1.flags.writeable and not w2.flags.writeable
        with pytest.raises(ValueError):
            w1[0, 0] = 0.0
        assert _pseudo_weights(9, 3) is banks
        for other in (_pseudo_weights(9, 1), _pseudo_weights(10, 3)):
            assert other is not banks
            assert not np.array_equal(other[1], w2)


class TestS4RF:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        layers = [rng.standard_normal((3, 4, 5)).astype(np.float32),
                  rng.standard_normal((2, 6, 6)).astype(np.float32)]
        path = tmp_path / "maps.s4rf"
        write_feature_maps(layers, path)
        back = load_feature_maps(path)
        assert len(back) == 2
        for x, y in zip(layers, back):
            np.testing.assert_array_equal(x, y)
        # rewrite is byte-for-byte identical
        path2 = tmp_path / "again.s4rf"
        write_feature_maps(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_driven_parse(self, tmp_path):
        # hand-built file: one 2x3x4 layer of counting floats
        data = np.arange(24, dtype="<f4")
        blob = struct.pack("<4sII", b"S4RF", 1, 1) + struct.pack("<III", 2, 3, 4) + data.tobytes()
        path = tmp_path / "hand.s4rf"
        path.write_bytes(blob)
        layers = load_feature_maps(path)
        assert layers[0].shape == (2, 3, 4)
        np.testing.assert_array_equal(layers[0].ravel(), data)

    def test_truncated_reports_offset(self, tmp_path):
        rng = np.random.default_rng(52)
        path = tmp_path / "trunc.s4rf"
        write_feature_maps([rng.standard_normal((2, 4, 4)).astype(np.float32)], path)
        whole = path.read_bytes()
        path.write_bytes(whole[:30])
        with pytest.raises(FormatError, match="byte"):
            load_feature_maps(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.s4rf"
        path.write_bytes(struct.pack("<4sII", b"NOPE", 1, 0))
        with pytest.raises(FormatError, match="magic"):
            load_feature_maps(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.s4rf"
        path.write_bytes(struct.pack("<4sII", b"S4RF", 9, 0))
        with pytest.raises(FormatError, match="version"):
            load_feature_maps(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "extra.s4rf"
        write_feature_maps([np.zeros((1, 2, 2), dtype=np.float32)], path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_feature_maps(path)


class TestS4SE:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(53)
        vecs = {i: rng.standard_normal(STYLE_DIM).astype(np.float32) for i in (3, 1, 7)}
        path = tmp_path / "cache.s4se"
        save_style_cache(vecs, path)
        back = load_style_cache(path)
        assert set(back) == {1, 3, 7}
        for pid in vecs:
            np.testing.assert_array_equal(back[pid], vecs[pid])

    def test_write_order_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(54)
        vecs = {i: rng.standard_normal(STYLE_DIM).astype(np.float32) for i in (5, 2, 9)}
        p1, p2 = tmp_path / "a.s4se", tmp_path / "b.s4se"
        save_style_cache(vecs, p1)
        save_style_cache(dict(reversed(list(vecs.items()))), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_vector_length_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            save_style_cache({1: np.zeros(100, dtype=np.float32)}, tmp_path / "x.s4se")

    def test_bad_id_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            save_style_cache({0: np.zeros(STYLE_DIM, dtype=np.float32)}, tmp_path / "x.s4se")

    def test_truncated_reports_offset(self, tmp_path):
        path = tmp_path / "t.s4se"
        save_style_cache({1: np.zeros(STYLE_DIM, dtype=np.float32)}, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(FormatError, match="byte"):
            load_style_cache(path)

    @pytest.mark.parametrize("ids, at, new_id, match", [
        ((1, 2), 12 + 4 + 4 * STYLE_DIM, 1, "repeated product id 1"),  # second id
        ((1,), 12, 0, "padding product id 0"),  # first id
        ((1, 2, 3), 12 + 2 * (4 + 4 * STYLE_DIM), 1, "out-of-order product id 1"),  # third id
    ])
    def test_repeated_or_zero_id_is_format_error(self, tmp_path, ids, at, new_id, match):
        path = tmp_path / "ids.s4se"
        save_style_cache({i: np.full(STYLE_DIM, i, dtype=np.float32) for i in ids}, path)
        blob = bytearray(path.read_bytes())
        blob[at:at + 4] = struct.pack("<I", new_id)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"{match} at byte {at}"):
            load_style_cache(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_value_is_format_error(self, tmp_path, value):
        vecs = {i: np.full(STYLE_DIM, i, dtype=np.float32) for i in (1, 2)}
        vecs[2][7] = value
        path = tmp_path / "nf.s4se"
        save_style_cache(vecs, path)
        at = 12 + (4 + 4 * STYLE_DIM) + 4 + 4 * 7  # the second vector's eighth float
        with pytest.raises(FormatError, match=f"non-finite value in the style vector for id 2 "
                                              f"at byte {at}$"):
            load_style_cache(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.s4se"
        path.write_bytes(struct.pack("<4sII", b"WHAT", 1, 0))
        with pytest.raises(FormatError, match="magic"):
            load_style_cache(path)

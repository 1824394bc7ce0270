"""Model tests: encodings, attention vs brute force, scoring, checkpoints."""

import itertools
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from fd import check_gradients, rel_error

import stylerec.tensor as T
from stylerec.errors import (
    ConfigError,
    ContractError,
    FormatError,
    InputError,
    MaskError,
    NumericError,
    ShapeError,
)
from stylerec.model import (
    ModelConfig,
    ModelParams,
    build_input,
    encode,
    history_vector,
    init_params,
    init_product_embeddings,
    load_checkpoint,
    multi_head_attention,
    param_count,
    param_shapes,
    pairwise_bce_loss,
    positional_encoding,
    product_table,
    save_checkpoint,
    score,
    transformer_block,
)
from stylerec.seeding import SeedStream
from stylerec.style import STYLE_DIM


def tiny_config(**overrides):
    base = dict(d_product=8, d_model=4, n_blocks=1, n_heads=2, d_ffn=6,
                dropout=0.0, max_len=6)
    base.update(overrides)
    return ModelConfig(**base)


def batch_for(sessions, max_len):
    ids = np.zeros((len(sessions), max_len), dtype=np.int64)
    mask = np.zeros((len(sessions), max_len), dtype=bool)
    for r, items in enumerate(sessions):
        ids[r, :len(items)] = items
        mask[r, :len(items)] = True
    return ids, mask


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.input_dim == 256
        assert cfg.d_ffn == 4 * 256
        assert cfg.head_dim == 128

    def test_style_widens_input(self):
        cfg = ModelConfig(use_style=True)
        assert cfg.input_dim == 256 + STYLE_DIM

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_product=7, d_model=4, n_heads=2)

    def test_odd_d_model_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=5)

    def test_bad_dropout_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(dropout=1.0)

    def test_checkpoint_header_round_trip(self, tmp_path):
        # every field differs from its default
        cfg = ModelConfig(d_product=10, d_model=6, n_blocks=1, n_heads=3, d_ffn=5, dropout=0.25,
                          use_style=True, max_len=9)
        assert all(getattr(cfg, f.name) != getattr(ModelConfig(), f.name) for f in fields(cfg))
        save_checkpoint(init_params(cfg, catalog_size=3, seed=1), tmp_path / "m.s4ck")
        assert load_checkpoint(tmp_path / "m.s4ck").config == cfg


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = positional_encoding(4, 8)
        np.testing.assert_array_equal(pe[0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 1::2], 1.0)

    def test_closed_form_values(self):
        pe = positional_encoding(3, 4)
        assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
        assert pe[1, 1] == pytest.approx(np.cos(1.0), abs=1e-12)
        assert pe[2, 2] == pytest.approx(np.sin(2.0 / 10000.0 ** 0.5), abs=1e-12)

    def test_matches_definition_pointwise(self):
        d = 16
        pe = positional_encoding(20, d)
        for pos in range(20):
            for i in range(d // 2):
                arg = pos / 10000.0 ** (2 * i / d)
                assert abs(pe[pos, 2 * i] - np.sin(arg)) <= 1e-12
                assert abs(pe[pos, 2 * i + 1] - np.cos(arg)) <= 1e-12

    def test_entries_bounded(self):
        pe = positional_encoding(50, 32)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(4, 7)


class TestProductEmbeddings:
    def test_row_zero_is_padding(self):
        table = init_product_embeddings(5, 16, seed=3)
        assert np.all(table[0] == 0.0)
        assert table.shape == (6, 16)

    def test_standard_normal_statistics(self):
        table = init_product_embeddings(2000, 64, seed=4)[1:]
        assert table.size >= 10 ** 5
        assert abs(table.mean()) < 0.02
        assert abs(table.var() - 1.0) < 0.05

    def test_seed_determinism(self):
        a = init_product_embeddings(10, 8, seed=5)
        b = init_product_embeddings(10, 8, seed=5)
        c = init_product_embeddings(10, 8, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestBuildInput:
    def test_default_width_256(self):
        params = init_params(ModelConfig(dropout=0.0), catalog_size=10, seed=0)
        pe = positional_encoding(20, 128)
        ids, mask = batch_for([[1, 2, 3]], 20)
        h = build_input(ids, params, pe)
        assert h.shape == (1, 20, 256)

    def test_style_width_768(self):
        params = init_params(ModelConfig(use_style=True, dropout=0.0), catalog_size=10, seed=0)
        pe = positional_encoding(20, 128)
        table = np.zeros((11, STYLE_DIM), dtype=np.float32)
        ids, mask = batch_for([[1, 2, 3]], 20)
        h = build_input(ids, params, pe, style_table=table)
        assert h.shape == (1, 20, 768)

    def test_padding_rows_zero_product_real_position(self):
        cfg = tiny_config()
        params = init_params(cfg, catalog_size=5, seed=1)
        pe = positional_encoding(cfg.max_len, cfg.d_model)
        ids, mask = batch_for([[4, 2]], cfg.max_len)
        h = build_input(ids, params, pe).data
        assert np.all(h[0, 3, :cfg.d_product] == 0.0)
        np.testing.assert_allclose(h[0, 3, cfg.d_product:], pe[3].astype(np.float32))

    def test_unknown_product_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, catalog_size=5, seed=1)
        pe = positional_encoding(cfg.max_len, cfg.d_model)
        ids, mask = batch_for([[9, 2]], cfg.max_len)
        with pytest.raises(InputError, match="unknown product"):
            encode(ids, mask, params, pe)

    def test_style_table_gating(self):
        cfg = tiny_config()
        params = init_params(cfg, catalog_size=5, seed=1)
        pe = positional_encoding(cfg.max_len, cfg.d_model)
        ids, mask = batch_for([[1, 2]], cfg.max_len)
        with pytest.raises(ContractError):
            build_input(ids, params, pe, style_table=np.zeros((6, STYLE_DIM)))

    def test_non_contiguous_mask_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, catalog_size=5, seed=1)
        pe = positional_encoding(cfg.max_len, cfg.d_model)
        ids = np.array([[1, 0, 2, 0, 0, 0]])
        mask = np.array([[True, False, True, False, False, False]])
        with pytest.raises(MaskError):
            encode(ids, mask, params, pe)


def brute_force_attention(h, params, block, mask, cfg):
    """Straight-line reimplementation: loops over heads/sessions/positions."""
    b, length, d = h.shape
    dh = cfg.head_dim
    out_heads = []
    for i in range(cfg.n_heads):
        wq = params[f"block{block}.head{i}.wq"].data.astype(np.float64)
        wk = params[f"block{block}.head{i}.wk"].data.astype(np.float64)
        wv = params[f"block{block}.head{i}.wv"].data.astype(np.float64)
        head = np.zeros((b, length, dh))
        for s in range(b):
            q = h[s].astype(np.float64) @ wq
            k = h[s].astype(np.float64) @ wk
            v = h[s].astype(np.float64) @ wv
            for pos in range(length):
                logits = np.array([
                    q[pos] @ k[j] / np.sqrt(dh) if mask[s, j] else -np.inf
                    for j in range(length)
                ])
                logits -= logits.max()
                w = np.exp(logits)
                w /= w.sum()
                head[s, pos] = sum(w[j] * v[j] for j in range(length))
        out_heads.append(head)
    wo = params[f"block{block}.wo"].data.astype(np.float64)
    return np.concatenate(out_heads, axis=-1) @ wo


class TestAttention:
    def setup_params(self, cfg, catalog=9, seed=2, dtype=np.float64):
        return init_params(cfg, catalog_size=catalog, seed=seed, dtype=dtype)

    def test_single_position_attends_to_itself(self):
        cfg = tiny_config()
        params = self.setup_params(cfg)
        rng = np.random.default_rng(7)
        h = T.Tensor(rng.standard_normal((1, cfg.max_len, cfg.input_dim)))
        mask = np.zeros((1, cfg.max_len), dtype=bool)
        mask[0, 0] = True
        out = multi_head_attention(h, params, 0, mask)
        # with one valid key, each head's output is exactly that value row
        values = [
            (h.data[0] @ params[f"block0.head{i}.wv"].data)[0]
            for i in range(cfg.n_heads)
        ]
        expected = np.concatenate(values) @ params["block0.wo"].data
        np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-12)

    def test_identical_keys_split_evenly(self):
        cfg = tiny_config(n_heads=1)
        params = self.setup_params(cfg)
        rng = np.random.default_rng(8)
        row = rng.standard_normal(cfg.input_dim)
        h = np.zeros((1, cfg.max_len, cfg.input_dim))
        h[0, 0] = row
        h[0, 1] = row  # same key and value
        mask = np.zeros((1, cfg.max_len), dtype=bool)
        mask[0, :2] = True
        wq = params["block0.head0.wq"].data
        wk = params["block0.head0.wk"].data
        wv = params["block0.head0.wv"].data
        q = h[0] @ wq
        k = h[0] @ wk
        logits = (q[0] @ k[:2].T) / np.sqrt(cfg.head_dim)
        assert logits[0] == pytest.approx(logits[1])
        out = multi_head_attention(T.Tensor(h), params, 0, mask)
        expected = (0.5 * (h[0, 0] @ wv) + 0.5 * (h[0, 1] @ wv)) @ params["block0.wo"].data
        np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-10)

    def test_matches_brute_force(self):
        cfg = tiny_config(max_len=5)
        params = self.setup_params(cfg, seed=11)
        rng = np.random.default_rng(9)
        h = rng.standard_normal((3, 5, cfg.input_dim))
        _, mask = batch_for([[1, 2, 3], [1], [1, 2, 3, 4, 5]], 5)
        out = multi_head_attention(T.Tensor(h), params, 0, mask)
        expected = brute_force_attention(h, params, 0, mask, cfg)
        # compare only valid query rows; padding queries are masked downstream
        for s in range(3):
            valid = mask[s]
            np.testing.assert_allclose(out.data[s][valid], expected[s][valid],
                                       rtol=1e-10, atol=1e-12)

    def test_single_head_identity_wo_is_plain_attention(self):
        cfg = tiny_config(n_heads=1)
        params = self.setup_params(cfg, seed=12)
        params.tensors["block0.wo"] = T.Tensor(np.eye(cfg.input_dim), requires_grad=True)
        rng = np.random.default_rng(10)
        h = rng.standard_normal((1, cfg.max_len, cfg.input_dim))
        _, mask = batch_for([[1, 2, 3, 4]], cfg.max_len)
        out = multi_head_attention(T.Tensor(h), params, 0, mask)
        q = h[0] @ params["block0.head0.wq"].data
        k = h[0] @ params["block0.head0.wk"].data
        v = h[0] @ params["block0.head0.wv"].data
        logits = q @ k.T / np.sqrt(cfg.input_dim)
        logits[:, ~mask[0]] = -np.inf
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data[0][mask[0]], (w @ v)[mask[0]], rtol=1e-10)

    def test_all_masked_session_rejected(self):
        cfg = tiny_config()
        params = self.setup_params(cfg)
        h = T.Tensor(np.zeros((1, cfg.max_len, cfg.input_dim)))
        with pytest.raises(MaskError):
            multi_head_attention(h, params, 0, np.zeros((1, cfg.max_len), dtype=bool))


class TestTransformerBlock:
    def test_residual_only_path_is_double_layer_norm(self):
        cfg = tiny_config()
        params = init_params(cfg, catalog_size=5, seed=3, dtype=np.float64)
        # zero the sublayer output projections: both sublayers contribute 0
        params.tensors["block0.wo"] = T.Tensor(
            np.zeros((cfg.input_dim, cfg.input_dim)), requires_grad=True)
        params.tensors["block0.ffn.w2"] = T.Tensor(
            np.zeros((cfg.d_ffn, cfg.input_dim)), requires_grad=True)
        rng = np.random.default_rng(13)
        h = rng.standard_normal((2, cfg.max_len, cfg.input_dim))
        _, mask = batch_for([[1, 2], [1, 2, 3]], cfg.max_len)
        out = transformer_block(T.Tensor(h), params, 0, mask)
        ones = np.ones(cfg.input_dim)
        zeros = np.zeros(cfg.input_dim)
        ln = T.layer_norm(T.layer_norm(T.Tensor(h), ones, zeros), ones, zeros)
        np.testing.assert_allclose(out.data, ln.data, rtol=1e-10, atol=1e-12)

    def test_output_shape_matches_input(self):
        cfg = tiny_config()
        params = init_params(cfg, catalog_size=5, seed=3)
        rng = np.random.default_rng(14)
        h = rng.standard_normal((2, cfg.max_len, cfg.input_dim)).astype(np.float32)
        _, mask = batch_for([[1, 2], [1, 2, 3]], cfg.max_len)
        out = transformer_block(T.Tensor(h), params, 0, mask)
        assert out.shape == h.shape

    def test_stacked_blocks_use_distinct_params(self):
        cfg = tiny_config(n_blocks=2)
        params = init_params(cfg, catalog_size=5, seed=4)
        assert not np.array_equal(params["block0.head0.wq"].data,
                                  params["block1.head0.wq"].data)
        pe = positional_encoding(cfg.max_len, cfg.d_model)
        ids, mask = batch_for([[1, 2, 3]], cfg.max_len)
        out = encode(ids, mask, params, pe)
        assert out.shape == (1, 3, cfg.input_dim)  # the batch's longest session

    def test_dropout_needs_seed_stream(self):
        # a seed stream turns dropout on, one seed per sublayer; without one
        # the block computes what it does with dropout 0
        cfg = tiny_config(dropout=0.5)
        params = init_params(cfg, catalog_size=5, seed=5, dtype=np.float64)
        h = T.Tensor(np.random.default_rng(5).standard_normal((1, cfg.max_len, cfg.input_dim)))
        _, mask = batch_for([[1, 2]], cfg.max_len)
        no_dropout = ModelParams(tiny_config(dropout=0.0), 5, params.tensors)
        np.testing.assert_array_equal(transformer_block(h, params, 0, mask).data,
                                      transformer_block(h, no_dropout, 0, mask).data)

        stream = SeedStream(1, "drop")
        s1, s2 = stream.next_seed(), stream.next_seed()
        ln1 = (params["block0.ln1.gamma"], params["block0.ln1.beta"])
        ln2 = (params["block0.ln2.gamma"], params["block0.ln2.beta"])
        att = T.dropout(multi_head_attention(h, params, 0, mask), 0.5, seed=s1)
        h1 = T.layer_norm(T.add(h, att), *ln1)
        inner = T.relu(T.add(T.matmul(h1, params["block0.ffn.w1"]), params["block0.ffn.b1"]))
        ffn = T.add(T.matmul(inner, params["block0.ffn.w2"]), params["block0.ffn.b2"])
        expected = T.layer_norm(T.add(h1, T.dropout(ffn, 0.5, seed=s2)), *ln2)
        seeded = transformer_block(h, params, 0, mask, seeds=SeedStream(1, "drop"))
        np.testing.assert_array_equal(seeded.data, expected.data)
        assert not np.array_equal(seeded.data, transformer_block(h, params, 0, mask).data)

    def test_cut_columns_keep_the_padded_dropout_masks(self):
        # encode runs two of six columns; each keep mask is drawn at the
        # padded [B, 6, D] and cut to two columns, as at full width
        cfg = tiny_config(dropout=0.5)
        params = init_params(cfg, catalog_size=5, seed=5, dtype=np.float64)
        pe = positional_encoding(cfg.max_len, cfg.d_model)
        ids, mask = batch_for([[1, 2], [3]], cfg.max_len)
        h = build_input(ids[:, :2], params, pe)

        def drop(x, seed):
            draw = np.random.default_rng(seed).random((2, cfg.max_len, cfg.input_dim))
            return T.Tensor(x.data * ((draw[:, :2] >= 0.5) * 2.0))

        stream = SeedStream(1, "drop")
        s1, s2 = stream.next_seed(), stream.next_seed()
        ln1 = (params["block0.ln1.gamma"], params["block0.ln1.beta"])
        ln2 = (params["block0.ln2.gamma"], params["block0.ln2.beta"])
        h1 = T.layer_norm(T.add(h, drop(multi_head_attention(h, params, 0, mask[:, :2]), s1)),
                          *ln1)
        inner = T.relu(T.add(T.matmul(h1, params["block0.ffn.w1"]), params["block0.ffn.b1"]))
        ffn = T.add(T.matmul(inner, params["block0.ffn.w2"]), params["block0.ffn.b2"])
        expected = T.layer_norm(T.add(h1, drop(ffn, s2)), *ln2).data[mask[:, :2]]
        block = transformer_block(h, params, 0, mask, seeds=SeedStream(1, "drop"))
        encoded = encode(ids, mask, params, pe, seeds=SeedStream(1, "drop"))
        assert block.shape == encoded.shape == (2, 2, cfg.input_dim)
        np.testing.assert_array_equal(block.data[mask[:, :2]], expected)
        np.testing.assert_array_equal(encoded.data[mask[:, :2]], expected)

    def test_mask_valid_past_the_hidden_width_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, catalog_size=5, seed=5, dtype=np.float64)
        _, mask = batch_for([[1, 2, 3]], cfg.max_len)
        h = T.Tensor(np.ones((1, 2, cfg.input_dim)))
        with pytest.raises(MaskError):
            transformer_block(h, params, 0, mask)
        with pytest.raises(MaskError):
            history_vector(h, mask, params)


class TestHistoryAndScore:
    def make(self, cfg=None, seed=6):
        cfg = cfg or tiny_config()
        params = init_params(cfg, catalog_size=9, seed=seed, dtype=np.float64)
        pe = positional_encoding(cfg.max_len, cfg.d_model)
        return cfg, params, pe

    def test_length_one_session_uses_position_zero(self):
        cfg, params, pe = self.make()
        ids, mask = batch_for([[3]], cfg.max_len)
        hidden = encode(ids, mask, params, pe)
        vec = history_vector(hidden, mask, params)
        expected = hidden.data[0, 0] @ params["w_out"].data
        np.testing.assert_allclose(vec.data[0], expected, rtol=1e-12)
        assert vec.shape == (1, cfg.d_product)

    def test_padding_does_not_change_history(self):
        cfg, params, pe = self.make()
        short_ids, short_mask = batch_for([[2, 5, 1]], 4)
        long_ids, long_mask = batch_for([[2, 5, 1]], cfg.max_len)
        v_short = history_vector(encode(short_ids, short_mask, params, pe),
                                 short_mask, params)
        v_long = history_vector(encode(long_ids, long_mask, params, pe),
                                long_mask, params)
        np.testing.assert_array_equal(v_short.data, v_long.data)

    def test_empty_session_rejected(self):
        cfg, params, pe = self.make()
        hidden = T.Tensor(np.ones((1, cfg.max_len, cfg.input_dim)))
        with pytest.raises(ContractError):
            history_vector(hidden, np.zeros((1, cfg.max_len), dtype=bool), params)

    def test_score_of_matching_embedding_is_one(self):
        _, params, _ = self.make()
        h = params.product_emb.data[4].copy()
        s = score(h, np.array([4, 5, 6]), product_table(params))
        assert s[0] == pytest.approx(1.0)
        assert np.all(s <= 1.0 + 1e-12) and np.all(s >= -1.0 - 1e-12)

    def test_score_scale_invariant(self):
        _, params, _ = self.make()
        rng = np.random.default_rng(15)
        h = rng.standard_normal(params.config.d_product)
        cands = np.arange(1, 10)
        table = product_table(params)
        np.testing.assert_allclose(score(h, cands, table), score(3.7 * h, cands, table),
                                   rtol=1e-12)

    def test_score_zero_norm_rejected(self):
        _, params, _ = self.make()
        with pytest.raises(NumericError):
            score(np.zeros(params.config.d_product), np.array([1]), product_table(params))

    def test_score_candidate_range_checked(self):
        _, params, _ = self.make()  # a catalog of 9
        h = np.ones(params.config.d_product)
        table = product_table(params)
        score(h, np.array([1, 9]), table)
        for ids in ([0], [10], []):
            with pytest.raises(ContractError):
                score(h, np.array(ids, dtype=np.int64), table)
        # the table alone sets the catalog
        with pytest.raises(ContractError, match=r"1\.\.8"):
            score(h, np.array([9]), (table[0][:9], table[1][:9]))


class TestProductTable:
    """``score`` against a ``product_table`` built once for many calls."""

    P = 5003  # past one NORM_BLOCK, and wide enough for BLAS's tail rows

    def make(self):
        params = init_params(tiny_config(d_product=16), self.P, seed=21)
        rng = np.random.default_rng(22)
        return params, rng

    def test_norms_equal_unblocked_norms(self):
        params, _ = self.make()
        table, norms = product_table(params)
        assert table.dtype == np.float64
        np.testing.assert_array_equal(table, params.product_emb.data)
        np.testing.assert_array_equal(norms, np.linalg.norm(table, axis=1))

    def test_scores_match_untabled_within_2_ulp(self):
        params, rng = self.make()
        table = product_table(params)
        for trial in range(20):
            # float32 like a history vector from the encoder
            h = rng.standard_normal(16).astype(np.float32)
            exclude = rng.integers(1, self.P + 1, size=int(rng.integers(0, 10)))
            full = np.setdiff1d(np.arange(1, self.P + 1), exclude)
            negsample = rng.choice(full, size=101, replace=False)
            for ids in (full, negsample):
                with_table = score(h, ids, table)
                assert with_table.dtype == np.float64
                # the reference gathers and converts the candidate rows alone
                emb = params.product_emb.data[ids].astype(np.float64)
                gathered = (emb @ h.astype(np.float64)) / (np.linalg.norm(emb, axis=1)
                                                           * np.linalg.norm(h))
                np.testing.assert_array_max_ulp(with_table, gathered, maxulp=2)

    def test_zero_norm_row_rejected(self):
        params, _ = self.make()
        params.product_emb.data[7] = 0.0
        table = product_table(params)
        for ids in (np.array([6, 7]), np.arange(1, self.P + 1)):
            with pytest.raises(NumericError):
                score(np.ones(16), ids, table)


class TestPairwiseLoss:
    def test_equal_scores_give_ln2(self):
        loss = pairwise_bce_loss(T.Tensor(np.array([2.0])), T.Tensor(np.array([2.0])))
        assert loss.data[0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_matches_softmax_definition(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            sp, sn = rng.standard_normal(2) * 3
            p = np.exp(sp) / (np.exp(sp) + np.exp(sn))
            loss = pairwise_bce_loss(T.Tensor(np.array([sp])), T.Tensor(np.array([sn])))
            assert loss.data[0] == pytest.approx(-np.log(p), rel=1e-10)

    def test_monotone_decreasing_in_margin(self):
        margins = np.linspace(-6, 6, 25)
        losses = [
            pairwise_bce_loss(T.Tensor(np.array([m])), T.Tensor(np.array([0.0]))).data[0]
            for m in margins
        ]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.01

    def test_gradient_sign_and_finite_differences(self):
        def build(ts):
            return T.sum_all(pairwise_bce_loss(ts[0], ts[1]))

        sp = np.array([0.3, -1.0, 2.0])
        sn = np.array([0.1, 0.5, 2.0])
        check_gradients(build, [sp, sn], atol=1e-6)
        pos = T.Tensor(sp, requires_grad=True)
        neg = T.Tensor(sn, requires_grad=True)
        T.backward(T.sum_all(pairwise_bce_loss(pos, neg)))
        assert np.all(pos.grad < 0.0)
        assert np.all(neg.grad > 0.0)


class TestEndToEndGradients:
    def test_loss_gradient_every_parameter_group(self):
        self.check_every_parameter_group([[3, 1, 5]], 4, 0.0, None)  # 3-item toy session

    def test_loss_gradient_with_cut_columns_and_dropout(self):
        # the batch runs 3 of 6 columns, the second session is still padded
        # within them, and each dropout mask is cut from the padded draw
        self.check_every_parameter_group([[3, 1, 5], [2]], 6, 0.5, 17)

    @staticmethod
    def check_every_parameter_group(sessions, max_len, dropout, seed):
        cfg = ModelConfig(d_product=6, d_model=4, n_blocks=2, n_heads=2, d_ffn=5,
                          dropout=dropout, max_len=max_len)
        params = init_params(cfg, catalog_size=7, seed=21, dtype=np.float64)
        ids, mask = batch_for(sessions, cfg.max_len)
        pe = positional_encoding(cfg.max_len, cfg.d_model)
        pos_id, neg_id = np.array([4, 6])[:len(sessions)], np.array([2, 7])[:len(sessions)]

        def forward_loss():
            seeds = None if seed is None else SeedStream(seed, "drop")
            hidden = encode(ids, mask, params, pe, seeds=seeds)
            hist = history_vector(hidden, mask, params)
            pos_emb = T.embedding_lookup(params.product_emb, pos_id)
            neg_emb = T.embedding_lookup(params.product_emb, neg_id)
            s_pos = T.cosine_similarity(hist, pos_emb)
            s_neg = T.cosine_similarity(hist, neg_emb)
            return T.sum_all(pairwise_bce_loss(s_pos, s_neg))

        loss = forward_loss()
        grads = T.backward(loss)
        h = 1e-5
        worst = 0.0
        for name, t in sorted(params.items()):
            analytic = grads[t]
            numeric = np.zeros_like(t.data)
            flat = t.data.ravel()
            num_flat = numeric.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = forward_loss().item()
                flat[j] = orig - h
                down = forward_loss().item()
                flat[j] = orig
                num_flat[j] = (up - down) / (2 * h)
            err = rel_error(analytic, numeric)
            assert err <= 1e-4, f"{name}: rel error {err:.2e}"
            worst = max(worst, err)
        assert worst <= 1e-4


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config(use_style=True, dropout=0.2)
        params = init_params(cfg, catalog_size=7, seed=30)
        path = tmp_path / "model.s4ck"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.config == cfg
        assert back.catalog_size == 7
        assert sorted(back.tensors) == sorted(params.tensors)
        for name, t in params.items():
            assert back[name].dtype == np.float32
            np.testing.assert_array_equal(back[name].data, t.data)
        # file-level: save(load(x)) is byte-identical
        path2 = tmp_path / "again.s4ck"
        save_checkpoint(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncation_reports_offset(self, tmp_path):
        params = init_params(tiny_config(), catalog_size=3, seed=31)
        path = tmp_path / "model.s4ck"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError, match="byte"):
            load_checkpoint(path)

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "bad.s4ck"
        path.write_bytes(b"XXXX" + b"\x01\x00\x00\x00")
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)
        path.write_bytes(b"S4CK" + b"\x09\x00\x00\x00")
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        # 12 floats, fewer bytes than the records' names and shapes: the file still holds
        # 4 bytes per declared parameter, so the missing tensor is named
        (lambda t: t.pop("block0.ln2.beta"), "lacks 1 tensor\\(s\\), the first block0.ln2.beta$"),
        (lambda t: t.update(extra=T.Tensor(np.zeros(3, dtype=np.float32))), "not in its config"),
        (lambda t: t.update(w_out=T.Tensor(t["w_out"].data.T.copy())), "shape"),
        (lambda t: t.update(product_emb=T.Tensor(t["product_emb"].data[:-1].copy())), "shape"),
        # 96 floats: fewer bytes follow the config block than its parameters need
        (lambda t: t.pop("w_out"), "declares 930 parameters \\(3720 bytes\\), but 3712 bytes"),
    ], ids=["missing", "extra", "transposed", "short-table", "missing-data"])
    def test_tensors_must_match_config(self, tmp_path, edit, match):
        params = init_params(tiny_config(), catalog_size=5, seed=33)
        edit(params.tensors)
        path = tmp_path / "model.s4ck"
        save_checkpoint(params, path)
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    def test_param_shapes_describe_init(self):
        for cfg in (tiny_config(), tiny_config(use_style=True, n_blocks=2)):
            params = init_params(cfg, catalog_size=6, seed=34)
            assert {n: t.shape for n, t in params.items()} == param_shapes(cfg, 6)
            assert list(params.tensors) == list(param_shapes(cfg, 6))

    @pytest.mark.parametrize("use_style", [False, True])
    @pytest.mark.parametrize("d_ffn", [0, 7])  # 0 selects the 4x input_dim default
    def test_param_count_sums_param_shapes(self, use_style, d_ffn):
        for n_blocks, n_heads in itertools.product(range(1, 6), range(1, 5)):
            if (12 + use_style * STYLE_DIM) % n_heads:
                continue  # an input dim of 12 or 524 that n_heads does not divide
            cfg = tiny_config(use_style=use_style, d_ffn=d_ffn, n_blocks=n_blocks,
                              n_heads=n_heads)
            shapes = param_shapes(cfg, 9)
            assert param_count(cfg, 9) == sum(map(math.prod, shapes.values())), cfg

    def test_reloaded_model_scores_identically(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, catalog_size=9, seed=32)
        pe = positional_encoding(cfg.max_len, cfg.d_model)
        ids, mask = batch_for([[1, 4, 2]], cfg.max_len)
        hist = history_vector(encode(ids, mask, params, pe), mask, params)
        s1 = score(hist.data[0], np.arange(1, 10), product_table(params))
        path = tmp_path / "model.s4ck"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        hist2 = history_vector(encode(ids, mask, back, pe), mask, back)
        s2 = score(hist2.data[0], np.arange(1, 10), product_table(back))
        np.testing.assert_array_equal(s1, s2)



class TestRefusals:
    """Each refusal of a model function names its fault. A call takes ``m``: untrained
    parameters over a catalog of 5 with and without style, their positional table, and
    one two-item session padded to max_len 6."""

    @pytest.fixture
    def m(self):
        cfg = tiny_config()
        ids, mask = batch_for([[1, 2]], cfg.max_len)
        return SimpleNamespace(params=init_params(cfg, 5, 1), ids=ids, mask=mask,
                               styled=init_params(tiny_config(use_style=True), 5, 1),
                               pe=positional_encoding(cfg.max_len, cfg.d_model))

    @pytest.mark.parametrize("call, error, message", [
        (lambda m: tiny_config(d_ffn=-1), ConfigError, "d_ffn must be >= 1, got -1"),
        (lambda m: positional_encoding(0, 4), ConfigError, "max_len must be >= 1, got 0"),
        (lambda m: init_product_embeddings(0, 8, 0), ConfigError,
         "catalog_size must be >= 1, got 0"),
        (lambda m: encode(m.ids[0], m.mask[0], m.params, m.pe), ShapeError,
         "session batch must be [B, L], got (6,)"),
        (lambda m: encode(m.ids, m.mask[:, :5], m.params, m.pe), MaskError,
         "mask shape (1, 5) does not match ids (1, 6)"),
        (lambda m: encode(-m.ids, m.mask, m.params, m.pe), InputError, "negative product id -2"),
        (lambda m: encode(m.ids, m.mask | True, m.params, m.pe), MaskError,
         "mask must flag exactly the non-padding (nonzero id) positions"),
        (lambda m: history_vector(T.Tensor(np.zeros((1, 12))), m.mask, m.params), ShapeError,
         "need [B, W, D] hidden states and a [B, L >= W] mask, got (1, 12) and (1, 6)"),
        (lambda m: build_input(m.ids, m.styled, m.pe), ContractError,
         "use_style is on but no style table was provided"),
        (lambda m: build_input(np.ones((1, 7), dtype=np.int64), m.params, m.pe), ShapeError,
         "session length 7 exceeds positional table 6"),
        (lambda m: build_input(m.ids, m.styled, m.pe, style_table=np.zeros((5, STYLE_DIM))),
         ShapeError, "style table shape (5, 512), expected (6, 512)"),
        (lambda m: multi_head_attention(T.Tensor(np.zeros((1, 6, 5))), m.params, 0, m.mask),
         ShapeError, "attention input must be [B, L, 12], got (1, 6, 5)"),
        (lambda m: score(np.zeros((2, 8)), [1, 2], product_table(m.params)), ShapeError,
         "score expects one history vector, got shape (2, 8)"),
    ], ids=["d-ffn-below-1", "positional-max-len-0", "catalog-0", "ids-not-a-batch",
            "mask-shape", "negative-id", "mask-flags-padding", "hidden-not-3d",
            "style-model-without-table", "longer-than-the-positional-table",
            "style-table-shape", "attention-width", "score-of-a-batch"])
    def test_refusal_names_its_fault(self, m, call, error, message):
        with pytest.raises(error) as refused:
            call(m)
        assert str(refused.value) == message

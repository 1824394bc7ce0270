"""Training-loop, sampling, evaluation-protocol, and experiment tests."""

import hashlib
import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import short_switch_interval
from stylerec import tensor as T
from stylerec import threads, training
from stylerec.data import PURCHASE, PreparedDataset, Session, generate_synthetic, prepare_dataset
from stylerec.errors import ConfigError, ContractError, InputError
from stylerec.metrics import FULL_CATALOG, NEGSAMPLE
from stylerec.model import (
    ModelConfig,
    ModelParams,
    encode,
    history_vector,
    init_params,
    load_checkpoint,
    positional_encoding,
    save_checkpoint,
    score,
)
from stylerec.training import (
    ADAM_BLOCK,
    CONFIGURATIONS,
    Adam,
    Run,
    TrainConfig,
    TrainResult,
    _catalog_pool,
    curve_lines,
    dynamic_experiment,
    evaluate,
    evaluate_test_split,
    evaluate_with_scorer,
    l2_penalty,
    oracle_scorer,
    pick_eval_mode,
    popularity_scorer,
    random_scorer,
    run_experiment,
    run_model_config,
    sample_negatives,
    suite_runs,
    sweep_order_key,
    sweep_runs,
    train,
    training_loss,
)

TINY_MODEL = dict(d_product=8, d_model=4, n_blocks=1, n_heads=2, d_ffn=8,
                  dropout=0.0, max_len=8)
# the model settings a driver takes: the run sets max_len from the dataset
TINY_KWARGS = {k: v for k, v in TINY_MODEL.items() if k != "max_len"}


def tiny_dataset(P=8, n=120, seed=0, cart_ratio=0.0, length_range=(3, 6)):
    sessions, oracle = generate_synthetic(P, n, length_range=length_range, seed=seed,
                                          cart_ratio=cart_ratio)
    return prepare_dataset(sessions, max_len=8), oracle


class TestSampleNegatives:
    def test_excludes_truth_and_session_items(self):
        items = (3, 9, 14, 9)
        for seed in range(20):
            negs = sample_negatives(items, 30, 10, seed)
            assert len(negs) == 10
            assert len(set(negs.tolist())) == 10
            assert not (set(negs.tolist()) & set(items))

    def test_candidate_count_101(self):
        negs = sample_negatives((5, 6, 7), 200, 100, seed=1)
        candidates = np.concatenate(([7], negs))
        assert len(candidates) == 101

    def test_deterministic_per_seed(self):
        a = sample_negatives((1, 2), 50, 10, seed=5)
        b = sample_negatives((1, 2), 50, 10, seed=5)
        c = sample_negatives((1, 2), 50, 10, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_small_catalog_rejected(self):
        with pytest.raises(ConfigError):
            sample_negatives((1, 2, 3), 10, 8, seed=0)

    @staticmethod
    def list_pool(items, catalog_size):
        """Reference pool: a list comprehension over the whole catalog."""
        exclude = set(int(i) for i in items)
        return np.array([i for i in range(1, catalog_size + 1) if i not in exclude],
                        dtype=np.int64)

    def test_pool_free_draw_matches_the_pool_draw(self):
        """The draw equals ``rng.choice`` over ``_catalog_pool`` at catalogs up to 50,000,
        through both of numpy's ways to draw without replacement: Floyd's, and a shuffle
        of the whole pool's tail when a pool above 10,000 supplies more than 1/50 of it."""
        rng = np.random.default_rng(32)
        for P in (120, 10_000, 10_013, 20_001, 50_000):
            for trial in range(12):
                # the ends of the catalog, repeats, and ids outside 1..P
                items = np.concatenate((rng.integers(-2, P + 3, size=int(rng.integers(1, 40))),
                                        [1, 2, 2, P][:trial % 5]))
                pool = _catalog_pool(P, items)
                for n in (1, min(100, pool.size), pool.size // 50 + 1, pool.size // 3):
                    old = np.random.default_rng(trial).choice(pool, size=n, replace=False)
                    new = sample_negatives(tuple(items), P, n, trial)
                    assert new.dtype == old.dtype
                    np.testing.assert_array_equal(new, old)

    def test_mask_pool_matches_list_pool(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            P = int(rng.integers(1, 400))
            # repeated items, and ids outside 1..P that the pool ignores
            items = rng.integers(-2, P + 3, size=int(rng.integers(1, 12)))
            items = np.concatenate((items, items[:int(rng.integers(0, 4))]))
            pool = self.list_pool(items, P)
            np.testing.assert_array_equal(_catalog_pool(P, items), pool)
            n = int(rng.integers(1, 120))
            if pool.size < n:
                with pytest.raises(ConfigError, match=f"catalog of {P} cannot supply {n} "
                                   f"negatives for a session with "
                                   f"{len(set(items.tolist()))} distinct items"):
                    sample_negatives(tuple(items), P, n, seed=trial)
            else:
                old = np.random.default_rng(trial).choice(pool, size=n, replace=False)
                np.testing.assert_array_equal(sample_negatives(tuple(items), P, n, trial), old)


class TestAdam:
    # one f32 model over six ADAM_BLOCKs, which two workers share out; rounding p
    # to f32 hides a last-bit change of the update, so one f64 model of small
    # updates pins it
    CASES = ((np.float32, {"big": (5, ADAM_BLOCK + 11), "small": (7, 5)}, 1.0),
             (np.float64, {"exact": (4, 6), "row": (9,)}, 1e-3))

    def test_in_place_step_bit_identical_to_formula(self, monkeypatch):
        """Blocked steps over the flat buffer equal the out-of-place f64 formula bit
        for bit at one and at two workers (``threads.WORKERS`` when the ``Adam`` is
        built), so the worker count cannot change a bit, and every tensor keeps its
        views of ``adam.data`` and ``adam.grad``. A short switch interval interleaves
        the two workers' block claims as finely as the interpreter allows: a block
        updated twice or skipped breaks the equality."""
        with short_switch_interval():
            for workers in (1, 2):
                monkeypatch.setattr(threads, "WORKERS", workers)
                self.check_steps_against_formula(workers)

    def check_steps_against_formula(self, workers):
        rng = np.random.default_rng(40)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        for dtype, shapes, scale in self.CASES:
            tensors = {name: T.Tensor(scale * rng.standard_normal(shape), requires_grad=True,
                                      dtype=dtype) for name, shape in shapes.items()}
            params = ModelParams(ModelConfig(), 1, tensors)
            ref_p = {name: t.data.copy() for name, t in tensors.items()}
            ref_m = {name: np.zeros(shape) for name, shape in shapes.items()}
            ref_v = {name: np.zeros(shape) for name, shape in shapes.items()}
            adam = Adam(params, lr)
            assert adam.data.dtype == dtype and adam.m.dtype == np.float64
            assert adam.workers == (workers if adam.data.size > ADAM_BLOCK else 1)
            assert not adam.grad.any()
            for step in range(1, 4):
                for name, shape in shapes.items():
                    params[name].grad[...] = rng.standard_normal(shape).astype(np.float32)
                adam.step(adam.grad)
                b1c, b2c = 1.0 - b1 ** step, 1.0 - b2 ** step
                for name, t in tensors.items():
                    g = t.grad.astype(np.float64)
                    ref_m[name] = b1 * ref_m[name] + (1 - b1) * g
                    ref_v[name] = b2 * ref_v[name] + (1 - b2) * (g * g)
                    update = lr * (ref_m[name] / b1c) / (np.sqrt(ref_v[name] / b2c) + eps)
                    ref_p[name] = (ref_p[name].astype(np.float64) - update).astype(dtype)
                    assert np.shares_memory(t.data, adam.data)
                    assert np.shares_memory(t.grad, adam.grad)
                    np.testing.assert_array_equal(t.data, ref_p[name])
                np.testing.assert_array_equal(adam.m, np.concatenate(
                    [ref_m[name].reshape(-1) for name in shapes]))
                np.testing.assert_array_equal(adam.v, np.concatenate(
                    [ref_v[name].reshape(-1) for name in shapes]))

    def test_backward_accumulates_into_the_buffer(self):
        params = init_params(ModelConfig(**TINY_MODEL), catalog_size=6, seed=2)
        pos_enc = positional_encoding(8, 4)
        ids, mask = np.array([[1, 2, 3]]), np.array([[True, True, True]])

        def loss():
            return training_loss(params, ids, mask, np.array([4]), np.array([5]), pos_enc)

        grads = T.backward(loss())
        fresh = {name: grads[t].copy() for name, t in params.items()}
        adam = Adam(params, 1e-3)
        T.backward(loss())
        T.backward(loss())
        for name, t in params.items():
            assert np.shares_memory(t.grad, adam.grad)
            np.testing.assert_array_equal(t.grad, fresh[name] + fresh[name])

    def test_mixed_dtypes_rejected(self):
        tensors = {"a": T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True),
                   "b": T.Tensor(np.ones(3), requires_grad=True)}
        with pytest.raises(ContractError):
            Adam(ModelParams(ModelConfig(), 1, tensors), 1e-3)

    def test_train_calls_share_one_helper_thread(self):
        """Every ``Adam`` shares the process's one helper thread: the first
        ``train`` of a model over two ADAM_BLOCKs starts at most that thread,
        and a second ``train`` starts none."""
        ds, _ = tiny_dataset()
        m = ModelConfig(**{**TINY_MODEL, "d_product": 64, "d_ffn": 256})
        assert Adam(init_params(m, ds.catalog_size, 0), 1e-3).workers == threads.WORKERS
        cfg = TrainConfig(epochs=1, seed=6, batch_size=32)
        before = threading.active_count()
        train(ds, m, cfg)
        after_one = threading.active_count()
        train(ds, m, cfg)
        assert threading.active_count() <= after_one <= before + 1
        helpers = [t for t in threading.enumerate() if t.name.startswith("stylerec-helper")]
        assert len(helpers) == threads.WORKERS - 1


def params_digest(params: ModelParams) -> str:
    """SHA-256 of every parameter's name and bytes, in insertion order."""
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


SEEDED_MODEL = dict(d_product=16, d_model=8, n_blocks=1, n_heads=2, d_ffn=32, max_len=6)
# configuration, dropout, l2; the style model spans several ADAM_BLOCKs
SEEDED_RUNS = (("P", 0.0, 0.0), ("P+Cart", 0.0, 1e-4), ("P+Style", 0.1, 1e-3))


def seeded_training_digests() -> dict:
    """Per configuration of ``SEEDED_RUNS``: the digest of the final parameters
    and of the JSON per-epoch history of a short seeded ``train`` run."""
    sessions, _ = generate_synthetic(30, 300, length_range=(3, 6), seed=21, cart_ratio=0.3)
    ds = prepare_dataset(sessions, max_len=6)
    style = np.random.default_rng(21).standard_normal((31, 512)).astype(np.float32)
    style[0] = 0.0
    got = {}
    for configuration, dropout, l2 in SEEDED_RUNS:
        cfg = TrainConfig(epochs=3, seed=21, batch_size=32, learning_rate=3e-3, l2=l2,
                          configuration=configuration)
        model_cfg = ModelConfig(dropout=dropout, use_style=cfg.use_style, **SEEDED_MODEL)
        result = train(ds, model_cfg, cfg, style_table=style if cfg.use_style else None)
        got[configuration] = [params_digest(result.params),
                              hashlib.sha256(json.dumps(result.history).encode()).hexdigest()]
    return got


class TestSeededTraining:
    """Three short seeded ``train`` runs, pinned bit for bit: the final
    parameters and the per-epoch loss/val history. A change to any number
    training produces fails here. ``train`` runs at one BLAS thread
    (``threads.one_blas_thread``), so the digests do not depend on the
    machine's CPU count."""

    RECORDED = {
        "P": ["5ff6c4c791b7ee3a22a8434ac6d6ca8a8c0493b9e73bb662e58d3557a0a19d97",
              "4977e5665efbe0360cdf389adc1446aa926dd791e3bf5779dd1cfabecd3cf2fb"],
        "P+Cart": ["21cacacdbb5259624777c1278f7c129ecee12a1780885d036a656abba70ca171",
                   "29c153a596b2f90a241e70dc0be61c7493dcaaa50b8416b578e75469644a0bca"],
        "P+Style": ["e2d30065f95cb08bf17074cb4214b989b79d264d886516c8d61f127d10019428",
                    "a8fd467768cacf81318acca01d954fa9dd39705fa2ec4d7a12b2d7638d6553c5"],
    }

    def test_final_parameters_and_history_are_pinned(self):
        assert seeded_training_digests() == self.RECORDED


class TestTrainingLoss:
    def test_equal_scores_give_ln2_plus_l2(self):
        cfg = ModelConfig(**TINY_MODEL)
        params = init_params(cfg, catalog_size=6, seed=2, dtype=np.float64)
        # make the positive and negative products exact copies
        emb = params.product_emb.data
        emb[5] = emb[4]
        pos_enc = positional_encoding(cfg.max_len, cfg.d_model)
        ids = np.zeros((1, cfg.max_len), dtype=np.int64)
        mask = np.zeros((1, cfg.max_len), dtype=bool)
        ids[0, :2] = [1, 2]
        mask[0, :2] = True
        loss = training_loss(params, ids, mask, np.array([4]), np.array([5]), pos_enc)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)
        lam = 0.01
        squares = sum(float((t.data ** 2).sum()) for _, t in params.items())
        total = loss.item() + l2_penalty(Adam(params, 1e-3).data, lam)
        assert total == pytest.approx(np.log(2.0) + lam * squares, rel=1e-12)

    def test_zero_l2_penalty_is_exactly_zero(self):
        cfg = ModelConfig(**TINY_MODEL)
        params = init_params(cfg, catalog_size=6, seed=2)
        assert l2_penalty(Adam(params, 1e-3).data, 0.0) == 0.0

    def test_one_batch_epoch_reports_penalty_at_the_stepped_parameters(self, monkeypatch):
        """With one batch per epoch, the reported loss is that batch's loss plus
        the L2 penalty of the parameters the loss was computed at, which are
        the ones ``Adam.step`` receives, not the ones it returns."""
        ds, _ = tiny_dataset()
        lam = 0.1
        losses, stepped = [], []
        loss_fn, step = training.training_loss, training.Adam.step

        def record_loss(*args, **kwargs):
            loss = loss_fn(*args, **kwargs)
            losses.append(loss.item())
            return loss

        def record_step(self, grad):
            stepped.append(self.data.astype(np.float64))
            return step(self, grad)

        monkeypatch.setattr(training, "training_loss", record_loss)
        monkeypatch.setattr(training.Adam, "step", record_step)
        cfg = TrainConfig(epochs=1, seed=5, batch_size=len(ds.train), learning_rate=0.05,
                          l2=lam)
        result = train(ds, ModelConfig(**TINY_MODEL), cfg)
        assert len(losses) == len(stepped) == 1
        want = losses[0] + lam * float(np.dot(stepped[0], stepped[0]))
        assert result.history[0]["loss"] == pytest.approx(want, rel=1e-6)


class TestTrain:
    def test_same_seed_identical_trajectory(self):
        ds, _ = tiny_dataset()
        cfg = TrainConfig(epochs=2, seed=11, batch_size=32, l2=1e-4)
        m = ModelConfig(**TINY_MODEL)
        r1 = train(ds, m, cfg)
        r2 = train(ds, m, cfg)
        assert [h["loss"] for h in r1.history] == [h["loss"] for h in r2.history]
        assert [h["val"] for h in r1.history] == [h["val"] for h in r2.history]
        for name, t in r1.params.items():
            np.testing.assert_array_equal(t.data, r2.params[name].data)

    def test_different_seed_differs(self):
        ds, _ = tiny_dataset()
        m = ModelConfig(**TINY_MODEL)
        r1 = train(ds, m, TrainConfig(epochs=1, seed=1))
        r2 = train(ds, m, TrainConfig(epochs=1, seed=2))
        assert r1.history[0]["loss"] != r2.history[0]["loss"]

    def test_model_max_len_must_match_dataset(self):
        ds, _ = tiny_dataset()
        m = ModelConfig(**{**TINY_MODEL, "max_len": 5})
        with pytest.raises(ConfigError, match="max_len 5 differs from the dataset's 8"):
            train(ds, m, TrainConfig(epochs=1))

    def test_padding_embedding_row_stays_frozen(self):
        ds, _ = tiny_dataset()
        m = ModelConfig(**TINY_MODEL)
        result = train(ds, m, TrainConfig(epochs=2, seed=3, l2=1e-3))
        assert np.all(result.params.product_emb.data[0] == 0.0)

    def test_loss_decreases_on_learnable_chain(self):
        ds, _ = tiny_dataset(P=6, n=200, seed=4)
        m = ModelConfig(**TINY_MODEL)
        result = train(ds, m, TrainConfig(epochs=6, seed=4, learning_rate=5e-3, l2=0.0))
        losses = [h["loss"] for h in result.history]
        assert losses[-1] < losses[0] * 0.8

    def test_two_item_catalog_alternation_learned(self):
        # catalog of 2: the eval candidate list collapses to the truth, so
        # the ranking metric saturates at 1; the decreasing loss plus a
        # perfect NDCG confirm the checkpoint logic end to end
        sessions, _ = generate_synthetic(2, 120, length_range=(3, 6), seed=5,
                                         dominant_mass=0.9)
        ds = prepare_dataset(sessions, max_len=8)
        m = ModelConfig(**TINY_MODEL)
        result = train(ds, m, TrainConfig(epochs=20, seed=5, learning_rate=1e-2, l2=0.0))
        assert result.val_mode == FULL_CATALOG
        assert result.best_val_ndcg5 == pytest.approx(1.0)
        losses = [h["loss"] for h in result.history]
        assert min(losses) < 0.45 < np.log(2.0)

    def test_best_checkpoint_by_val_ndcg5(self):
        ds, _ = tiny_dataset(P=10, n=150, seed=6)
        m = ModelConfig(**TINY_MODEL)
        result = train(ds, m, TrainConfig(epochs=4, seed=6, learning_rate=5e-3))
        ndcgs = [h["val"]["NDCG@5"] for h in result.history]
        assert result.best_val_ndcg5 == max(ndcgs)
        assert result.best_epoch == int(np.argmax(ndcgs))

    def test_cart_gating(self):
        ds, _ = tiny_dataset(P=10, n=300, seed=7, cart_ratio=0.4)
        m = ModelConfig(**TINY_MODEL)
        r_p = train(ds, m, TrainConfig(epochs=1, seed=7, configuration="P"))
        r_c = train(ds, m, TrainConfig(epochs=1, seed=7, configuration="P+Cart"))
        assert r_p.cart_sessions_used == 0
        assert r_c.cart_sessions_used > 0

    def test_style_configuration_needs_table(self):
        ds, _ = tiny_dataset()
        m = ModelConfig(use_style=True, **TINY_MODEL)
        with pytest.raises(ConfigError):
            train(ds, m, TrainConfig(epochs=1, configuration="P+Style"))

    def test_configuration_model_mismatch_rejected(self):
        ds, _ = tiny_dataset()
        m = ModelConfig(**TINY_MODEL)
        with pytest.raises(ConfigError):
            train(ds, m, TrainConfig(epochs=1, configuration="P+Style"))

    def test_negsample_the_val_split_cannot_supply_is_refused_before_training(self,
                                                                              monkeypatch):
        ds, _ = tiny_dataset()
        calls = []
        real_loss = training.training_loss

        def counting_loss(*args, **kwargs):
            calls.append(1)
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(training, "training_loss", counting_loss)
        # 8 products minus a val session's items cannot supply 7 negatives
        cfg = TrainConfig(epochs=1, eval_mode=NEGSAMPLE, eval_negatives=7)
        with pytest.raises(ConfigError, match="catalog of 8 cannot supply 7 negatives"):
            train(ds, ModelConfig(**TINY_MODEL), cfg)
        assert calls == []

    def test_dropout_training_runs(self):
        ds, _ = tiny_dataset()
        kwargs = dict(TINY_MODEL)
        kwargs["dropout"] = 0.2
        m = ModelConfig(**kwargs)
        result = train(ds, m, TrainConfig(epochs=1, seed=8))
        assert np.isfinite(result.history[0]["loss"])


class TestEvaluate:
    def make_eval_setup(self, P=150, n=400, seed=9):
        sessions, oracle = generate_synthetic(P, n, length_range=(3, 8), seed=seed)
        ds = prepare_dataset(sessions, max_len=8)
        m = ModelConfig(**TINY_MODEL)
        params = init_params(m, catalog_size=P, seed=seed)
        return ds, params, oracle

    def test_mode_recorded(self):
        ds, params, _ = self.make_eval_setup(n=60)
        rep = evaluate(params, ds.test, mode=FULL_CATALOG, seed=0)
        assert rep.mode == FULL_CATALOG

    def test_subset_dominance_per_session_and_aggregate(self):
        ds, params, _ = self.make_eval_setup()
        neg = evaluate(params, ds.test, mode=NEGSAMPLE, n_negatives=100, seed=1)
        full = evaluate(params, ds.test, mode=FULL_CATALOG, seed=1)
        assert len(neg.ranks) == len(full.ranks)
        assert all(rn <= rf for rn, rf in zip(neg.ranks, full.ranks))
        for col, value in neg.values.items():
            assert value >= full.values[col]

    def test_random_scorer_hr5_near_uniform(self):
        P = 150
        sessions, _ = generate_synthetic(P, 800, length_range=(3, 8), seed=10)
        rep = evaluate_with_scorer(sessions, P, random_scorer(3), mode=NEGSAMPLE,
                                   n_negatives=100, seed=2)
        assert abs(rep["HR@5"] - 5.0 / 101.0) < 0.025

    def test_oracle_scorer_beats_random_and_popularity(self):
        P = 150
        sessions, oracle = generate_synthetic(P, 500, length_range=(3, 8), seed=11)
        kw = dict(mode=NEGSAMPLE, n_negatives=100, seed=4)
        by_oracle = evaluate_with_scorer(sessions, P, oracle_scorer(oracle), **kw)
        by_pop = evaluate_with_scorer(sessions, P, popularity_scorer(sessions, P), **kw)
        by_rand = evaluate_with_scorer(sessions, P, random_scorer(5), **kw)
        assert by_oracle["HR@5"] > 0.7
        assert by_oracle["HR@5"] > by_pop["HR@5"]
        assert by_oracle["HR@5"] > by_rand["HR@5"] + 0.5

    def test_candidates_deterministic_across_calls(self):
        ds, params, _ = self.make_eval_setup(n=80)
        a = evaluate(params, ds.test, mode=NEGSAMPLE, n_negatives=100, seed=6)
        b = evaluate(params, ds.test, mode=NEGSAMPLE, n_negatives=100, seed=6)
        assert a.ranks == b.ranks

    def test_test_split_protocol(self):
        ds, params, _ = self.make_eval_setup(n=80)
        neg = evaluate_test_split(params, ds, TrainConfig(seed=6))
        assert neg.mode == NEGSAMPLE
        assert neg.ranks == evaluate(params, ds.test, mode=NEGSAMPLE, seed=6).ranks
        few = evaluate_test_split(params, ds, TrainConfig(seed=6, eval_negatives=3))
        assert few.ranks == evaluate(params, ds.test, n_negatives=3, seed=6).ranks
        # 150 products minus up to 8 session items cannot supply 145 negatives
        full = evaluate_test_split(params, ds, TrainConfig(seed=6, eval_negatives=145))
        assert full.mode == FULL_CATALOG
        assert full.ranks == evaluate(params, ds.test, mode=FULL_CATALOG).ranks

    def test_pick_eval_mode(self):
        # the long val session leaves 4 ids for 5 negatives; every test session leaves 9
        short = [Session(f"s{i}", PURCHASE, i, (1 + i, 2 + i, 3 + i)) for i in range(6)]
        long = Session("long", PURCHASE, 1, tuple(range(1, 9)))
        ds = PreparedDataset(train=short[:2], val=[long], test=short[2:],
                             catalog_size=12, max_len=8)
        auto = TrainConfig(eval_negatives=5)
        # auto reads val and test whatever it ranks; an explicit mode reads what it ranks
        assert pick_eval_mode(auto, ds, ds.test) == FULL_CATALOG
        assert pick_eval_mode(replace(auto, eval_negatives=4), ds, ds.val) == NEGSAMPLE
        assert pick_eval_mode(replace(auto, eval_mode=FULL_CATALOG), ds, ds.test) == FULL_CATALOG
        negsample = replace(auto, eval_mode=NEGSAMPLE)
        assert pick_eval_mode(negsample, ds, ds.test) == NEGSAMPLE
        with pytest.raises(ConfigError) as refused:
            pick_eval_mode(negsample, ds, ds.val)
        with pytest.raises(ConfigError) as sampled:
            sample_negatives(long.items, 12, 5, seed=0)
        assert str(refused.value) == str(sampled.value)

    # table: the style table's rows, as an offset from the model's catalog size, or None
    @pytest.mark.parametrize("model_p, data_p, model_len, use_style, table", [
        (300, 150, 6, False, None),
        (150, 300, 6, False, None),
        (150, 150, 3, False, None),
        (150, 150, 6, False, 1),
        (150, 150, 6, True, None),
        (150, 150, 6, True, 0),
    ], ids=["model-catalog-larger", "model-catalog-smaller", "model-max-len-shorter",
            "table-without-style", "style-without-table", "table-wrong-shape"])
    def test_test_split_rejects_a_model_that_does_not_fit(self, model_p, data_p, model_len,
                                                           use_style, table):
        sessions, _ = generate_synthetic(150, 400, length_range=(3, 8), seed=9)
        ds = prepare_dataset(sessions, max_len=6, catalog_size=data_p)
        m = ModelConfig(**{**TINY_MODEL, "max_len": model_len, "use_style": use_style})
        params = init_params(m, catalog_size=model_p, seed=9)
        style = None if table is None else np.zeros((model_p + table, 512), dtype=np.float32)
        with pytest.raises(ConfigError):
            evaluate_test_split(params, ds, TrainConfig(seed=6), style)

    def test_empty_sessions_rejected(self):
        _, params, _ = self.make_eval_setup(n=60)
        with pytest.raises(ContractError):
            evaluate(params, [], mode=FULL_CATALOG)

    def test_ranks_match_recorded_digest(self, tmp_path):
        # Recorded with `score` gathering and converting the candidate rows
        # per session. The product table sums some dot products in another
        # order, so a score may move by an ulp, but no rank may change.
        P = 5003
        cfg = ModelConfig(d_product=16, d_model=8, n_blocks=1, n_heads=2,
                          dropout=0.0, max_len=8)
        save_checkpoint(init_params(cfg, P, 11), tmp_path / "m.s4ck")
        params = load_checkpoint(tmp_path / "m.s4ck")
        rng = np.random.default_rng(12)
        sessions = []
        for i in range(200):
            items = rng.integers(1, P + 1, int(rng.integers(2, 10)))
            if i % 3 == 0:
                items[-1] = items[0]  # the truth also appears earlier in the session
            sessions.append(Session(f"r{i}", PURCHASE, i, tuple(int(x) for x in items)))
        recorded = {
            NEGSAMPLE: "817895c512ec1e3704b0869deef24c760bf2eab83b902d359f20793539cbe7da",
            FULL_CATALOG: "97eb2d5eee2569163a53e523e8a5abe9d070cf689c64342a99d68a377ca5a3d7",
        }
        for mode, digest in recorded.items():
            ranks = evaluate(params, sessions, mode=mode, n_negatives=100, seed=5).ranks
            assert hashlib.sha256(repr(ranks).encode()).hexdigest() == digest, mode

    def test_encodes_in_length_order_with_the_recorded_ranks(self, monkeypatch):
        """Over more than one batch, ``evaluate`` encodes the shortest sessions first:
        one ``encode`` call per ``EVAL_BATCH`` sessions, each in non-decreasing length,
        padding fewer positions than batches in the caller's order. The digests were
        recorded with batches in the caller's order."""
        P = 2003
        cfg = ModelConfig(d_product=16, d_model=8, n_blocks=1, n_heads=2,
                          dropout=0.0, max_len=8)
        params = init_params(cfg, P, 13)
        rng = np.random.default_rng(14)
        sessions = []
        for i in range(700):
            items = rng.integers(1, P + 1, int(rng.integers(2, 12)))
            if i % 3 == 0:
                items[-1] = items[0]
            sessions.append(Session(f"m{i}", PURCHASE, i, tuple(int(x) for x in items)))
        widths = []  # the valid positions of each row, per encode call
        real = training.encode

        def spy(ids, mask, *args):
            widths.append(mask.sum(axis=1))
            return real(ids, mask, *args)

        monkeypatch.setattr(training, "encode", spy)
        recorded = {
            NEGSAMPLE: "4651104e98f9ac3d41e727b4db11e5fa110d818764fef9ff148115d44b357bde",
            FULL_CATALOG: "851ee7a506b987ba80f21ba998e3f7239801c73c8e792cb8889ba49b1ad41809",
        }
        for mode, digest in recorded.items():
            widths.clear()
            ranks = evaluate(params, sessions, mode=mode, n_negatives=100, seed=5).ranks
            assert hashlib.sha256(repr(ranks).encode()).hexdigest() == digest, mode
            assert len(widths) == -(-len(sessions) // training.EVAL_BATCH) == 3
            assert all(np.all(np.diff(w) >= 0) for w in widths)
        lengths = np.array([min(len(s.items) - 1, cfg.max_len) for s in sessions])
        np.testing.assert_array_equal(np.concatenate(widths), np.sort(lengths))

        def padded(batches):
            return sum(len(w) * int(w.max()) - int(w.sum()) for w in batches)

        in_caller_order = [lengths[b0:b0 + training.EVAL_BATCH]
                           for b0 in range(0, len(sessions), training.EVAL_BATCH)]
        assert padded(widths) < padded(in_caller_order)

    def test_sees_in_place_parameter_edits(self):
        # Adam.step updates product_emb.data in place between validation
        # epochs; evaluate must score against the current values.
        params = init_params(ModelConfig(**TINY_MODEL), catalog_size=500, seed=3)
        session = Session("s", PURCHASE, 0, (1, 2, 3))
        ids, mask = np.array([[1, 2]]), np.array([[True, True]])
        with T.no_grad():
            hist = history_vector(encode(ids, mask, params, positional_encoding(8, 4)),
                                  mask, params).data[0]
        for mode in (NEGSAMPLE, FULL_CATALOG):
            assert evaluate(params, [session], mode=mode).ranks[0] > 1
        params.product_emb.data[3] = hist  # truth now scores cosine 1
        for mode in (NEGSAMPLE, FULL_CATALOG):
            assert evaluate(params, [session], mode=mode).ranks == [1]


class TestEvaluateWorkers:
    """Full-catalog ranking on one and on two workers (``threads.WORKERS``): the calling
    thread and the process's one helper take sessions in order from one iterator, once
    every session scores at least ``WIDE_RANKING`` candidates."""

    P = 400

    def make_setup(self, n=120):
        sessions, _ = generate_synthetic(self.P, n, length_range=(3, 8), seed=13)
        return sessions, init_params(ModelConfig(**TINY_MODEL), self.P, seed=13)

    def spy_threads(self, monkeypatch, both_join=False):
        """The names of the threads that run ``score``, one per call. With
        ``both_join``, a thread waits before its second session until the other has
        scored one, so that neither can take every session of a short run."""
        names, both_scored = [], threading.Event()

        def spy(*args):
            me = threading.current_thread().name
            names.append(me)
            if len(set(names)) == 2:
                both_scored.set()
            elif both_join and names.count(me) > 1:
                assert both_scored.wait(10)
            return score(*args)

        monkeypatch.setattr(training, "score", spy)
        return names

    def spy_workers(self, monkeypatch):
        """The worker count of each ``threads.in_order`` call."""
        counts, real = [], threads.in_order
        monkeypatch.setattr(threads, "in_order", lambda do, items, workers: (
            counts.append(workers), real(do, items, workers))[1])
        return counts

    def test_ranks_do_not_depend_on_the_worker_count(self, monkeypatch):
        sessions, params = self.make_setup()
        one = evaluate(params, sessions, mode=FULL_CATALOG).ranks
        monkeypatch.setattr(training, "WIDE_RANKING", 1)
        for workers in (1, 2):
            monkeypatch.setattr(threads, "WORKERS", workers)
            names = self.spy_threads(monkeypatch, both_join=workers == 2)
            with short_switch_interval():
                assert evaluate(params, sessions, mode=FULL_CATALOG).ranks == one
            assert len(names) == len(sessions) and len(set(names)) == workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_lowest_failing_session_is_reported(self, monkeypatch, workers):
        """Truths outside the catalog at sessions 3 and 7, and session 3 slow to rank:
        the error names session 3's truth, as one worker going in order raises it."""
        sessions, params = self.make_setup(n=40)
        for i in (3, 7):
            s = sessions[i]
            sessions[i] = Session(s.session_id, s.kind, s.t, (*s.items[:-1], 10 ** 6 + i))
        real = training.rank_of_truth
        monkeypatch.setattr(training, "rank_of_truth", lambda scores, cands, truth: (
            time.sleep(0.05 if truth == 10 ** 6 + 3 else 0), real(scores, cands, truth))[1])
        monkeypatch.setattr(training, "WIDE_RANKING", 1)
        monkeypatch.setattr(threads, "WORKERS", workers)
        with short_switch_interval(), pytest.raises(ContractError,
                                                    match=f"truth id {10 ** 6 + 3} not among"):
            evaluate(params, sessions, mode=FULL_CATALOG)

    def test_an_unowned_blas_count_runs_one_worker(self, monkeypatch):
        sessions, params = self.make_setup(n=30)
        monkeypatch.setattr(training, "WIDE_RANKING", 1)
        monkeypatch.setattr(threads, "WORKERS", 2)
        monkeypatch.setattr(threads, "_blas_thread_calls", lambda: None)
        names, counts = self.spy_threads(monkeypatch), self.spy_workers(monkeypatch)
        evaluate(params, sessions, mode=FULL_CATALOG)
        assert set(names) == {threading.current_thread().name} and counts == [1]

    def test_negsample_and_narrow_catalogs_run_one_worker(self, monkeypatch):
        """Two workers exactly from ``WIDE_RANKING`` full-catalog candidates: the
        catalog plus one, less the longest session; never in negsample mode."""
        sessions, params = self.make_setup(n=30)
        longest = max(len(s.items) for s in sessions)
        monkeypatch.setattr(threads, "WORKERS", 2)
        counts = self.spy_workers(monkeypatch)
        for mode, wide, workers in ((FULL_CATALOG, training.WIDE_RANKING, 1),  # the rule's own
                                    (FULL_CATALOG, self.P + 2 - longest, 1), (NEGSAMPLE, 1, 1),
                                    (FULL_CATALOG, self.P + 1 - longest, 2)):
            monkeypatch.setattr(training, "WIDE_RANKING", wide)
            names = self.spy_threads(monkeypatch, both_join=workers == 2)
            counts.clear()
            with short_switch_interval():
                evaluate(params, sessions, mode=mode, n_negatives=20)
            assert len(set(names)) == workers and counts == [workers], (mode, wide)

    def test_baseline_scorers_run_in_order_on_the_calling_thread(self, monkeypatch):
        sessions, _ = self.make_setup(n=30)
        monkeypatch.setattr(training, "WIDE_RANKING", 1)
        monkeypatch.setattr(threads, "WORKERS", 2)
        calls, popularity = [], popularity_scorer(sessions, self.P)

        def scorer(session, candidates):
            calls.append((session.session_id, threading.current_thread().name))
            return popularity(session, candidates)

        with short_switch_interval():
            evaluate_with_scorer(sessions, self.P, scorer, mode=FULL_CATALOG)
        assert calls == [(s.session_id, threading.current_thread().name) for s in sessions]


class TestSuiteAndExperiments:
    def test_configuration_suite_shapes(self):
        sessions, _ = generate_synthetic(8, 160, length_range=(3, 6), seed=12,
                                         cart_ratio=0.3)
        ds = prepare_dataset(sessions, max_len=8)
        rng = np.random.default_rng(12)
        style = rng.standard_normal((9, 512)).astype(np.float32)
        rows = list(run_experiment(suite_runs(ds, dict(TINY_KWARGS),
                                              TrainConfig(epochs=1, seed=12),
                                              style_table=style)))
        assert tuple(run.train_cfg.configuration for run, _, _ in rows) == CONFIGURATIONS
        n_test = len(ds.test)
        for run, result, report in rows:
            assert len(report.ranks) == n_test
            assert (run.style_table is not None) == run.train_cfg.use_style
            uses_cart = "Cart" in run.train_cfg.configuration
            assert (result.cart_sessions_used > 0) == uses_cart

    def test_suite_requires_style_table(self, monkeypatch):
        ds, _ = tiny_dataset()
        calls = []
        real_train = training.train

        def counting_train(*args, **kwargs):
            calls.append(args[2].configuration)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(training, "train", counting_train)
        with pytest.raises(ConfigError, match="a style model needs a style table"):
            list(run_experiment(suite_runs(ds, dict(TINY_KWARGS), TrainConfig(epochs=1))))
        assert calls == []  # fails before any configuration trains

    def test_run_experiment_checks_every_run_before_training(self, monkeypatch):
        ds, _ = tiny_dataset()
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
        cfg = TrainConfig(epochs=1)
        fits = Run("fits", ds, ModelConfig(**TINY_MODEL), cfg)
        # a run that does not fit its dataset is refused when it is built
        with pytest.raises(ConfigError, match="model max_len 6 differs from the dataset's 8"):
            Run("short", ds, ModelConfig(**{**TINY_MODEL, "max_len": 6}), cfg)
        with pytest.raises(ConfigError, match="catalog of 8 cannot supply 7 negatives"):
            Run("negsample", ds, ModelConfig(**TINY_MODEL),
                TrainConfig(epochs=1, eval_mode=NEGSAMPLE, eval_negatives=7))
        # the val split supplies 3 negatives to every session; a 6-item test session does not
        val_fits = replace(ds, test=[*ds.test, Session("wide", PURCHASE, 120, (1, 2, 3, 4, 5, 6))])
        assert max(len(set(s.items)) for s in ds.val) <= 5
        with pytest.raises(ConfigError, match="catalog of 8 cannot supply 3 negatives for a "
                                              "session with 6 distinct items"):
            Run("test-negsample", val_fits, ModelConfig(**TINY_MODEL),
                TrainConfig(epochs=1, eval_mode=NEGSAMPLE, eval_negatives=3))
        # a style table one row short is refused here, not at P+Style's first batch
        style_model = ModelConfig(**{**TINY_MODEL, "use_style": True})
        with pytest.raises(ConfigError, match=r"style table shape \(8, 512\), expected \(9, 512\)"):
            Run("short-table", ds, style_model, TrainConfig(epochs=1, configuration="P+Style"),
                np.zeros((8, 512), dtype=np.float32))
        # a one-product catalog's one id would be every target, leaving _train_negative no
        # draw; its only sessions end in a repeat, so no such dataset reaches a Run
        one = [Session(f"s{t}", PURCHASE, t, (1, 1)) for t in range(3)]
        with pytest.raises(InputError, match="session 's0': a prepared session ends in two "
                                             "different ids"):
            PreparedDataset(train=one[:1], val=one[1:2], test=one[2:], catalog_size=1, max_len=8)
        rows = run_experiment([fits], test=False)
        assert calls == []  # a plain generator: nothing trains until it is iterated
        next(rows)
        assert len(calls) == 1

    def test_suite_rejects_use_style_kwarg(self):
        ds, _ = tiny_dataset()
        style = np.zeros((ds.catalog_size + 1, 512), dtype=np.float32)
        for owned, value in (("use_style", True), ("max_len", 8)):
            with pytest.raises(ConfigError, match=f"the run sets {owned};"):
                suite_runs(ds, {**TINY_KWARGS, owned: value}, TrainConfig(epochs=1),
                           style_table=style)

    def test_dynamic_curve_length_and_series(self):
        sessions, _ = generate_synthetic(8, 150, length_range=(4, 7), seed=13)
        curve = dynamic_experiment(sessions, [2, 4], TINY_KWARGS,
                                   TrainConfig(epochs=1, seed=13))
        assert [m for m, _ in curve] == [2, 4]
        lines = curve_lines(curve)
        assert lines[0] == "max_len HR@5 HR@10 HR@20 NDCG@5 NDCG@10 NDCG@20 MRR@5 MRR@10 MRR@20"
        assert len(lines) == 3 and lines[1].startswith("2 ") and lines[2].startswith("4 ")
        assert lines[1].split()[1] == f"{curve[0][1]['HR@5']:.6f}"

    def test_dynamic_rejects_bad_lengths(self):
        sessions, _ = generate_synthetic(8, 60, seed=14)
        with pytest.raises(ConfigError):
            dynamic_experiment(sessions, [1, 4], TINY_KWARGS, TrainConfig(epochs=1))
        with pytest.raises(ConfigError):
            dynamic_experiment(sessions, [], TINY_KWARGS, TrainConfig(epochs=1))

    def test_dynamic_rejects_owned_kwargs(self):
        sessions, _ = generate_synthetic(8, 60, seed=14)
        for owned, value in (("use_style", False), ("max_len", 4)):
            with pytest.raises(ConfigError, match=f"the run sets {owned};"):
                dynamic_experiment(sessions, [4], {**TINY_KWARGS, owned: value},
                                   TrainConfig(epochs=1))

    def test_sweep_single_point_grid(self):
        ds, _ = tiny_dataset(P=8, n=100, seed=15)
        kwargs = {k: v for k, v in TINY_KWARGS.items() if k != "d_ffn"}
        cfg = TrainConfig(epochs=1, seed=15, hidden_dim_grid=(16,), l2_grid=(0.001,))
        logged = []
        rows = list(run_experiment(sweep_runs(ds, kwargs, cfg), test=False, log=logged.append))
        assert len(rows) == 1
        run, result, report = rows[0]
        assert run.model_cfg.d_ffn == 16 and run.train_cfg.l2 == 0.001
        assert result.params.config.d_ffn == 16
        # a selection run logs its label only, and never ranks the test split
        assert logged == ["sweep: hidden 16, l2 0.001"] and report is None

    def test_sweep_budget_and_order(self):
        ds, _ = tiny_dataset(P=8, n=100, seed=16)
        kwargs = {k: v for k, v in TINY_KWARGS.items() if k != "d_ffn"}
        cfg = TrainConfig(epochs=1, seed=16, hidden_dim_grid=(8, 16),
                          l2_grid=(0.1, 0.001))
        rows = run_experiment(sweep_runs(ds, kwargs, cfg, budget=3), test=False)
        assert [(run.model_cfg.d_ffn, run.train_cfg.l2) for run, _, _ in rows] == [
            (8, 0.1), (8, 0.001), (16, 0.1)]

    def test_sweep_tie_break_order(self):
        ds, _ = tiny_dataset()
        kwargs = {k: v for k, v in TINY_KWARGS.items() if k != "d_ffn"}

        def row(hidden_dim, l2, val_ndcg5):
            cfg = TrainConfig(l2=l2)
            run = Run("", ds, run_model_config(kwargs, cfg, ds.max_len, d_ffn=hidden_dim), cfg)
            return run, TrainResult(None, [], 0, val_ndcg5, NEGSAMPLE, 0, ""), None

        rows = [row(64, 0.001, 0.5), row(16, 0.1, 0.5), row(16, 0.001, 0.5), row(8, 0.1, 0.4)]
        best, _, _ = min(rows, key=sweep_order_key)
        assert (best.model_cfg.d_ffn, best.train_cfg.l2) == (16, 0.001)

    def test_sweep_rejects_owned_kwargs(self):
        ds, _ = tiny_dataset()
        kwargs = {k: v for k, v in TINY_KWARGS.items() if k != "d_ffn"}
        for owned, value in (("d_ffn", 8), ("use_style", False), ("max_len", 8)):
            with pytest.raises(ConfigError, match=f"the run sets {owned};"):
                sweep_runs(ds, {**kwargs, owned: value}, TrainConfig(epochs=1))


class TestTrainConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(l2=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(configuration="All")
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(hidden_dim_grid=())
        with pytest.raises(ConfigError):
            TrainConfig(eval_mode="sometimes")
        # numbers no run can train with, rejected before any training
        for bad in (dict(learning_rate=np.inf), dict(learning_rate=np.nan),
                    dict(learning_rate=0.0), dict(l2=np.inf), dict(l2=np.nan),
                    dict(l2_grid=(0.0, -1.0)), dict(l2_grid=(np.inf,)),
                    dict(hidden_dim_grid=(0,)), dict(hidden_dim_grid=(8, -2))):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    def test_configuration_flags(self):
        assert not TrainConfig(configuration="P").use_cart
        assert TrainConfig(configuration="P+Cart").use_cart
        assert TrainConfig(configuration="P+Style").use_style
        assert TrainConfig(configuration="P+Cart+Style").use_style

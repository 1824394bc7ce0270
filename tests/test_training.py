"""Training-loop, sampling, evaluation-protocol, and experiment tests."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from stylerec import tensor as T
from stylerec import training
from stylerec.data import PURCHASE, Session, generate_synthetic, prepare_dataset
from stylerec.errors import ConfigError, ContractError
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
)
from stylerec.training import (
    ADAM_BLOCK,
    ADAM_WORKERS,
    CONFIGURATIONS,
    Adam,
    SweepRun,
    TrainConfig,
    _catalog_pool,
    curve_lines,
    dynamic_experiment,
    evaluate,
    evaluate_test_split,
    evaluate_with_scorer,
    l2_penalty,
    oracle_scorer,
    popularity_scorer,
    random_scorer,
    run_configuration_suite,
    sample_negatives,
    sweep,
    sweep_order_key,
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
        for bit at one and at two workers (``ADAM_WORKERS`` when the ``Adam`` is
        built), so the worker count cannot change a bit, and every tensor keeps its
        views of ``adam.data`` and ``adam.grad``. A short switch interval interleaves
        the two workers' block claims as finely as the interpreter allows: a block
        updated twice or skipped breaks the equality."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2):
                monkeypatch.setattr(training, "ADAM_WORKERS", workers)
                self.check_steps_against_formula(workers)
        finally:
            sys.setswitchinterval(interval)

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
        assert Adam(init_params(m, ds.catalog_size, 0), 1e-3).workers == ADAM_WORKERS
        cfg = TrainConfig(epochs=1, seed=6, batch_size=32)
        before = threading.active_count()
        train(ds, m, cfg)
        after_one = threading.active_count()
        train(ds, m, cfg)
        assert threading.active_count() <= after_one <= before + 1
        helpers = [t for t in threading.enumerate() if t.name.startswith("adam-helper")]
        assert len(helpers) == ADAM_WORKERS - 1


def params_digest(params: ModelParams) -> str:
    """SHA-256 of every parameter's name and bytes, in insertion order."""
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


# training sums through BLAS, whose result bits can depend on its thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_blas_thread_json(call: str, cwd):
    """The JSON that ``call``, a function of a tests module, returns when run in a
    child process in ``cwd`` with one BLAS thread."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **{var: "1" for var in BLAS_THREAD_VARS})
    module = call.partition(".")[0]
    proc = subprocess.run([sys.executable, "-c", f"import json, {module}; "
                           f"print(json.dumps({call}()))"],
                          cwd=cwd, capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
    training produces fails here. The runs go through a child process with
    one BLAS thread, so the digests do not depend on the machine's CPU count."""

    RECORDED = {
        "P": ["5ff6c4c791b7ee3a22a8434ac6d6ca8a8c0493b9e73bb662e58d3557a0a19d97",
              "4977e5665efbe0360cdf389adc1446aa926dd791e3bf5779dd1cfabecd3cf2fb"],
        "P+Cart": ["b5618014ddf5d80a29fd2af8c17c9c64026a75cc1b040a303395f6a76cda6de9",
                   "56ef9fefb79f20f272849ed2c660e3affe0b452005bc4d312b77f67f56ee8854"],
        "P+Style": ["e2d30065f95cb08bf17074cb4214b989b79d264d886516c8d61f127d10019428",
                    "a8fd467768cacf81318acca01d954fa9dd39705fa2ec4d7a12b2d7638d6553c5"],
    }

    def test_final_parameters_and_history_are_pinned(self, tmp_path):
        got = one_blas_thread_json("test_training.seeded_training_digests", tmp_path)
        assert got == self.RECORDED


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


class TestSuiteAndExperiments:
    def test_configuration_suite_shapes(self):
        sessions, _ = generate_synthetic(8, 160, length_range=(3, 6), seed=12,
                                         cart_ratio=0.3)
        ds = prepare_dataset(sessions, max_len=8)
        rng = np.random.default_rng(12)
        style = rng.standard_normal((9, 512)).astype(np.float32)
        out = run_configuration_suite(ds, dict(TINY_KWARGS),
                                      TrainConfig(epochs=1, seed=12),
                                      style_table=style)
        assert tuple(out) == CONFIGURATIONS
        n_test = len(ds.test)
        for name, stuff in out.items():
            assert len(stuff["report"].ranks) == n_test
            uses_cart = "Cart" in name
            assert (stuff["result"].cart_sessions_used > 0) == uses_cart

    def test_suite_requires_style_table(self, monkeypatch):
        ds, _ = tiny_dataset()
        calls = []
        real_train = training.train

        def counting_train(*args, **kwargs):
            calls.append(args[2].configuration)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(training, "train", counting_train)
        with pytest.raises(ConfigError, match="need a style table"):
            run_configuration_suite(ds, dict(TINY_KWARGS), TrainConfig(epochs=1))
        assert calls == []  # fails before any configuration trains

    def test_suite_rejects_use_style_kwarg(self):
        ds, _ = tiny_dataset()
        style = np.zeros((ds.catalog_size + 1, 512), dtype=np.float32)
        for owned, value in (("use_style", True), ("max_len", 8)):
            with pytest.raises(ConfigError, match=f"the run sets {owned};"):
                run_configuration_suite(ds, {**TINY_KWARGS, owned: value},
                                        TrainConfig(epochs=1), style_table=style)

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
        result = sweep(ds, kwargs, cfg)
        assert len(result.runs) == 1
        assert result.best.hidden_dim == 16 and result.best.l2 == 0.001
        assert result.best_result.params.config.d_ffn == 16

    def test_sweep_budget_and_order(self):
        ds, _ = tiny_dataset(P=8, n=100, seed=16)
        kwargs = {k: v for k, v in TINY_KWARGS.items() if k != "d_ffn"}
        cfg = TrainConfig(epochs=1, seed=16, hidden_dim_grid=(8, 16),
                          l2_grid=(0.1, 0.001))
        result = sweep(ds, kwargs, cfg, budget=3)
        assert [(r.hidden_dim, r.l2) for r in result.runs] == [
            (8, 0.1), (8, 0.001), (16, 0.1)]

    def test_sweep_tie_break_order(self):
        runs = [
            SweepRun(hidden_dim=64, l2=0.001, val_ndcg5=0.5, best_epoch=0),
            SweepRun(hidden_dim=16, l2=0.1, val_ndcg5=0.5, best_epoch=0),
            SweepRun(hidden_dim=16, l2=0.001, val_ndcg5=0.5, best_epoch=0),
            SweepRun(hidden_dim=8, l2=0.1, val_ndcg5=0.4, best_epoch=0),
        ]
        best = min(runs, key=sweep_order_key)
        assert (best.hidden_dim, best.l2) == (16, 0.001)

    def test_sweep_rejects_owned_kwargs(self):
        ds, _ = tiny_dataset()
        kwargs = {k: v for k, v in TINY_KWARGS.items() if k != "d_ffn"}
        for owned, value in (("d_ffn", 8), ("use_style", False), ("max_len", 8)):
            with pytest.raises(ConfigError, match=f"the run sets {owned};"):
                sweep(ds, {**kwargs, owned: value}, TrainConfig(epochs=1))


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

    def test_configuration_flags(self):
        assert not TrainConfig(configuration="P").use_cart
        assert TrainConfig(configuration="P+Cart").use_cart
        assert TrainConfig(configuration="P+Style").use_style
        assert TrainConfig(configuration="P+Cart+Style").use_style

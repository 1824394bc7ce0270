"""Data pipeline tests: parsing, preprocessing, splits, synthetic oracle."""

import json

import numpy as np
import pytest

from stylerec.data import (
    CART,
    PURCHASE,
    PreparedDataset,
    Session,
    SyntheticOracle,
    clean_session,
    dataset_statistics,
    dedupe_trailing,
    format_statistics_table,
    generate_style_correlated,
    generate_synthetic,
    make_transition,
    max_product_id,
    parse_sessions,
    prepare_dataset,
    remove_overlap,
    temporal_split,
    truncate_pad,
    write_sessions,
)
from stylerec.errors import ConfigError, InputError


def make_sessions(n, kind=PURCHASE, start_t=0, prefix="s"):
    return [
        Session(f"{prefix}{i:04d}", kind, start_t + i, (1 + i % 3, 2 + i % 3, 3 + i % 3))
        for i in range(n)
    ]


class TestSessionValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(InputError):
            Session("a", "view", 0, (1, 2))

    def test_empty_items_rejected(self):
        with pytest.raises(InputError):
            Session("a", PURCHASE, 0, ())

    def test_padding_id_rejected_as_item(self):
        with pytest.raises(InputError):
            Session("a", PURCHASE, 0, (1, 0, 2))

    def test_negative_id_rejected(self):
        with pytest.raises(InputError):
            Session("a", PURCHASE, 0, (1, -3))

    def test_items_coerced_to_int_tuple(self):
        s = Session("a", CART, 5, [np.int64(4), 7])
        assert s.items == (4, 7)
        assert all(type(i) is int for i in s.items)

    @pytest.mark.parametrize("item", [np.int64(4), np.int32(4)], ids=["int64", "int32"])
    def test_numpy_integers_become_int(self, item):
        s = Session("a", PURCHASE, 0, (item, 7))
        assert s.items == (4, 7) and type(s.items[0]) is int

    @pytest.mark.parametrize("item", [True, np.bool_(True), 1.0, "3", 0, -1],
                             ids=["bool", "np.bool_", "float", "str", "zero", "negative"])
    def test_non_id_item_rejected_with_one_message(self, item):
        with pytest.raises(InputError, match=r"^session 'a': item ids must be integers >= 1 "
                                             r"\(0 is padding\)$"):
            Session("a", PURCHASE, 0, (2, item))


class TestParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        original = make_sessions(5) + make_sessions(3, kind=CART, start_t=10, prefix="c")
        write_sessions(original, path)
        parsed = parse_sessions(path)
        assert parsed == original

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"session_id": "a", "kind": "purchase", "t": 0, "items": [1, 2]}\n'
            "not json\n"
        )
        with pytest.raises(InputError, match=r":2:"):
            parse_sessions(path)

    def test_duplicate_session_id_reports_line(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        row = {"session_id": "a", "kind": "purchase", "t": 0, "items": [1, 2]}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(InputError, match=r":2: duplicate"):
            parse_sessions(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"session_id": "a", "kind": "purchase", "items": [1]}\n')
        with pytest.raises(InputError, match=r":1:"):
            parse_sessions(path)

    def test_bad_item_id_reports_line(self, tmp_path):
        path = tmp_path / "zero.jsonl"
        path.write_text('{"session_id": "a", "kind": "purchase", "t": 0, "items": [1, 0]}\n')
        with pytest.raises(InputError, match=r":1:"):
            parse_sessions(path)

    @pytest.mark.parametrize("row, field", [
        ({"t": 3.7}, "t must be a JSON int"),  # int() would truncate it to 3
        ({"t": "3"}, "t must be a JSON int"),
        ({"t": True}, "t must be a JSON int"),
        ({"items": [True, 2]}, "item ids must be integers"),  # a bool is not an id
        ({"items": "12"}, "items must be a JSON list"),
        ({"items": 5}, "items must be a JSON list"),
    ], ids=["float-t", "string-t", "bool-t", "bool-item", "string-items", "int-items"])
    def test_mistyped_field_reports_line(self, tmp_path, row, field):
        path = tmp_path / "typed.jsonl"
        good = {"session_id": "a", "kind": "purchase", "t": 0, "items": [1, 2]}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "session_id": "b", **row}))
        with pytest.raises(InputError, match=rf"typed\.jsonl:2: .*{field}"):
            parse_sessions(path)

    def test_non_object_line_reports_line(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(InputError, match=r"list\.jsonl:1: a session must be a JSON object"):
            parse_sessions(path)

    def test_non_utf8_reports_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"session_id": "a", "kind": "purchase", "t": 0, "items": [1, 2]}\n'
                         b'{"session_id": "caf\xe9", "kind": "purchase", "t": 1, "items": [1, 2]}\n')
        with pytest.raises(InputError, match=r"latin1\.jsonl:2: not UTF-8"):
            parse_sessions(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text(
            '\n{"session_id": "a", "kind": "cart", "t": 3, "items": [9, 9, 4]}\n\n'
        )
        parsed = parse_sessions(path)
        assert parsed == [Session("a", CART, 3, (9, 9, 4))]


class TestPreprocessing:
    def test_dedupe_trailing_collapses_run(self):
        assert dedupe_trailing([1, 2, 3, 3, 3]) == [1, 2, 3]

    def test_dedupe_trailing_no_repeat(self):
        assert dedupe_trailing([1, 2, 3]) == [1, 2, 3]

    def test_dedupe_trailing_all_same(self):
        assert dedupe_trailing([7, 7, 7, 7]) == [7]

    def test_dedupe_trailing_keeps_interior_repeats(self):
        assert dedupe_trailing([1, 1, 2, 2, 3]) == [1, 1, 2, 2, 3]

    def test_truncate_keeps_most_recent(self):
        items = list(range(1, 26))
        padded, mask = truncate_pad(items, max_len=20)
        assert padded == list(range(6, 26))
        assert mask == [True] * 20

    def test_pad_is_suffix_of_zeros(self):
        padded, mask = truncate_pad([4, 9], max_len=5)
        assert padded == [4, 9, 0, 0, 0]
        assert mask == [True, True, False, False, False]

    def test_exact_length_untouched(self):
        padded, mask = truncate_pad([1, 2, 3], max_len=3)
        assert padded == [1, 2, 3]
        assert mask == [True, True, True]

    def test_max_len_too_small(self):
        with pytest.raises(ConfigError):
            truncate_pad([1, 2], max_len=1)

    def test_remove_overlap_drops_shared_identity(self):
        p = [Session("a", PURCHASE, 0, (1, 2)), Session("b", PURCHASE, 1, (3, 4))]
        c = [Session("b", CART, 2, (5, 6)), Session("c", CART, 3, (7, 8))]
        p2, c2 = remove_overlap(p, c)
        assert [s.session_id for s in p2] == ["a"]
        assert [s.session_id for s in c2] == ["c"]

    def test_clean_session_dedupes_before_truncating(self):
        s = Session("a", PURCHASE, 0, (1, 2, 3, 4, 4))
        cleaned = clean_session(s, max_len=3)
        assert cleaned.items == (2, 3, 4)

    def test_clean_session_drops_too_short(self):
        assert clean_session(Session("a", PURCHASE, 0, (5, 5, 5)), max_len=20) is None
        assert clean_session(Session("a", PURCHASE, 0, (5,)), max_len=20) is None

    def test_clean_session_keeps_pairs(self):
        cleaned = clean_session(Session("a", PURCHASE, 0, (5, 6)), max_len=20)
        assert cleaned.items == (5, 6)


class TestTemporalSplit:
    def test_default_fractions_on_18(self):
        sessions = make_sessions(18)
        ds = temporal_split(sessions)
        assert (len(ds.train), len(ds.val), len(ds.test)) == (14, 2, 2)

    def test_split_is_chronological(self):
        rng = np.random.default_rng(11)
        order = rng.permutation(50)
        sessions = [Session(f"s{i:03d}", PURCHASE, int(t), (1, 2, 3)) for i, t in enumerate(order)]
        ds = temporal_split(sessions)
        assert max(s.t for s in ds.train) < min(s.t for s in ds.val)
        assert max(s.t for s in ds.val) < min(s.t for s in ds.test)

    def test_ties_break_by_session_id(self):
        ids = [f"s{i:02d}" for i in range(18)]
        sessions = [Session(i, PURCHASE, 0, (1, 2)) for i in reversed(ids)]
        ds = temporal_split(sessions)
        assert [s.session_id for s in ds.train] == ids[:14]
        assert [s.session_id for s in ds.val] == ids[14:16]
        assert [s.session_id for s in ds.test] == ids[16:]

    def test_cart_excluded_from_test_only(self):
        # carts in train (0, 5), in val (15) and in the test tail (16)
        sessions = [Session(f"s{i:02d}", CART if i in (0, 5, 15, 16) else PURCHASE, i, (1, 2))
                    for i in range(18)]
        ds = temporal_split(sessions)
        assert [s.session_id for s in ds.train] == [f"s{i:02d}" for i in range(14)]
        assert [s.session_id for s in ds.val] == ["s14", "s15"]
        assert [s.kind for s in ds.val] == [PURCHASE, CART]
        assert [s.session_id for s in ds.test] == ["s17"]
        assert all(s.kind == PURCHASE for s in ds.test)

    def test_all_cart_tail_raises(self):
        sessions = [Session(f"s{i}", PURCHASE if i < 8 else CART, i, (1, 2)) for i in range(10)]
        with pytest.raises(ConfigError, match="empty split"):
            temporal_split(sessions)

    def test_catalog_size_inferred_from_max_id(self):
        sessions = [Session("a", PURCHASE, 0, (1, 41))] + make_sessions(17, start_t=1)
        ds = temporal_split(sessions)
        assert ds.catalog_size == 41 == max_product_id(sessions)

    def test_max_product_id_of_no_sessions_is_input_error(self):
        with pytest.raises(InputError, match="no sessions"):
            max_product_id([])

    def test_given_catalog_size_outlasts_truncation(self):
        # id 9 only leads a long session; a cap of 2 cuts it off
        sessions = [Session("long", PURCHASE, 0, (9, 1, 2))] + make_sessions(8, start_t=1)
        assert prepare_dataset(sessions, max_len=2).catalog_size == 5
        assert prepare_dataset(sessions, max_len=2, catalog_size=9).catalog_size == 9

    def test_prepare_dataset_pipeline(self):
        sessions = [
            Session("dup", PURCHASE, 0, (1, 2, 3)),
            Session("dup", CART, 1, (4, 5, 6)),  # shared identity, both dropped
            Session("short", PURCHASE, 2, (9, 9)),  # collapses to one item, dropped
        ]
        sessions += [
            Session(f"k{i:02d}", PURCHASE, 3 + i, (1 + i % 5, 2 + i % 5, 2 + i % 5))
            for i in range(12)
        ]
        ds = prepare_dataset(sessions, max_len=20)
        ids = {s.session_id for s in ds.all_sessions()}
        assert "dup" not in ids and "short" not in ids
        assert len(ds.all_sessions()) == 12
        # trailing repeats are gone everywhere
        for s in ds.all_sessions():
            assert s.items[-1] != s.items[-2]

    def test_json_round_trip_byte_identical(self):
        ds = temporal_split(make_sessions(18))
        text = ds.to_json()
        back = PreparedDataset.from_json(text)
        assert back.train == ds.train and back.val == ds.val and back.test == ds.test
        assert back.catalog_size == ds.catalog_size and back.max_len == ds.max_len
        assert back.to_json() == text


def oracle_json(ds) -> str:
    """The prepared-dataset document through the json encoder itself."""
    doc = {"catalog_size": ds.catalog_size, "max_len": ds.max_len, "padding_id": 0,
           **{k: [s.to_row() for s in getattr(ds, k)] for k in ("train", "val", "test")}}
    return json.dumps(doc, indent=1)


class TestToJson:
    """``to_json`` writes its text directly; ``json.dumps(doc, indent=1)`` is the oracle."""

    @pytest.mark.parametrize("splits", [
        {"train": [Session("séance-ü", PURCHASE, 1, (3, 4)), Session("日本\u2028", CART, 2, (5, 6))]},
        {"train": [Session('q"uote\\back\nline\t', PURCHASE, 0, (1, 2))]},
        {"train": [Session("one", PURCHASE, 7, (9,))], "test": [Session("two", PURCHASE, 8, (1,))]},
        {"val": [Session("v", CART, 3, (2, 1, 2))]},
        {},
    ], ids=["non-ascii", "escapes", "single-item", "only-val", "all-empty"])
    def test_matches_json_dumps(self, splits):
        ds = PreparedDataset(**{k: splits.get(k, []) for k in ("train", "val", "test")},
                             catalog_size=12, max_len=5)
        text = ds.to_json()
        assert text == oracle_json(ds)
        if any(len(s.items) < 2 for s in ds.all_sessions()):
            # a one-item session holds no input/target pair: the reader rejects it
            with pytest.raises(InputError, match="session 'one'"):
                PreparedDataset.from_json(text)
            return
        back = PreparedDataset.from_json(text)
        assert (back.train, back.val, back.test) == (ds.train, ds.val, ds.test)

    def test_matches_json_dumps_on_a_prepared_dataset(self):
        sessions, _ = generate_synthetic(40, 300, length_range=(2, 9), seed=4, cart_ratio=0.3)
        ds = prepare_dataset(sessions, max_len=6)
        assert ds.to_json() == oracle_json(ds)


class TestStatistics:
    def test_counts_by_hand(self):
        sessions = [
            Session("a", PURCHASE, 0, (1, 2, 3)),
            Session("b", PURCHASE, 1, (2, 4)),
            Session("c", CART, 2, (5, 5, 5, 5)),
        ]
        stats = dataset_statistics(sessions)
        assert stats["Purchase"] == {
            "sessions": 2, "products": 4, "avg_length": 2.5, "actions": 5}
        assert stats["S.Cart"] == {
            "sessions": 1, "products": 1, "avg_length": 4.0, "actions": 4}

    def test_table_has_expected_columns(self):
        table = format_statistics_table(dataset_statistics(make_sessions(4)))
        for col in ("#Sessions", "#Products", "Avg.Length", "#Actions"):
            assert col in table
        assert "Purchase" in table and "S.Cart" in table


class TestSyntheticOracle:
    def test_rows_sum_to_one(self):
        t = make_transition(13, seed=3, dominant_mass=0.8)
        np.testing.assert_allclose(t.sum(axis=-1), 1.0, atol=1e-12)

    def test_dominant_mass_and_uniform_tail(self):
        P = 9
        t = make_transition(P, seed=5, dominant_mass=0.7)
        for i in range(P):
            row = np.sort(t[i])[::-1]
            assert row[0] == pytest.approx(0.7)
            np.testing.assert_allclose(row[1:], 0.3 / (P - 1), atol=1e-12)

    def test_dominant_never_self(self):
        t = make_transition(20, seed=1, dominant_mass=0.9)
        assert all(int(np.argmax(t[i])) != i for i in range(20))

    def test_two_item_catalog_alternates(self):
        t = make_transition(2, seed=0, dominant_mass=0.9)
        assert int(np.argmax(t[0])) == 1 and int(np.argmax(t[1])) == 0

    def test_generation_is_deterministic(self):
        a, oa = generate_synthetic(10, 50, seed=7)
        b, ob = generate_synthetic(10, 50, seed=7)
        c, _ = generate_synthetic(10, 50, seed=8)
        assert a == b
        np.testing.assert_array_equal(oa.transition, ob.transition)
        assert a != c

    def test_session_shape_and_timestamps(self):
        sessions, _ = generate_synthetic(10, 40, length_range=(3, 6), seed=2)
        assert len(sessions) == 40
        assert [s.t for s in sessions] == list(range(40))
        assert len({s.session_id for s in sessions}) == 40
        for s in sessions:
            assert 3 <= len(s.items) <= 6
            assert all(1 <= i <= 10 for i in s.items)

    def test_cart_ratio_monte_carlo(self):
        sessions, _ = generate_synthetic(5, 5000, seed=4, cart_ratio=0.3)
        frac = sum(s.kind == CART for s in sessions) / len(sessions)
        assert abs(frac - 0.3) < 0.03

    def test_empirical_transitions_match_matrix(self):
        P = 10
        sessions, oracle = generate_synthetic(P, 3000, length_range=(4, 10), seed=6,
                                              dominant_mass=0.8)
        counts = np.zeros((P, P))
        for s in sessions:
            for a, b in zip(s.items, s.items[1:]):
                counts[a - 1, b - 1] += 1
        for i in range(P):
            total = counts[i].sum()
            assert total > 500
            dom = int(np.argmax(oracle.transition[i]))
            assert int(np.argmax(counts[i])) == dom
            assert abs(counts[i, dom] / total - 0.8) < 0.04

    def test_next_distribution_empty_history_is_initial(self):
        _, oracle = generate_synthetic(6, 5, seed=0)
        np.testing.assert_array_equal(oracle.next_distribution([]), oracle.initial)

    def test_row_sum_violation_rejected(self):
        bad = np.ones((3, 3))
        with pytest.raises(ConfigError):
            SyntheticOracle(transition=bad, initial=np.full(3, 1 / 3), seed=0)

    def test_save_load_round_trip(self, tmp_path):
        _, oracle = generate_synthetic(8, 5, seed=9, order=2)
        path = tmp_path / "oracle.npz"
        oracle.save(path)
        with np.load(path) as back:
            np.testing.assert_array_equal(back["transition"], oracle.transition)
            np.testing.assert_array_equal(back["initial"], oracle.initial)
            assert int(back["seed"]) == 9 and int(back["order"]) == 2
            assert back["cluster_of"].size == 0  # no clusters

    def test_bad_parameters_raise(self):
        with pytest.raises(ConfigError):
            generate_synthetic(1, 10)
        with pytest.raises(ConfigError):
            generate_synthetic(5, 10, order=3)
        with pytest.raises(ConfigError):
            generate_synthetic(5, 10, length_range=(1, 4))
        with pytest.raises(ConfigError):
            make_transition(5, seed=0, dominant_mass=1.0)


class TestSecondOrder:
    def test_transition_shape_and_sums(self):
        t = make_transition(6, seed=3, order=2)
        assert t.shape == (6, 6, 6)
        np.testing.assert_allclose(t.sum(axis=-1), 1.0, atol=1e-12)

    def test_dominant_never_most_recent(self):
        P = 7
        t = make_transition(P, seed=5, order=2)
        for a in range(P):
            for b in range(P):
                assert int(np.argmax(t[a, b])) != b

    def test_pair_conditional_has_dominant_mass(self):
        _, oracle = generate_synthetic(6, 5, seed=1, order=2, dominant_mass=0.75)
        dist = oracle.next_distribution([3, 5])
        np.testing.assert_array_equal(dist, oracle.transition[2, 4])
        assert dist.max() == pytest.approx(0.75)

    def test_single_item_marginalizes_first_predecessor(self):
        _, oracle = generate_synthetic(5, 5, seed=2, order=2)
        b = 4
        expected = np.zeros(5)
        for a in range(5):
            expected += oracle.initial[a] * oracle.transition[a, b - 1]
        np.testing.assert_allclose(oracle.next_distribution([b]), expected, atol=1e-12)

    def test_second_order_signal_differs_by_first_item(self):
        # some pair (a, b) and (a', b) must disagree on the dominant successor,
        # otherwise the data would be indistinguishable from first-order
        _, oracle = generate_synthetic(10, 5, seed=0, order=2)
        t = oracle.transition
        found = any(
            int(np.argmax(t[a, b])) != int(np.argmax(t[a2, b]))
            for b in range(10) for a in range(10) for a2 in range(a + 1, 10)
        )
        assert found


class TestStyleCorrelated:
    def test_shapes_and_keys(self):
        sessions, oracle, vectors = generate_style_correlated(20, 30, n_clusters=4, seed=3)
        assert set(vectors.keys()) == set(range(1, 21))
        for v in vectors.values():
            assert v.shape == (512,) and v.dtype == np.float32
        assert oracle.cluster_of is not None and oracle.cluster_of.shape == (20,)

    def test_dominant_successor_stays_in_cluster(self):
        _, oracle, _ = generate_style_correlated(20, 10, n_clusters=4, seed=5)
        cl = oracle.cluster_of
        for i in range(20):
            dom = int(np.argmax(oracle.transition[i]))
            assert cl[dom] == cl[i]
            assert dom != i

    def test_style_vectors_cluster_tighter_within(self):
        _, oracle, vectors = generate_style_correlated(24, 10, n_clusters=4, seed=7)
        cl = oracle.cluster_of

        def cos(u, v):
            return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

        within, across = [], []
        for i in range(24):
            for j in range(i + 1, 24):
                c = cos(vectors[i + 1], vectors[j + 1])
                (within if cl[i] == cl[j] else across).append(c)
        assert np.mean(within) > 0.9
        assert np.mean(across) < 0.3

    def test_oracle_save_load_keeps_clusters(self, tmp_path):
        _, oracle, _ = generate_style_correlated(12, 5, n_clusters=3, seed=1)
        path = tmp_path / "o.npz"
        oracle.save(path)
        with np.load(path) as back:
            np.testing.assert_array_equal(back["cluster_of"], oracle.cluster_of)

    def test_too_few_clusters_rejected(self):
        with pytest.raises(ConfigError):
            generate_style_correlated(10, 5, n_clusters=1)
        with pytest.raises(ConfigError):
            generate_style_correlated(5, 5, n_clusters=4)

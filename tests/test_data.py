"""Data pipeline tests: parsing, preprocessing, splits, synthetic oracle."""

import dataclasses
import json

import numpy as np
import pytest

from stylerec.data import (
    CART,
    PURCHASE,
    PreparedDataset,
    Session,
    SyntheticOracle,
    check_generator_args,
    clean_session,
    dataset_statistics,
    format_statistics_table,
    generate_style_correlated,
    generate_synthetic,
    make_transition,
    max_product_id,
    parse_sessions,
    prepare_dataset,
    temporal_split,
    truncate_pad,
    write_sessions,
)
from stylerec.errors import ConfigError, InputError
from stylerec.seeding import rng_for


# session ids of each JSON type but str, as a sessions line or a prepared dataset holds them
NON_STR_IDS = {"null": None, "number": 5, "true": True, "list": [1, 2], "object": {"a": 1}}


def make_sessions(n, kind=PURCHASE, start_t=0, prefix="s"):
    return [
        Session(f"{prefix}{i:04d}", kind, start_t + i, (1 + i % 3, 2 + i % 3, 3 + i % 3))
        for i in range(n)
    ]


class TestSessionValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(InputError):
            Session("a", "view", 0, (1, 2))

    @pytest.mark.parametrize("session_id", [5, None, b"a"], ids=["int", "none", "bytes"])
    def test_non_str_session_id_rejected(self, session_id):
        # the writers quote a session id as json.dumps quotes a str
        with pytest.raises(InputError) as refused:
            Session(session_id, PURCHASE, 0, (1, 2))
        assert str(refused.value) == f"session_id must be a JSON str, not {session_id!r}"

    def test_empty_items_rejected(self):
        with pytest.raises(InputError, match=r"^session 'a': empty item list$"):
            Session("a", PURCHASE, 0, ())

    def test_padding_id_rejected_as_item(self):
        with pytest.raises(InputError):
            Session("a", PURCHASE, 0, (1, 0, 2))

    def test_negative_id_rejected(self):
        with pytest.raises(InputError):
            Session("a", PURCHASE, 0, (1, -3))

    @pytest.mark.parametrize("t", [True, 2.5, "3", None, np.int64(3)],
                             ids=["bool", "float", "str", "none", "np.int64"])
    def test_non_int_t_rejected(self, t):
        # write_sessions and to_json write t with str(); only an int reads back as JSON's
        with pytest.raises(InputError) as refused:
            Session("a", PURCHASE, t, (1, 2))
        assert str(refused.value) == f"session t must be a JSON int, not {t!r}"

    def test_items_coerced_to_int_tuple(self):
        for items in ([np.int64(4), 7], [4, 7]):
            s = Session("a", CART, 5, items)
            assert type(s.items) is tuple and s.items == (4, 7)
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

    @pytest.mark.parametrize("kind", [PURCHASE, CART])
    def test_duplicate_session_id_reports_line(self, tmp_path, kind):
        path = tmp_path / "dup.jsonl"
        row = {"session_id": "a", "kind": kind, "t": 0, "items": [1, 2]}
        other = {**row, "kind": PURCHASE if kind == CART else CART}
        path.write_text("".join(json.dumps(r) + "\n" for r in (row, other, row)))
        with pytest.raises(InputError, match=r"^.*dup.jsonl:3: duplicate session_id 'a'$"):
            parse_sessions(path)

    def test_an_id_may_name_one_purchase_and_one_cart_session(self, tmp_path):
        """prepare_dataset drops such an id; the parser keeps both sessions."""
        path = tmp_path / "both.jsonl"
        both = [Session("a", PURCHASE, 0, (1, 2)), Session("a", CART, 1, (3, 4))]
        write_sessions(both, path)
        assert parse_sessions(path) == both

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

    # each line and message as the parser gave them when it ran json.loads on every line;
    # a line nested too deeply then escaped as a RecursionError
    ROW = '{"session_id": "a", "kind": "purchase", "t": 0, "items": [1, 2]}'
    MALFORMED = {
        "two-values": (ROW + "\n" + ROW.replace('"a"', '"b"') + " " + ROW.replace('"a"', '"c"'),
                       "2: invalid JSON (Extra data)"),
        "trailing-garbage": (ROW + "\n" + ROW.replace('"a"', '"b"') + " x",
                             "2: invalid JSON (Extra data)"),
        "split-session": (ROW + '\n{"session_id": "b", "kind": "purchase",\n "t": 1, "items": [1]}',
                          "2: invalid JSON (Expecting property name enclosed in double quotes)"),
        "bom": ("\ufeff" + ROW, "1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
        "non-object": (ROW + "\n[1, 2]", "2: a session must be a JSON object with session_id, "
                                         "kind, t and items"),
        "number": (ROW + "\n 7 ", "2: a session must be a JSON object with session_id, kind, t "
                                  "and items"),
        "nested-too-deeply": (ROW + "\n" + "[" * 100000, "2: invalid JSON (nested too deeply)"),
        # the writers quote an id as a JSON str, so no other JSON type is an id
        **{f"id-{name}": (json.dumps({"session_id": value, "kind": "purchase", "t": 0,
                                      "items": [1, 2]}),
                          f"1: session_id must be a JSON str, not {value!r}")
           for name, value in NON_STR_IDS.items()},
    }

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_line_keeps_its_message(self, tmp_path, name):
        text, message = self.MALFORMED[name]
        path = tmp_path / "s.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(InputError) as refused:
            parse_sessions(path)
        assert str(refused.value) == f"{path}:{message}"

    def test_non_utf8_reports_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"session_id": "a", "kind": "purchase", "t": 0, "items": [1, 2]}\n'
                         b'{"session_id": "caf\xe9", "kind": "purchase", "t": 1, "items": [1, 2]}\n')
        with pytest.raises(InputError, match=r"latin1\.jsonl:2: not UTF-8"):
            parse_sessions(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text(
            '\n{"session_id": "a", "kind": "cart", "t": 3, "items": [9, 9, 4]}\n\n \t\n\r\n\x0b\n'
            '  {"session_id": "b", "kind": "cart", "t": 4, "items": [1, 2]} \n'
        )
        parsed = parse_sessions(path)
        assert parsed == [Session("a", CART, 3, (9, 9, 4)), Session("b", CART, 4, (1, 2))]


class TestWriteSessions:
    """``write_sessions`` builds its lines from a template; ``json.dumps`` is the oracle."""

    @pytest.mark.parametrize("session_id", ["séance-ü 日本\u2028", 'q"uote', "back\\slash",
                                            "new\nline", "\x00\x1f\x7f \U0001f600", ""],
                             ids=["non-ascii", "quote", "backslash", "newline", "control", "empty"])
    def test_bytes_match_json_dumps(self, tmp_path, session_id):
        sessions = [Session(session_id, CART, 12345678901, (7, 1, 7)),
                    Session(session_id + "-2", PURCHASE, -3, (2, 30))]
        path = tmp_path / "sessions.jsonl"
        write_sessions(sessions, path)
        assert path.read_bytes() == "".join(
            json.dumps(s.to_row()) + "\n" for s in sessions).encode("utf-8")
        assert parse_sessions(path) == sessions

    def test_no_sessions_is_an_empty_file(self, tmp_path):
        path = tmp_path / "none.jsonl"
        write_sessions([], path)
        assert path.read_bytes() == b"" and parse_sessions(path) == []


class TestPreprocessing:
    # clean_session collapses the trailing repeat; max_len=20 cuts none of these
    def test_dedupe_trailing_collapses_run(self):
        assert clean_session(Session("a", PURCHASE, 0, (1, 2, 3, 3, 3))).items == (1, 2, 3)

    def test_dedupe_trailing_no_repeat(self):
        assert clean_session(Session("a", PURCHASE, 0, (1, 2, 3))).items == (1, 2, 3)

    def test_dedupe_trailing_all_same(self):
        assert clean_session(Session("a", PURCHASE, 0, (7, 7, 7, 7))) is None

    def test_dedupe_trailing_keeps_interior_repeats(self):
        s = Session("a", PURCHASE, 0, (1, 1, 2, 2, 3))
        assert clean_session(s).items == (1, 1, 2, 2, 3)

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

    def test_prepare_dataset_drops_an_id_of_both_kinds(self):
        """An id that names a purchase and a cart session leaves with both, wherever they
        stand; the sessions are read once, so an iterator serves as well as a list."""
        kept = make_sessions(15) + make_sessions(3, kind=CART, start_t=2, prefix="c")
        shared = [Session("b", CART, 1, (3, 4)), Session("b", PURCHASE, 20, (5, 6))]
        ds = prepare_dataset(iter([shared[0], *kept, shared[1]]))
        assert sorted(s.session_id for s in ds.all_sessions()) == sorted(s.session_id for s in kept)
        assert ds == prepare_dataset(kept)

    def test_prepare_dataset_refuses_an_id_repeated_in_one_kind(self):
        sessions = make_sessions(18)
        with pytest.raises(InputError, match=r"^session 's0003': repeated session_id$"):
            prepare_dataset([*sessions, Session("s0003", PURCHASE, 30, (1, 2))])

    def test_clean_session_dedupes_before_truncating(self):
        s = Session("a", PURCHASE, 0, (1, 2, 3, 4, 4))
        cleaned = clean_session(s, max_len=3)
        assert cleaned.items == (2, 3, 4)

    def test_clean_session_drops_too_short(self):
        assert clean_session(Session("a", PURCHASE, 0, (5, 5, 5)), max_len=20) is None
        assert clean_session(Session("a", PURCHASE, 0, (5,)), max_len=20) is None

    def test_clean_session_returns_its_input_when_it_cuts_nothing(self):
        s = Session("a", PURCHASE, 0, (1, 2, 3))
        assert clean_session(s, max_len=3) is s
        assert clean_session(s, max_len=2) == Session("a", PURCHASE, 0, (2, 3))
        assert clean_session(Session("a", PURCHASE, 0, (1, 2, 2)), max_len=3).items == (1, 2)

    def test_clean_session_keeps_pairs(self):
        cleaned = clean_session(Session("a", PURCHASE, 0, (5, 6)), max_len=20)
        assert cleaned.items == (5, 6)


class TestRefusals:
    """Each refusal of a data function names its fault."""

    @pytest.mark.parametrize("call, error, message", [
        # no empty item list reaches clean_session: the Session that would carry it is refused
        (lambda: clean_session(Session("a", PURCHASE, 0, ())), InputError,
         "session 'a': empty item list"),
        # a dense transition over data.TRANSITION_CAP entries is refused before it is built
        (lambda: make_transition(10 ** 4 + 1, seed=0), ConfigError,
         "a dense order-1 transition over 10001 products exceeds the cap of 100000000 entries"),
        (lambda: generate_synthetic(465, 5, order=2), ConfigError,
         "a dense order-2 transition over 465 products exceeds the cap of 100000000 entries"),
    ], ids=["dedupe-empty", "transition-order-1", "transition-order-2"])
    def test_refusal_names_its_fault(self, call, error, message):
        with pytest.raises(error) as refused:
            call()
        assert str(refused.value) == message

    @pytest.mark.parametrize("catalog_size, order", [(10 ** 4, 1), (464, 2)])
    def test_the_largest_transition_under_the_cap_passes_the_check(self, catalog_size, order):
        check_generator_args(catalog_size, order=order)


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

    def test_catalog_below_the_largest_id_is_refused_at_construction(self):
        sessions = [Session(f"s{i:02d}", PURCHASE, i, (1 + i % 10, 2 + (i + 1) % 9))
                    for i in range(18)]
        assert max_product_id(sessions) == 10
        with pytest.raises(InputError, match=r"ids <= catalog_size 5, got \[\d+, \d+\]"):
            prepare_dataset(sessions, max_len=8, catalog_size=5)

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
        {"train": [Session("séance-ü", PURCHASE, 1, (3, 4)), Session("日本\u2028", CART, 2, (5, 6))],
         "test": [Session("t", PURCHASE, 9, (1, 2))]},
        {"train": [Session('q"uote\\back\nline\t', PURCHASE, 0, (1, 2))],
         "test": [Session("t", PURCHASE, 9, (1, 2))]},
        {"train": [Session("\x00\x1f\x7f \U0001f600 \ud800", CART, 0, (1, 2))],
         "test": [Session('"\\"', PURCHASE, 9, (1, 2))]},
        {"test": [Session("t", PURCHASE, 9, (1, 2))]},  # empty train and val write as []
        # temporal_split breaks a tie on t by session id, so one t may straddle two splits
        {"train": [Session("a", PURCHASE, 3, (1, 2))], "test": [Session("b", PURCHASE, 3, (1, 2))]},
    ], ids=["non-ascii", "escapes", "control-and-surrogates", "only-test", "tie-across-splits"])
    def test_matches_json_dumps(self, splits):
        ds = PreparedDataset(**{k: splits.get(k, []) for k in ("train", "val", "test")},
                             catalog_size=12, max_len=5)
        text = ds.to_json()
        assert text == oracle_json(ds)
        back = PreparedDataset.from_json(text)
        assert (back.train, back.val, back.test) == (ds.train, ds.val, ds.test)

    @pytest.mark.parametrize("splits, message", [
        # a one-item session holds no input/target pair
        ({"train": [Session("one", PURCHASE, 7, (9,))], "test": [Session("two", PURCHASE, 8, (1,))]},
         "session 'one'"),
        # eval needs a test split
        ({"val": [Session("v", CART, 3, (2, 1, 2))]}, "empty test split"),
        ({}, "empty test split"),
        # preprocess keeps one session per id, and tests on purchases only
        ({"train": [Session("a", PURCHASE, 1, (1, 2))], "test": [Session("a", PURCHASE, 9, (3, 4))]},
         "session 'a': repeated session_id"),
        ({"test": [Session("c", CART, 9, (1, 2))]}, "session 'c': a test session must be a purchase"),
        # clean_session collapses a trailing repeat, and temporal_split orders the splits by t
        ({"train": [Session("tr", PURCHASE, 0, (1, 2))], "val": [Session("va", PURCHASE, 1, (2, 3))],
          "test": [Session("a", PURCHASE, 2, (3, 4, 4))]},
         "session 'a': a prepared session ends in two different ids, got \\[3, 4, 4\\]"),
        ({"train": [Session("tr", PURCHASE, 50, (1, 2))], "val": [Session("va", PURCHASE, 1, (2, 3))],
          "test": [Session("a", PURCHASE, 0, (3, 4))]},
         "prepared splits out of time order: train reaches t=50, after val begins at t=1"),
        ({"train": [Session("tr", PURCHASE, 4, (1, 2))], "test": [Session("a", PURCHASE, 3, (3, 4))]},
         "prepared splits out of time order: train reaches t=4, after test begins at t=3"),
    ], ids=["single-item", "only-val", "all-empty", "repeated-id", "cart-test-session",
            "trailing-repeat", "out-of-time-order", "out-of-time-order-around-empty-val"])
    def test_construction_refuses_what_the_reader_refuses(self, splits, message):
        """A dataset built in code meets the reader's rules, so to_json never writes a
        file that from_json refuses; both refuse with one message."""
        splits = {k: splits.get(k, []) for k in ("train", "val", "test")}
        with pytest.raises(InputError, match=message) as built:
            PreparedDataset(**splits, catalog_size=12, max_len=5)
        text = json.dumps({"catalog_size": 12, "max_len": 5, "padding_id": 0,
                           **{k: [s.to_row() for s in v] for k, v in splits.items()}}, indent=1)
        with pytest.raises(InputError) as read:
            PreparedDataset.from_json(text)
        assert str(read.value) == str(built.value)

    def test_the_constructor_is_the_only_way_in(self):
        """The splits are tuples of a frozen dataset: a session appended or a split
        replaced after construction fails, and ``dataclasses.replace`` builds a new
        dataset through the rules."""
        ds = PreparedDataset(train=[Session("a", PURCHASE, 1, (1, 2))], val=[],
                             test=[Session("t", PURCHASE, 9, (1, 2))], catalog_size=8, max_len=5)
        assert (ds.train, ds.val, ds.test) == ((Session("a", PURCHASE, 1, (1, 2)),), (),
                                               (Session("t", PURCHASE, 9, (1, 2)),))
        with pytest.raises(AttributeError):
            ds.test.append(Session("late", PURCHASE, 999, (1, 99)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.test = [Session("late", PURCHASE, 999, (1, 99))]
        with pytest.raises(InputError, match="session 'late'"):
            dataclasses.replace(ds, test=[*ds.test, Session("late", PURCHASE, 999, (1, 99))])
        with pytest.raises(InputError, match="empty test split"):
            dataclasses.replace(ds, test=[])
        with pytest.raises(InputError, match="session 'a': repeated session_id"):
            dataclasses.replace(ds, val=ds.train)
        cart = Session("v", CART, 5, (2, 1))
        assert dataclasses.replace(ds, val=[cart]).val == (cart,)

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
        for ratio in (-0.1, 2.0, float("nan")):  # NaN would make every session a purchase
            with pytest.raises(ConfigError, match="cart_ratio"):
                generate_synthetic(5, 10, cart_ratio=ratio)

    @pytest.mark.parametrize("seed", [2 ** 63, -2 ** 63 - 1, 10 ** 20])
    def test_seed_beyond_int64_is_refused_before_any_draw(self, seed, monkeypatch):
        """The oracle saves its seed as an int64, so both generators refuse one that does
        not fit, before a transition is drawn."""
        monkeypatch.setattr("stylerec.data.make_transition", None)  # any draw would fail
        message = f"seed must fit in a signed 64-bit integer, got {seed}"
        with pytest.raises(ConfigError) as plain:
            generate_synthetic(5, 10, seed=seed)
        with pytest.raises(ConfigError) as styled:
            generate_style_correlated(10, 10, n_clusters=2, seed=seed)
        assert str(plain.value) == str(styled.value) == message

    def test_int64_seed_bounds_save(self, tmp_path):
        for seed in (2 ** 63 - 1, -2 ** 63):
            _, oracle = generate_synthetic(5, 3, seed=seed)
            oracle.save(tmp_path / "oracle.npz")
            with np.load(tmp_path / "oracle.npz") as back:
                assert int(back["seed"]) == seed


def choice_sampler(oracle, n_sessions, length_range, seed, cart_ratio):
    """The generator's sessions drawn with numpy's own ``Generator.choice``: per session
    one length, then one ``choice`` per item, then the cart flag."""
    rng = rng_for(seed, "sessions")
    sessions = []
    for idx in range(n_sessions):
        length = int(rng.integers(length_range[0], length_range[1] + 1))
        items = []
        while len(items) < length:
            probs = oracle.next_distribution(items)
            items.append(int(rng.choice(probs.size, p=probs)) + 1)
        kind = CART if rng.random() < cart_ratio else PURCHASE
        sessions.append(Session(f"syn{idx:06d}", kind, idx, tuple(items)))
    return sessions


class TestSamplerMatchesChoice:
    """``generate_synthetic`` draws from CDFs it builds once per state; every session
    equals the one ``Generator.choice`` draws from the same stream."""

    @pytest.mark.parametrize("cart_ratio", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("length_range", [(2, 2), (3, 20)], ids=["len2", "len3-20"])
    @pytest.mark.parametrize("P, order, clusters", [
        (2, 1, None), (300, 1, None), (2, 2, None), (12, 2, None), (300, 1, 5)],
        ids=["P2-order1", "P300-order1", "P2-order2", "P12-order2", "P300-clusters"])
    def test_sessions_and_oracle_are_identical(self, P, order, clusters, length_range,
                                               cart_ratio):
        n, seed = 150, 11
        if clusters:
            sessions, oracle, _ = generate_style_correlated(
                P, n, n_clusters=clusters, length_range=length_range, seed=seed,
                cart_ratio=cart_ratio)
            cluster_of = (np.arange(P) * clusters) // P
        else:
            sessions, oracle = generate_synthetic(P, n, length_range=length_range, seed=seed,
                                                  cart_ratio=cart_ratio, order=order)
            cluster_of = None
        reference = SyntheticOracle(make_transition(P, seed, order=order, cluster_of=cluster_of),
                                    np.full(P, 1.0 / P), seed, order, cluster_of)
        assert sessions == choice_sampler(reference, n, length_range, seed, cart_ratio)
        np.testing.assert_array_equal(oracle.transition, reference.transition)
        np.testing.assert_array_equal(oracle.initial, reference.initial)
        assert oracle.order == order and oracle.seed == seed
        if clusters:
            np.testing.assert_array_equal(oracle.cluster_of, cluster_of)
        else:
            assert oracle.cluster_of is None


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

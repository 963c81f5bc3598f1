import dataclasses
import json
import os
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grounddial import data as D
from grounddial.model import pack_batch, prepare_units
from grounddial.data import (
    DialogDataset,
    FeatureFileError,
    GenerationError,
    MissingFeatureError,
    ParseError,
    SyntheticConfig,
    Vocabulary,
    batch_iterator,
    dataset_from_dict,
    generate_synthetic,
    generate_synthetic_raw,
    load_dataset,
    load_features,
    write_features,
)


def small_cfg(**kw):
    base = dict(num_images=4, mu=8, num_colors=6, num_shapes=6, rounds=3,
                candidates=10, noise=0.1, d_v=16, seed=7)
    base.update(kw)
    return SyntheticConfig(**base)


def feature_blocks(raw, mu=4, d_v=4):
    """A [mu, d_v] block for each string image_id of a dataset dict, however
    malformed the rest of it is, so that a test reaches the parser."""
    dialogs = raw.get("dialogs") if isinstance(raw, dict) else None
    if not isinstance(dialogs, list):
        return {}
    return {d["image_id"]: np.zeros((mu, d_v)) for d in dialogs
            if isinstance(d, dict) and isinstance(d.get("image_id"), str)}


def write_dataset(tmp_path, raw, features=None, name="data.json"):
    """The dataset file, with features.bin beside it: `features`, or else
    `feature_blocks(raw)`."""
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    write_features(tmp_path / "features.bin",
                   feature_blocks(raw) if features is None else features)
    return p


def two_image_raw():
    def rnd(q, a, opts, gt):
        return {"question": q, "answer": a, "answer_options": opts, "gt_index": gt}
    return {
        "version": "1.0",
        "dialogs": [
            {"image_id": "a", "caption": "a cat on a mat",
             "rounds": [rnd("is he standing ?", "yes", ["yes", "no"], 0)]},
            {"image_id": "b", "caption": "a dog",
             "rounds": [rnd("what color ?", "red", ["red", "blue"], 0)]},
        ],
    }


# ---------------------------------------------------------------------------
# tokenization

def caption_ids(vocab, text):
    """The token ids `dataset_from_dict` gives a caption under `vocab`."""
    raw = {"dialogs": [{"image_id": "im0", "caption": text, "rounds": []}]}
    return dataset_from_dict(raw, feature_blocks(raw), vocab=vocab).examples[0].caption_tokens


def test_known_words_encode_past_the_reserved_ids():
    vocab = Vocabulary(["is", "he", "standing", "?"])
    ids = caption_ids(vocab, "Is he standing ?")
    assert len(ids) == 4
    assert all(i >= len(D.RESERVED) for i in ids)
    assert caption_ids(vocab, "") == []


def test_mask_true_entries_form_prefix():
    """A packed batch's masks mark a prefix of each padded row (the history
    grid, built from the encoders' rows, is checked in `test_model`)."""
    ds = generate_synthetic(small_cfg(num_images=2))
    units = prepare_units(ds, seq_len=20, max_history=3)
    batch = pack_batch(units)
    for mask, lengths in [(batch.q_mask, [len(u.question) for u in units]),
                          (batch.region_rows < batch.regions.shape[0],
                           [u.features.shape[0] for u in units])]:
        for row, n in zip(mask, lengths):
            assert row.tolist() == [True] * n + [False] * (len(row) - n)


def test_unknown_words_map_to_unk():
    vocab = Vocabulary(["known", "words"])
    ids = caption_ids(vocab, "unknown thing")
    assert ids == [D.UNK_ID, D.UNK_ID]


def test_vocabulary_reserved_and_bijective():
    vocab = Vocabulary(["b", "a", "c"])
    assert vocab.id_to_token[:4] == D.RESERVED
    for i, tok in enumerate(vocab.id_to_token):
        assert vocab.token_to_id[tok] == i


SPELLED_RESERVED = ["<pad> <unk> <bos> <eos>", "<eos>", "eos"]


@pytest.mark.parametrize("vocab", [None, Vocabulary([*D.RESERVED, "eos", "<", ">", *D.RESERVED])],
                         ids=["built", "listing_the_reserved_tokens"])
def test_text_never_encodes_to_pad_bos_or_eos(vocab):
    """Captions, questions, answers and options that spell the reserved
    tokens hold no PAD, BOS or EOS id: the tokenizer splits "<eos>" into
    "<", "eos" and ">", and the vocabulary keeps the reserved ids for the
    reserved strings. So no candidate the generative decoder ranks ends
    with EOS."""
    raw = {"dialogs": [{"image_id": f"im{k}", "caption": text,
                        "rounds": [{"question": text, "answer": text,
                                    "answer_options": SPELLED_RESERVED, "gt_index": k}]}
                       for k, text in enumerate(SPELLED_RESERVED)]}
    ds = dataset_from_dict(raw, feature_blocks(raw), vocab=vocab)
    assert ds.vocab.id_to_token[:4] == D.RESERVED
    texts = [ids for ex in ds.examples
             for ids in (ex.caption_tokens, *chain.from_iterable(
                 (r.question_tokens, r.answer_tokens, *r.candidates) for r in ex.rounds))]
    assert len(texts) == 3 * (3 + len(SPELLED_RESERVED))
    assert all(texts)
    assert {D.PAD_ID, D.BOS_ID, D.EOS_ID}.isdisjoint(chain.from_iterable(texts))


# ---------------------------------------------------------------------------
# dataset loading

def test_load_two_image_file(tmp_path):
    p = write_dataset(tmp_path, two_image_raw())
    ds = load_dataset(p, "train")
    assert len(ds.examples) == 2
    assert ds.examples[0].image_id == "a"
    assert ds.examples[0].rounds[0].question_tokens


def test_gt_index_out_of_range_is_parse_error(tmp_path):
    raw = two_image_raw()
    raw["dialogs"][0]["rounds"][0]["gt_index"] = 2
    p = write_dataset(tmp_path, raw)
    with pytest.raises(ParseError) as e:
        load_dataset(p, "train")
    assert "gt_index" in str(e.value)


def test_ten_round_dialog_loads(tmp_path):
    raw = {"version": "1.0", "dialogs": [{
        "image_id": "im", "caption": "cap",
        "rounds": [{"question": f"q {i}", "answer": "a", "answer_options": ["a", "b"], "gt_index": 0}
                   for i in range(10)],
    }]}
    p = write_dataset(tmp_path, raw)
    ds = load_dataset(p, "train")
    assert len(ds.examples[0].rounds) == 10


def test_missing_feature_error(tmp_path):
    raw = two_image_raw()
    feats = {"a": np.zeros((2, 4), dtype=np.float32)}  # no features for "b"
    p = write_dataset(tmp_path, raw, feats)
    with pytest.raises(MissingFeatureError) as e:
        load_dataset(p, "train")
    assert str(e.value) == f"no features for image_id 'b' in {tmp_path / 'features.bin'}"


def test_a_feature_map_without_an_image_raises_naming_it():
    with pytest.raises(MissingFeatureError) as e:
        dataset_from_dict(two_image_raw(), {"a": np.zeros((2, 4))})
    assert str(e.value) == "no features for image_id 'b'"


def test_a_dataset_file_needs_its_feature_file(tmp_path):
    p = tmp_path / "data.json"
    p.write_text(json.dumps(two_image_raw()))
    for given in (None, tmp_path / "other.bin"):
        with pytest.raises(MissingFeatureError) as e:
            load_dataset(p, "train", given)
        assert str(e.value) == f"feature file {given or tmp_path / 'features.bin'} does not exist"


@pytest.mark.parametrize("region", [-1, 3])
def test_gt_grounding_outside_the_image_is_rejected_in_memory(region):
    raw = two_image_raw()
    _round_at(raw, 1, 0)["gt_grounding"] = [0, region]
    with pytest.raises(ParseError) as e:
        dataset_from_dict(raw, {"a": np.zeros((2, 4)), "b": np.zeros((3, 4))})
    assert str(e.value) == ("$.dialogs[1].rounds[0].gt_grounding: region indices "
                            "must lie in [0, 3), the regions of image_id 'b'")


@pytest.mark.parametrize("region", [-1, 3])
def test_gt_grounding_outside_the_image_is_parse_error(tmp_path, region):
    raw = two_image_raw()
    _round_at(raw, 1, 0)["gt_grounding"] = [0, region]
    feats = {"a": np.zeros((2, 4), dtype=np.float32), "b": np.zeros((3, 4), dtype=np.float32)}
    p = write_dataset(tmp_path, raw, feats)
    with pytest.raises(ParseError) as e:
        load_dataset(p, "train")
    assert str(e.value) == (f"{p}: $.dialogs[1].rounds[0].gt_grounding: region indices "
                            "must lie in [0, 3), the regions of image_id 'b'")
    _round_at(raw, 1, 0)["gt_grounding"] = [0, 2]
    load_dataset(write_dataset(tmp_path, raw, feats), "train")


def test_relevance_validation(tmp_path):
    raw = two_image_raw()
    raw["dialogs"][0]["rounds"][0]["relevance"] = [0.0, 1.0]  # gt at 0 not maximal
    p = write_dataset(tmp_path, raw)
    with pytest.raises(ParseError):
        load_dataset(p, "train")


def _round_at(raw, dialog, index):
    return raw["dialogs"][dialog]["rounds"][index]


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["dialogs"][1]["rounds"].__setitem__(0, [1]),
     "$.dialogs[1].rounds[0]: round must be an object"),
    (lambda d: _round_at(d, 1, 0).pop("question"), "$.dialogs[1].rounds[0]: missing key 'question'"),
    (lambda d: _round_at(d, 0, 0).pop("gt_index"), "$.dialogs[0].rounds[0]: missing key 'gt_index'"),
    (lambda d: _round_at(d, 1, 0).__setitem__("answer_options", []),
     "$.dialogs[1].rounds[0].answer_options: must be a non-empty list"),
    (lambda d: _round_at(d, 1, 0).__setitem__("gt_index", 2),
     "$.dialogs[1].rounds[0].gt_index: must be in [0, 2)"),
    (lambda d: _round_at(d, 1, 0).__setitem__("gt_index", "0"),
     "$.dialogs[1].rounds[0].gt_index: must be in [0, 2)"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [1.0]),
     "$.dialogs[1].rounds[0].relevance: must align with answer_options"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [2.0, "x"]),
     "$.dialogs[1].rounds[0].relevance: entries must lie in [0, 1]"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [0.2, 0.5]),
     "$.dialogs[1].rounds[0].relevance: gt_index relevance must be maximal or tied-maximal"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [0.0, 0.0]),
     "$.dialogs[1].rounds[0].relevance: needs at least one positive entry"),
    (lambda d: _round_at(d, 1, 0).__setitem__("gt_grounding", [1.0]),
     "$.dialogs[1].rounds[0].gt_grounding: must be a list of region indices"),
    (lambda d: _round_at(d, 1, 0).__setitem__("gt_grounding", []),
     "$.dialogs[1].rounds[0].gt_grounding: must name at least one region"),
    (lambda d: _round_at(d, 1, 0).__setitem__("gt_grounding", [2, 2]),
     "$.dialogs[1].rounds[0].gt_grounding: must not name a region twice"),
    (lambda d: _round_at(d, 1, 0).__setitem__("gt_grounding", [0, 1, 0]),
     "$.dialogs[1].rounds[0].gt_grounding: must not name a region twice"),
    (lambda d: d["dialogs"].__setitem__(1, 3), "$.dialogs[1]: dialog must be an object"),
    (lambda d: d["dialogs"][1].pop("rounds"), "$.dialogs[1]: missing key 'rounds'"),
    (lambda d: d["dialogs"][1].__setitem__("rounds", 5), "$.dialogs[1].rounds: must be a list"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", ["abc", 1.0]),
     "$.dialogs[1].rounds[0].relevance: entries must be numbers"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [None, 1.0]),
     "$.dialogs[1].rounds[0].relevance: entries must be numbers"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [True, 1.0]),
     "$.dialogs[1].rounds[0].relevance: entries must be numbers"),
    (lambda d: _round_at(d, 1, 0).__setitem__("gt_index", True),
     "$.dialogs[1].rounds[0].gt_index: must be in [0, 2)"),
    (lambda d: _round_at(d, 1, 0).__setitem__("gt_grounding", [False]),
     "$.dialogs[1].rounds[0].gt_grounding: must be a list of region indices"),
    (lambda d: d["dialogs"][1].__setitem__("image_id", 7), "$.dialogs[1].image_id: must be a string"),
    (lambda d: d["dialogs"][0].__setitem__("caption", None), "$.dialogs[0].caption: must be a string"),
    (lambda d: _round_at(d, 1, 0).__setitem__("question", None),
     "$.dialogs[1].rounds[0].question: must be a string"),
    (lambda d: _round_at(d, 1, 0).__setitem__("answer", 3),
     "$.dialogs[1].rounds[0].answer: must be a string"),
    (lambda d: _round_at(d, 1, 0)["answer_options"].__setitem__(1, ["blue"]),
     "$.dialogs[1].rounds[0].answer_options[1]: must be a string"),
    (lambda d: _round_at(d, 1, 0).__setitem__("answer_options", ["red", "blue", None, 4]),
     "$.dialogs[1].rounds[0].answer_options[2]: must be a string"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [1.0, "abc"]),
     "$.dialogs[1].rounds[0].relevance: entries must be numbers"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [1.0, False]),
     "$.dialogs[1].rounds[0].relevance: entries must be numbers"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [1.0, 1.5]),
     "$.dialogs[1].rounds[0].relevance: entries must lie in [0, 1]"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [1.0, -0.5]),
     "$.dialogs[1].rounds[0].relevance: entries must lie in [0, 1]"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [1.0, float("nan")]),
     "$.dialogs[1].rounds[0].relevance: entries must lie in [0, 1]"),
    (lambda d: _round_at(d, 1, 0).__setitem__("relevance", [1.0, 2]),
     "$.dialogs[1].rounds[0].relevance: entries must lie in [0, 1]"),
])
def test_bad_round_parse_errors_name_the_path(mutate, message):
    raw = two_image_raw()
    mutate(raw)
    with pytest.raises(ParseError) as e:
        dataset_from_dict(raw, feature_blocks(raw))
    assert str(e.value) == message


@pytest.mark.parametrize("given, parsed", [([1, 0.5], [1.0, 0.5]), ([1.0, 0], [1.0, 0.0]),
                                           ([0.5, 0.25], [0.5, 0.25])])
def test_relevance_entries_parse_to_floats(given, parsed):
    raw = two_image_raw()
    _round_at(raw, 0, 0)["relevance"] = given
    got = dataset_from_dict(raw, feature_blocks(raw)).examples[0].rounds[0].relevance
    assert got == parsed and all(type(r) is float for r in got)
    assert got is not given


def test_dataset_from_dict_encodes_every_text_by_its_tokens():
    """Texts repeated across and within rounds, an option that tokenizes to
    nothing and words outside a given vocabulary: each caption, question,
    answer and option gets the ids of its own text's tokens, UNK for a word
    outside the vocabulary, under the
    vocabulary built from the dataset and under a smaller given one, and
    every text's holders share one token list object, no other text's."""
    options = ["yes", "no", "", "Yes !", "maybe so", "no", "  "]
    raw = {"dialogs": [
        {"image_id": f"im{i}", "caption": ["a cat on a mat", "A cat"][i % 2],
         "rounds": [{"question": ["is it red ?", "is it Red ?"][(i + j) % 2],
                     "answer": options[(i + j) % 5], "gt_index": 0,
                     "answer_options": [options[(i + j) % 5]] + options[:1 + (i + 2 * j) % 7]}
                    for j in range(3)]}
        for i in range(4)]}
    texts = [t for d in raw["dialogs"] for t in [d["caption"]] + [
        u for r in d["rounds"] for u in [r["question"], r["answer"], *r["answer_options"]]]]
    assert len(set(texts)) < len(texts) and "" in texts
    built = dataset_from_dict(raw, feature_blocks(raw))
    assert built.vocab.id_to_token == D.RESERVED + sorted({w for t in texts for w in D.tokenize(t)})
    encoded = dataset_from_dict(raw, feature_blocks(raw),
                                vocab=Vocabulary(["a", "cat", "no", "yes"]))
    assert D.UNK_ID in encoded.examples[0].caption_tokens          # "on", "mat"
    for ds in (built, encoded):
        held = [(ex.caption, ex.caption_tokens) for ex in ds.examples] + [
            pair for ex in ds.examples for r in ex.rounds
            for pair in [(r.question, r.question_tokens), (r.answer, r.answer_tokens),
                         *zip(r.candidate_texts, r.candidates)]]
        assert len(held) == len(texts)
        one = {}
        for text, tokens in held:
            assert tokens == [ds.vocab.token_to_id.get(w, D.UNK_ID) for w in D.tokenize(text)]
            assert one.setdefault(text, tokens) is tokens
        assert len({id(tokens) for tokens in one.values()}) == len(one) == len(set(texts))
        assert one[""] == one["  "] == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                               max_size=3),
    max_leaves=6)


def _value_paths(node, path=()):
    """The path of every value nested anywhere in a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


def _full_raw():
    """two_image_raw with every optional key present."""
    raw = two_image_raw()
    _round_at(raw, 0, 0).update(relevance=[1.0, 0.5], gt_grounding=[0])
    return raw


def _is_text(path) -> bool:
    """Whether the value at `path` is text the parser must get as a JSON string."""
    return (path[-1] in ("image_id", "caption", "question", "answer")
            or (len(path) > 1 and path[-2] == "answer_options"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_value_paths(_full_raw()))), JSON_VALUES)
def test_any_one_value_replaced_parses_or_raises_parse_error(path, value):
    """Any value put anywhere parses or raises ParseError naming a path; a
    non-string put where text belongs always raises."""
    raw = _full_raw()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        dataset_from_dict(raw, feature_blocks(raw))
    except ParseError as e:
        assert str(e).startswith("$")
    else:
        assert isinstance(value, str) or not _is_text(path), f"{value!r} parsed as text"


# ---------------------------------------------------------------------------
# feature files

def test_feature_roundtrip_synthetic_block(tmp_path):
    feats = {"img0": np.random.default_rng(0).normal(size=(8, 16)).astype(np.float32)}
    path = tmp_path / "f.bin"
    write_features(path, feats)
    back = load_features(path)
    assert set(back) == {"img0"}
    assert back["img0"].shape == (8, 16)
    assert np.array_equal(back["img0"].data, feats["img0"].astype(np.float64))


def test_feature_full_scale_header(tmp_path):
    feats = {"big": np.zeros((100, 2048), dtype=np.float32)}
    path = tmp_path / "f.bin"
    write_features(path, feats)
    back = load_features(path)
    assert back["big"].shape == (100, 2048)


def test_feature_truncation_names_the_file(tmp_path):
    feats = {"img0": np.ones((4, 4), dtype=np.float32)}
    path = tmp_path / "f.bin"
    write_features(path, feats)
    blob = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(blob[:-10])
    with pytest.raises(FeatureFileError, match="holds 54 data bytes where the manifest's "
                                               "shapes need 64$") as e:
        load_features(tmp_path / "cut.bin")
    assert str(e.value).startswith(str(tmp_path / "cut.bin"))


def _array_file(entries, blocks, trailer=b""):
    """Bytes of a feature file whose manifest lists `entries`, each a
    (name, shape), followed by the blocks' float32 data and `trailer`."""
    line = json.dumps({"tensors": [{"name": n, "shape": list(shape)} for n, shape in entries]})
    return (line.encode() + b"\n" + b"".join(np.asarray(b, "<f4").tobytes() for b in blocks)
            + trailer)


_TWO_BY_TWO = np.ones((2, 2))


@pytest.mark.parametrize("blob, message", [
    (_array_file([("a", [2, 2])], [_TWO_BY_TWO]).replace(b'"a"', b'"\xff"'),
     ": manifest line is not UTF-8 JSON"),
    (_array_file([("a", [2, 2])], [_TWO_BY_TWO], b"\x00\x01"),
     " holds 18 data bytes where the manifest's shapes need 16"),
    (_array_file([("a", [2, 2]), ("a", [2, 2])], [_TWO_BY_TWO] * 2),
     ": manifest names 'a' twice"),
    (b"[" * 100_000 + b"\n", ": manifest line is not UTF-8 JSON"),
    (np.ones(4, "<f4").tobytes(), " holds no manifest line"),
    (b"[]\n", ": manifest is not a JSON object"),
    (b'{"tensors": [{"name": "a", "shape": [2, -2]}]}\n',
     ': manifest "tensors" is not a list of objects with a string "name" and a "shape" '
     "of non-negative ints"),
], ids=["non-utf8-id", "trailing-bytes", "repeated-id", "nested-too-deep", "no-manifest-line",
        "not-an-object", "negative-shape"])
def test_corrupt_feature_file_names_the_file(tmp_path, blob, message):
    (tmp_path / "f.bin").write_bytes(blob)
    with pytest.raises(FeatureFileError) as e:
        load_features(tmp_path / "f.bin")
    assert str(e.value).startswith(f"{tmp_path / 'f.bin'}{message}")


@pytest.mark.parametrize("shape", [(0, 2), (2, 0), (4,), (1, 2, 2)])
def test_a_block_that_is_not_mu_by_d_v_names_the_image(tmp_path, shape):
    blob = _array_file([("a", shape), ("b", shape)], [np.ones(shape)] * 2)
    (tmp_path / "f.bin").write_bytes(blob)
    with pytest.raises(FeatureFileError) as e:
        load_features(tmp_path / "f.bin")
    assert str(e.value) == (f"{tmp_path / 'f.bin'}: image id 'a' has shape {list(shape)}; "
                            "a block is [mu, d_v] with mu and d_v at least 1")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_names_the_image_and_the_region(tmp_path, value):
    block = np.ones((2, 2), dtype=np.float32)
    block[1, 0] = value
    write_features(tmp_path / "f.bin", {"a": np.ones((2, 2)), "b": block})
    with pytest.raises(FeatureFileError, match="image id 'b' has a non-finite value in region 1$"):
        load_features(tmp_path / "f.bin")


def test_a_failed_rewrite_leaves_the_previous_feature_file_whole(tmp_path, monkeypatch):
    """A block that is not [mu, d_v], found past the first, or an error
    while the file is renamed into place leaves the last good file byte for
    byte, and no temporary."""
    write_features(tmp_path / "f.bin", {"a": np.ones((1, 2))})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match="feature block for 'b' must be"):
        write_features(tmp_path / "f.bin", {"a": np.ones((1, 2)), "b": np.ones(2)})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_features(tmp_path / "f.bin", {"a": np.zeros((3, 2))})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert sorted(before) == ["f.bin"]


@pytest.fixture(scope="module")
def feature_file(tmp_path_factory):
    """(scratch path, the bytes of a valid two-image feature file)."""
    folder = tmp_path_factory.mktemp("features")
    write_features(folder / "valid.bin", {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                                          "bé": np.ones((1, 3), dtype=np.float32)})
    return folder / "corrupt.bin", (folder / "valid.bin").read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_cut_or_changed_byte_loads_or_raises_feature_file_error(feature_file, data):
    path, blob = feature_file
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    byte = data.draw(st.integers(0, 255), label="byte")
    for corrupt in (blob[:cut], blob[:at] + bytes([byte]) + blob[at + 1:]):
        # a fresh file: truncating a written one in place is slow on some file systems
        path.unlink(missing_ok=True)
        path.write_bytes(corrupt)
        try:
            load_features(path)
        except FeatureFileError as e:
            assert str(e).startswith(str(path))


def test_feature_roundtrip_identity_on_maps():
    cfg = small_cfg()
    _, feats = generate_synthetic_raw(cfg)
    import io
    # write/load through a temp file path
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        path = td + "/f.bin"
        write_features(path, feats)
        back = load_features(path)
    assert set(back) == set(feats)
    for k in feats:
        assert np.array_equal(back[k].data, feats[k])


# ---------------------------------------------------------------------------
# synthetic generator

def test_synthetic_deterministic_bytes():
    a = D.dump_dataset_json(generate_synthetic_raw(small_cfg())[0])
    b = D.dump_dataset_json(generate_synthetic_raw(small_cfg())[0])
    assert a == b
    fa = generate_synthetic_raw(small_cfg())[1]
    fb = generate_synthetic_raw(small_cfg())[1]
    for k in fa:
        assert np.array_equal(fa[k], fb[k])


def test_synthetic_differs_across_seeds():
    a = D.dump_dataset_json(generate_synthetic_raw(small_cfg(seed=1))[0])
    b = D.dump_dataset_json(generate_synthetic_raw(small_cfg(seed=2))[0])
    assert a != b


def test_synthetic_each_round_single_grounding_index():
    ds = generate_synthetic(small_cfg(num_colors=4, num_shapes=4))
    for ex in ds.examples:
        for r in ex.rounds:
            assert r.gt_grounding is not None and len(r.gt_grounding) == 1


def test_synthetic_relevance_structure():
    ds = generate_synthetic(small_cfg())
    for ex in ds.examples:
        for r in ex.rounds:
            assert r.relevance is not None
            ones = [i for i, v in enumerate(r.relevance) if v == 1.0]
            assert ones == [r.gt_index]
            assert set(r.relevance) <= {0.0, 0.5, 1.0}


def test_synthetic_answer_reproducible_from_grounded_object():
    """Generator-internal consistency oracle: the gt answer must be exactly
    the queried attribute of the gt_grounding object."""
    cfg = small_cfg(num_images=20)
    raw, feats = generate_synthetic_raw(cfg)
    colors = D.COLOR_WORDS[:cfg.num_colors]
    shapes = D.SHAPE_WORDS[:cfg.num_shapes]
    for d in raw["dialogs"]:
        block = feats[d["image_id"]]
        for r in d["rounds"]:
            idx = r["gt_grounding"][0]
            color_i = int(np.argmax(block[idx, :cfg.num_colors]))
            shape_i = int(np.argmax(block[idx, cfg.num_colors:cfg.num_colors + cfg.num_shapes]))
            if "what shape" in r["question"]:
                assert r["answer"] == shapes[shape_i]
            else:
                assert r["answer"] == colors[color_i]
            assert r["answer_options"][r["gt_index"]] == r["answer"]


def test_synthetic_answer_not_in_question():
    raw, _ = generate_synthetic_raw(small_cfg(num_images=30))
    for d in raw["dialogs"]:
        for r in d["rounds"]:
            assert r["answer"] not in r["question"].split()


def grounding_free_mrr(raw, feats, cfg, n_rules):
    """Expected MRR of ranking each round's options by the first `n_rules`
    of these rules, in order, with a uniform random tie-break. No rule asks
    which region is the target. R0: the word is of the asked category. R1:
    it is present in the image. R2: it occurs there exactly once. R1 and R2
    read the argmax color and shape of each feature row."""
    colors, shapes = D._attribute_words(cfg)
    nc, ns = cfg.num_colors, cfg.num_shapes
    total, count = 0.0, 0
    for d in raw["dialogs"]:
        block = feats[d["image_id"]]
        seen = Counter(colors[i] for i in block[:, :nc].argmax(axis=1))
        seen.update(shapes[i] for i in block[:, nc:nc + ns].argmax(axis=1))
        for r in d["rounds"]:
            asked = shapes if r["question"].startswith("what shape") else colors
            keys = [(w in asked, seen[w] >= 1, seen[w] == 1)[:n_rules]
                    for w in r["answer_options"]]
            gt = keys[r["gt_index"]]
            above = sum(k > gt for k in keys)
            tied = keys.count(gt)
            total += sum(1.0 / rank for rank in range(above + 1, above + tied + 1)) / tied
            count += 1
    return total / count


def test_synthetic_answer_is_not_told_by_occurring_once():
    """Without grounding, the rule "the answer occurs exactly once in the
    image" may lift the MRR of ranking by category and presence by at most
    0.02: a target's answer must be no rarer in its image than the other
    words present."""
    cfg = SyntheticConfig(num_images=2000)
    raw, feats = generate_synthetic_raw(cfg)
    present = grounding_free_mrr(raw, feats, cfg, 2)
    once = grounding_free_mrr(raw, feats, cfg, 3)
    assert once - present <= 0.02, (present, once)


def test_synthetic_unsatisfiable_uniqueness():
    with pytest.raises(GenerationError):
        generate_synthetic_raw(small_cfg(mu=20, num_colors=4, num_shapes=4))


@pytest.mark.parametrize("setting, prefix", [
    (dict(mu=4, rounds=5, d_v=4000), "mu 4, rounds 5: "),
    (dict(mu=8, d_v=16), "d_v 16 "),
    (dict(mu=8, d_v=4000, candidates=5_000_000), "candidates 5000000 "),
])
def test_synthetic_config_rejects_before_searching_the_grid(monkeypatch, setting, prefix):
    """On a 2000 x 2000 grid, more rounds than objects, a small d_v and too
    many candidates are rejected without the layout search, which scans the
    grid's (p, q) pairs; the config is frozen once built."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_cfg().mu = 4

    def search(*args):
        raise AssertionError("the layout search ran")

    monkeypatch.setattr(D, "_referable_layout", search)
    with pytest.raises(GenerationError, match=f"^{prefix}"):
        SyntheticConfig(num_colors=2000, num_shapes=2000, **setting)


def most_referable_objects(nc, ns):
    """Brute force over every object set of an nc x ns grid: for each mu, the
    most uniquely referable objects (a color or a shape no other object has)
    any set of mu distinct objects holds."""
    cells = nc * ns
    sets = (np.arange(2 ** cells)[:, None] >> np.arange(cells)) & 1
    grid = sets.reshape(-1, nc, ns)
    once_color = grid.sum(axis=2) == 1
    once_shape = grid.sum(axis=1) == 1
    referable = (grid & (once_color[:, :, None] | once_shape[:, None, :])).sum(axis=(1, 2))
    most = np.zeros(cells + 1, dtype=int)
    np.maximum.at(most, sets.sum(axis=1), referable)
    return most


def assert_referable_image(cfg, objects, *sampled):
    """mu distinct objects on the grid, at least `rounds` of them referable,
    owning a color or a shape no other object has. `sampled`, when given, is
    the rest of what `_sample_objects` returns: the referable positions, and
    how many objects have each color and each shape."""
    assert len(set(objects)) == len(objects) == cfg.mu
    assert all(0 <= c < cfg.num_colors and 0 <= s < cfg.num_shapes for c, s in objects)
    colors = Counter(c for c, _ in objects)
    shapes = Counter(s for _, s in objects)
    referable = [i for i, (c, s) in enumerate(objects) if colors[c] == 1 or shapes[s] == 1]
    assert len(referable) >= cfg.rounds
    if sampled:
        assert sampled == (referable, [colors[c] for c in range(cfg.num_colors)],
                           [shapes[s] for s in range(cfg.num_shapes)])


def test_synthetic_config_rejects_exactly_the_settings_no_image_holds():
    """Every grid up to 4x4, every mu and rounds <= 3: the config accepts a
    setting exactly when some set of mu objects has `rounds` referable ones,
    and for each accepted one both `_built_objects` and the sampler the
    generator calls give such a set."""
    rng = np.random.default_rng(0)
    for nc in range(1, 5):
        for ns in range(1, 5):
            most = most_referable_objects(nc, ns)
            for mu in range(1, nc * ns + 1):
                for rounds in range(1, 4):
                    setting = dict(mu=mu, num_colors=nc, num_shapes=ns, rounds=rounds,
                                   candidates=2)
                    if most[mu] >= rounds:
                        cfg = small_cfg(**setting)
                        assert_referable_image(cfg, D._built_objects(cfg, rng))
                        assert_referable_image(cfg, *D._sample_objects(cfg, rng))
                    else:
                        with pytest.raises(GenerationError, match=f"^mu {mu}, rounds {rounds}:"):
                            small_cfg(**setting)


def referable_layout_loop(nc, ns, mu, rounds):
    """`_referable_layout` as one (p, q) pair at a time, in row-major order."""
    for p in range(nc + 1):
        for q in range(ns + 1):
            c, s = nc - p, ns - q
            most = (c if q else 0) + (s if p else 0) if p or q else min(c, s)
            n_min = max(0, mu - most, 2 * q - c, 2 * p - s, 2 * (p + q) - mu)
            if 2 * max(p, q) <= mu and n_min <= min(p * q, mu - rounds):
                return p, q, n_min
    return None


@pytest.mark.parametrize("block, side", [(D._LAYOUT_BLOCK, 8), (5, 4)])
def test_referable_layout_is_the_pairwise_scan(monkeypatch, block, side):
    """Every grid up to side x side, mu up to its size and rounds up to mu:
    the block scan finds the loop's first (p, q, n), as Python ints, also
    where a block ends inside a row."""
    monkeypatch.setattr(D, "_LAYOUT_BLOCK", block)
    for nc in range(1, side + 1):
        for ns in range(1, side + 1):
            for mu in range(1, nc * ns + 1):
                for rounds in range(1, mu + 1):
                    got = D._referable_layout(nc, ns, mu, rounds)
                    assert got == referable_layout_loop(nc, ns, mu, rounds), (nc, ns, mu, rounds)
                    assert got is None or all(type(v) is int for v in got)


@pytest.mark.parametrize("grid", [(6, 6, 22, 3), (6, 5, 15, 4), (5, 6, 26, 1)])
def test_synthetic_builds_an_image_random_draws_miss(grid):
    """Settings that hold an image, though 500 random object sets rarely do."""
    nc, ns, mu, rounds = grid
    cfg = small_cfg(num_images=3, mu=mu, num_colors=nc, num_shapes=ns, rounds=rounds, seed=1)
    raw, _ = generate_synthetic_raw(cfg)
    assert [len(d["rounds"]) for d in raw["dialogs"]] == [rounds] * 3
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert_referable_image(cfg, D._built_objects(cfg, rng))
    for _ in range(3):          # the sampler's fallback reads the built image
        assert_referable_image(cfg, *D._sample_objects(cfg, rng))


def test_synthetic_loader_roundtrip(tmp_path):
    cfg = small_cfg()
    raw, feats = generate_synthetic_raw(cfg)
    p = tmp_path / "data.json"
    p.write_text(D.dump_dataset_json(raw))
    write_features(tmp_path / "features.bin", feats)
    ds = load_dataset(p, "train")
    direct = generate_synthetic(cfg)
    assert ds.vocab.id_to_token == direct.vocab.id_to_token
    assert ds.vocab.token_to_id == direct.vocab.token_to_id
    assert len(ds.examples) == len(direct.examples)
    for a, b in zip(ds.examples, direct.examples):
        assert (a.image_id, a.caption, a.caption_tokens) == (b.image_id, b.caption, b.caption_tokens)
        assert np.array_equal(a.region_features, b.region_features)
        assert len(a.rounds) == len(b.rounds) == cfg.rounds
        for ra, rb in zip(a.rounds, b.rounds):
            # every field: texts, question, answer and candidate tokens,
            # gt_index, relevance and gt_grounding
            assert dataclasses.asdict(ra) == dataclasses.asdict(rb)


# ---------------------------------------------------------------------------
# batching

def _tiny_units():
    """The 12 (example, round) keys of 4 images x 3 rounds, in file order."""
    return generate_synthetic(small_cfg(num_images=4)).units()


def test_batch_sizes_partial_kept():
    units = _tiny_units()
    sizes = [len(b) for b in batch_iterator(units, 4, seed=0)]
    assert sizes == [4, 4, 4]
    sizes = [len(b) for b in batch_iterator(units, 5, seed=0)]
    assert sizes == [5, 5, 2]


def test_batch_same_seed_same_order():
    units = _tiny_units()
    a = list(batch_iterator(units, 4, seed=3))
    b = list(batch_iterator(units, 4, seed=3))
    assert a == b
    c = list(batch_iterator(units, 4, seed=4))
    assert a != c
    assert sorted(u for batch in a for u in batch) == units


def test_batch_no_shuffle_is_file_order():
    units = _tiny_units()
    flat = [u for b in batch_iterator(units, 4, seed=None) for u in b]
    assert flat == units


def test_batch_empty_dataset():
    ds = DialogDataset(examples=[], vocab=Vocabulary([]), split="train")
    assert list(batch_iterator(ds.units(), 4, seed=0)) == []

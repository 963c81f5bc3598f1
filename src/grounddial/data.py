"""Dataset schema, tokenization, array files (region features and
checkpoints), batching, and the synthetic grounding task generator.

Dataset JSON: { "version": "1.0", "dialogs": [ { "image_id", "caption",
"rounds": [ { "question", "answer", "answer_options", "gt_index",
"relevance"?, "gt_grounding"? } ] } ] }.

Array file, the one on-disk format of named float arrays (a feature
file, a checkpoint): one line of JSON with sorted keys, a header's fields
and "tensors", the list of each array's {"name", "shape"} in file order;
then the arrays' little-endian data, row-major and back to back in that
order. `write_arrays` writes one and `read_arrays` reads it back. A feature
file holds float32 arrays, one [mu, d_v] block named by its image_id, and
no header field; a checkpoint (`training.save_checkpoint`) holds float64
arrays and its config, vocabulary and epoch.

A dataset exists only with its images' features: `dataset_from_dict`, its
one constructor, attaches each image's [mu, d_v] float64 array and checks
the rounds' gt_grounding against it. A dataset file needs its feature file.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3
RESERVED = ["<pad>", "<unk>", "<bos>", "<eos>"]

_TOKEN_RE = re.compile(r"[a-z0-9']+|[^a-z0-9\s]")


class ParseError(ValueError):
    """Dataset JSON violates the documented schema; message carries the path."""


class MissingFeatureError(KeyError):
    """A dataset's feature file does not exist, or an image_id in the
    dataset has no feature block."""

    def __str__(self) -> str:
        return str(self.args[0])      # the message, without KeyError's quotes


class FeatureFileError(ValueError):
    """Feature file is corrupt; message names the file and, where one
    applies, the image_id."""


class GenerationError(ValueError):
    """Synthetic config cannot be satisfied."""


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace+punctuation tokenization."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Bijective token<->id map with fixed reserved ids PAD/UNK/BOS/EOS."""

    def __init__(self, tokens: Sequence[str]):
        self.id_to_token: list[str] = list(RESERVED) + [t for t in tokens if t not in RESERVED]
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)


@dataclass
class Round:
    question: str
    answer: str
    candidate_texts: list[str]
    gt_index: int
    question_tokens: list[int] = field(default_factory=list)
    answer_tokens: list[int] = field(default_factory=list)
    candidates: list[list[int]] = field(default_factory=list)
    relevance: Optional[list[float]] = None
    gt_grounding: Optional[list[int]] = None


@dataclass
class DialogExample:
    image_id: str
    caption: str
    rounds: list[Round]
    region_features: np.ndarray     # [mu, d_v] float64, shared by the dialog's units
    caption_tokens: list[int] = field(default_factory=list)


@dataclass
class DialogDataset:
    examples: list[DialogExample]
    vocab: Vocabulary
    split: str

    def units(self) -> list[tuple[int, int]]:
        """All (example_index, round_index) training units in file order."""
        return [(i, t) for i, ex in enumerate(self.examples) for t in range(len(ex.rounds))]


# ---------------------------------------------------------------------------
# dataset loading

def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ParseError(f"{path}: {msg}")


def _is_int(value) -> bool:
    """A JSON integer; a bool is not one, although Python counts it as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_round(obj, dialog: int, index: int) -> Round:
    """One validated round; its path is spelled out only if a check fails."""
    def fail(field: str, msg: str):
        raise ParseError(f"$.dialogs[{dialog}].rounds[{index}]{field}: {msg}")

    if not isinstance(obj, dict):
        fail("", "round must be an object")
    for key in ("question", "answer", "answer_options", "gt_index"):
        if key not in obj:
            fail("", f"missing key {key!r}")
    for key in ("question", "answer"):
        if not isinstance(obj[key], str):
            fail(f".{key}", "must be a string")
    options = obj["answer_options"]
    if not (isinstance(options, list) and options):
        fail(".answer_options", "must be a non-empty list")
    if not all(isinstance(option, str) for option in options):
        for k, option in enumerate(options):
            if not isinstance(option, str):
                fail(f".answer_options[{k}]", "must be a string")
    gt = obj["gt_index"]
    if not (_is_int(gt) and 0 <= gt < len(options)):
        fail(".gt_index", f"must be in [0, {len(options)})")
    relevance = obj.get("relevance")
    if relevance is not None:
        if not (isinstance(relevance, list) and len(relevance) == len(options)):
            fail(".relevance", "must align with answer_options")
        if all(type(r) is float and 0.0 <= r <= 1.0 for r in relevance):
            values = relevance[:]
        else:                   # ints, or an entry the checks below reject
            values = []
            for r in relevance:
                if not (_is_int(r) or isinstance(r, float)):
                    fail(".relevance", "entries must be numbers")
                if not 0.0 <= r <= 1.0:
                    fail(".relevance", "entries must lie in [0, 1]")
                values.append(float(r))
        top = max(values)
        if values[gt] < top - 1e-12:
            fail(".relevance", "gt_index relevance must be maximal or tied-maximal")
        if top <= 0.0:
            fail(".relevance", "needs at least one positive entry")
        relevance = values
    grounding = obj.get("gt_grounding")
    if grounding is not None:
        if not (isinstance(grounding, list) and all(_is_int(i) for i in grounding)):
            fail(".gt_grounding", "must be a list of region indices")
        if not grounding:
            fail(".gt_grounding", "must name at least one region")
        if len(set(grounding)) != len(grounding):
            fail(".gt_grounding", "must not name a region twice")
    return Round(
        question=obj["question"],
        answer=obj["answer"],
        candidate_texts=list(options),
        gt_index=gt,
        relevance=relevance,
        gt_grounding=list(grounding) if grounding is not None else None,
    )


def dataset_from_dict(raw, features: dict[str, np.ndarray], split: str = "train",
                      vocab: Optional[Vocabulary] = None) -> DialogDataset:
    """Validate a parsed dataset object, attach its features and encode its text.

    `features` maps image_id to its [mu, d_v] float64 array, which each
    example of that image holds. A dialog whose image has no block raises
    MissingFeatureError naming the image_id, and a gt_grounding index
    outside [0, mu) raises ParseError.

    When `vocab` is None a vocabulary is built from this dataset's text;
    pass the training vocabulary for val/test so ids line up. Each distinct text
    (caption, question, answer or option) is tokenized once per call, and the
    built vocabulary and the encoding both read those tokens; options repeat
    across rounds, as a VisDial round's 100 do. Every caption,
    question, answer and option with the same text holds that text's one
    token list; nothing in the package writes to a token list.
    """
    _expect(isinstance(raw, dict), "$", "top level must be an object")
    _expect("dialogs" in raw, "$", "missing key 'dialogs'")
    declared = raw.get("split")
    if declared is not None and declared != split:
        raise ParseError(f"$.split: file says {declared!r}, caller asked for {split!r}")
    dialogs = raw["dialogs"]
    _expect(isinstance(dialogs, list), "$.dialogs", "must be a list")

    examples: list[DialogExample] = []
    for i, d in enumerate(dialogs):
        if not isinstance(d, dict):
            raise ParseError(f"$.dialogs[{i}]: dialog must be an object")
        for key in ("image_id", "caption", "rounds"):
            if key not in d:
                raise ParseError(f"$.dialogs[{i}]: missing key {key!r}")
        for key in ("image_id", "caption"):
            if not isinstance(d[key], str):
                raise ParseError(f"$.dialogs[{i}].{key}: must be a string")
        if not isinstance(d["rounds"], list):
            raise ParseError(f"$.dialogs[{i}].rounds: must be a list")
        rounds = [_parse_round(r, i, j) for j, r in enumerate(d["rounds"])]
        image_id = d["image_id"]
        if image_id not in features:
            raise MissingFeatureError(f"no features for image_id {image_id!r}")
        block = features[image_id]
        mu = block.shape[0]
        for j, r in enumerate(rounds):
            if r.gt_grounding is not None and not all(0 <= k < mu for k in r.gt_grounding):
                raise ParseError(f"$.dialogs[{i}].rounds[{j}].gt_grounding: region indices "
                                 f"must lie in [0, {mu}), the regions of image_id {image_id!r}")
        examples.append(DialogExample(image_id=image_id, caption=d["caption"], rounds=rounds,
                                      region_features=block))

    texts: list[str] = []
    for ex in examples:
        texts.append(ex.caption)
        for r in ex.rounds:
            texts.append(r.question)
            texts.append(r.answer)
            texts.extend(r.candidate_texts)
    words = {text: tokenize(text) for text in dict.fromkeys(texts)}
    if vocab is None:
        vocab = Vocabulary(sorted(set(chain.from_iterable(words.values()))))
    encode = vocab.token_to_id.get
    ids = {text: [encode(w, UNK_ID) for w in tokens] for text, tokens in words.items()}

    for ex in examples:
        ex.caption_tokens = ids[ex.caption]
        for r in ex.rounds:
            r.question_tokens = ids[r.question]
            r.answer_tokens = ids[r.answer]
            r.candidates = [ids[c] for c in r.candidate_texts]
    return DialogDataset(examples=examples, vocab=vocab, split=split)


def load_dataset(path, split: str = "train", features_path=None,
                 vocab: Optional[Vocabulary] = None) -> DialogDataset:
    """Materialize a dataset file and its features; example order is file order.

    `vocab` is as for dataset_from_dict. The feature file is required: it
    is `features_path`, or else features.bin next to the dataset file, and
    one that does not exist raises MissingFeatureError naming it. A
    ParseError names the dataset file; a file that is not UTF-8 JSON raises
    one too. An image with no block raises MissingFeatureError naming the
    feature file.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as e:         # JSONDecodeError or UnicodeDecodeError
            raise ParseError(f"{path}: $: not valid JSON ({e})") from e
    features_path = Path(features_path) if features_path is not None else path.parent / "features.bin"
    if not features_path.exists():
        raise MissingFeatureError(f"feature file {features_path} does not exist")
    features = load_features(features_path)
    try:
        return dataset_from_dict(raw, features, split, vocab)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None
    except MissingFeatureError as e:
        raise MissingFeatureError(f"{e} in {features_path}") from None


# ---------------------------------------------------------------------------
# array files and region feature files

def write_arrays(path, arrays: dict[str, np.ndarray], dtype: str, header: dict) -> None:
    """Write `arrays` as `dtype` to path.tmp, then rename it over path in
    one step: an error while writing (a full disk) leaves the previous file
    whole. Nothing is fsynced."""
    path = Path(path)
    manifest = {**header,
                "tensors": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]}
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            # JSON text holds no raw newline, so one ends the manifest line
            fh.write(json.dumps(manifest, sort_keys=True).encode() + b"\n")
            for a in arrays.values():
                fh.write(np.ascontiguousarray(a, dtype=dtype).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_arrays(path, dtype: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read what write_arrays wrote: (the manifest, name -> float64 array).

    A file with no manifest line, a manifest that is not a JSON object whose
    "tensors" is a list of {"name": str, "shape": list of ints >= 0} naming
    no array twice, or data whose size is not that of the shapes' `dtype`
    values, raises ValueError naming the file. The size is compared before
    any array is formed, so a corrupt shape cannot ask for gigabytes."""
    raw = Path(path).read_bytes()
    end = raw.find(b"\n")
    if end < 0:
        raise ValueError(f"{path} holds no manifest line")
    try:
        manifest = json.loads(raw[:end].decode("utf-8"))
    except (ValueError, RecursionError) as e:   # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"{path}: manifest line is not UTF-8 JSON ({e})") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    entries = manifest.get("tensors")
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list) and all(_is_int(d) and d >= 0 for d in e["shape"])
            for e in entries):
        raise ValueError(f'{path}: manifest "tensors" is not a list of objects with a string '
                         '"name" and a "shape" of non-negative ints')
    seen: set[str] = set()
    for e in entries:
        if e["name"] in seen:
            raise ValueError(f"{path}: manifest names {e['name']!r} twice")
        seen.add(e["name"])
    counts = [math.prod(e["shape"]) for e in entries]
    size, expected = len(raw) - end - 1, np.dtype(dtype).itemsize * sum(counts)
    if size != expected:
        raise ValueError(f"{path} holds {size} data bytes where the manifest's shapes "
                         f"need {expected}")
    data = np.frombuffer(raw, dtype=dtype, offset=end + 1).astype(np.float64)
    pieces = np.split(data, np.cumsum(counts[:-1], dtype=np.intp))
    return manifest, {e["name"]: a.reshape(e["shape"]) for e, a in zip(entries, pieces)}


def write_features(path, features: dict[str, np.ndarray]) -> None:
    """Write image_id -> [mu, d_v] blocks as a float32 array file; every
    block is checked before the file is touched."""
    blocks = {image_id: np.asarray(block) for image_id, block in features.items()}
    for image_id, block in blocks.items():
        if block.ndim != 2:
            raise ValueError(f"feature block for {image_id!r} must be [mu, d_v]")
    write_arrays(path, blocks, "<f4", {})


def load_features(path) -> dict[str, np.ndarray]:
    """Read a feature file into image_id -> [mu, d_v] float64 array.

    A file that `read_arrays` refuses, a block that is not [mu, d_v] with
    mu and d_v at least 1, blocks of different widths (d_v), or a NaN or
    infinite value raises FeatureFileError naming the file and, past the
    manifest's own checks, the image_id.
    """
    try:
        _, blocks = read_arrays(path, "<f4")
    except ValueError as e:
        raise FeatureFileError(str(e)) from None
    width: Optional[int] = None
    for image_id, block in blocks.items():
        where = f"{path}: image id {image_id!r}"
        if block.ndim != 2 or 0 in block.shape:
            raise FeatureFileError(f"{where} has shape {list(block.shape)}; a block is "
                                   "[mu, d_v] with mu and d_v at least 1")
        if width is not None and block.shape[1] != width:
            raise FeatureFileError(f"{where} has {block.shape[1]} values per region, "
                                   f"the first image {width}")
        width = block.shape[1]
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise FeatureFileError(f"{where} has a non-finite value in region "
                                   f"{int(finite.argmin())}")
    return blocks


# ---------------------------------------------------------------------------
# synthetic grounding task

COLOR_WORDS = ["red", "blue", "green", "yellow", "purple", "orange", "pink", "brown", "gray", "cyan"]
SHAPE_WORDS = ["circle", "square", "triangle", "star", "diamond", "hexagon", "oval", "cross", "heart", "ring"]
_LAYOUT_BLOCK = 1 << 16  # (p, q) pairs, row-major, that `_referable_layout` checks at once


@dataclass(frozen=True)
class SyntheticConfig:
    """The synthetic task's settings; construction raises GenerationError
    naming the first field that cannot be generated."""
    num_images: int = 500
    mu: int = 8                 # objects per image
    num_colors: int = 6
    num_shapes: int = 6
    rounds: int = 3
    candidates: int = 10
    noise: float = 0.1          # gaussian feature noise scale, in [0, 1]
    d_v: int = 16
    seed: int = 7

    def __post_init__(self) -> None:
        for name in ("num_images", "mu", "num_colors", "num_shapes", "rounds", "candidates", "d_v"):
            if getattr(self, name) < 1:
                raise GenerationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise GenerationError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.noise <= 1.0:
            raise GenerationError(f"noise must lie in [0, 1], got {self.noise}")
        if self.mu > self.num_colors * self.num_shapes:
            raise GenerationError(
                f"mu {self.mu}: cannot place {self.mu} objects with unique (color, shape) "
                f"pairs, only num_colors x num_shapes = {self.num_colors}x{self.num_shapes} "
                "combinations exist"
            )
        if self.rounds > self.mu:
            raise GenerationError(f"mu {self.mu}, rounds {self.rounds}: an image of {self.mu} "
                                  f"objects cannot have {self.rounds} referable ones")
        if self.d_v < self.num_colors + self.num_shapes:
            raise GenerationError(f"d_v {self.d_v} is below num_colors + num_shapes = "
                                  f"{self.num_colors + self.num_shapes}, too small for one-hot "
                                  "color+shape coding")
        answers = self.num_colors * self.num_shapes + self.num_colors + self.num_shapes
        if self.candidates > answers:
            raise GenerationError(f"candidates {self.candidates} exceeds the {answers} distinct "
                                  "answers the vocabulary can supply")
        # last: the search scans the num_colors x num_shapes grid
        if _referable_layout(self.num_colors, self.num_shapes, self.mu, self.rounds) is None:
            raise GenerationError(
                f"mu {self.mu}, rounds {self.rounds}: no image of {self.mu} objects over "
                f"num_colors x num_shapes = {self.num_colors}x{self.num_shapes} has {self.rounds} "
                "uniquely referable ones (a color or a shape no other object has)"
            )


def _referable_layout(nc: int, ns: int, mu: int,
                      rounds: int) -> Optional[tuple[int, int, int]]:
    """(p, q, n) of an image of mu distinct (color, shape) objects over an
    nc x ns grid with `rounds` uniquely referable ones, each owning a color
    or a shape that occurs once in the image; None when no image has them.

    Say p colors and q shapes occur twice or more, and every other color and
    shape at most once. The n objects with a repeated color and a repeated
    shape are not referable; the other mu - n are, at most one per once-only
    color or shape: (nc - p) + (ns - q) of them, but only ns - q when q = 0,
    as each object then owns a once-only shape, nc - p when p = 0, and
    min(nc, ns) when both are 0. Each repeated color must occur
    twice: where the n objects, spread evenly over the p x q repeated pairs,
    give it fewer, referable objects of that color with once-only shapes
    make up the rest, and repeated shapes likewise. An image exists exactly
    when some p, q and n meet these bounds; `_built_objects` builds it.
    """
    cols = min(ns, mu // 2) + 1         # no p or q above mu // 2 fits
    cells = (min(nc, mu // 2) + 1) * cols
    for start in range(0, cells, _LAYOUT_BLOCK):
        p, q = np.divmod(np.arange(start, min(start + _LAYOUT_BLOCK, cells)), cols)
        c, s = nc - p, ns - q
        most = np.where(p | q, c * (q > 0) + s * (p > 0), np.minimum(c, s))
        n_min = np.max([mu - most, 2 * q - c, 2 * p - s, 2 * (p + q) - mu], axis=0).clip(0)
        hit = np.flatnonzero(n_min <= np.minimum(p * q, mu - rounds))
        if hit.size:
            return int(p[hit[0]]), int(q[hit[0]]), int(n_min[hit[0]])
    return None


def _built_objects(cfg: SyntheticConfig, rng: np.random.Generator) -> list[tuple[int, int]]:
    """The image whose layout `_referable_layout` finds, with its colors,
    shapes and object order shuffled; every object but the n is referable."""
    p, q, n = _referable_layout(cfg.num_colors, cfg.num_shapes, cfg.mu, cfg.rounds)
    colors = [int(c) for c in rng.permutation(cfg.num_colors)]
    shapes = [int(s) for s in rng.permutation(cfg.num_shapes)]
    # i -> (i mod p, (i + i // lcm) mod q) visits each repeated pair once,
    # keeping the per-color and per-shape counts within one of each other
    lcm = math.lcm(p, q)
    plain = [(i % p, (i + i // lcm) % q) for i in range(n)]
    short_c = [j for j in range(p) for _ in range(2 - min(2, sum(r == j for r, _ in plain)))]
    short_s = [j for j in range(q) for _ in range(2 - min(2, sum(c == j for _, c in plain)))]
    referable = cfg.mu - n
    # a objects own a once-only color, b a once-only shape, the rest both
    if p and q:
        a = max(len(short_s), referable - (cfg.num_shapes - q))
        b = referable - a
    elif q:                             # every color is once-only
        a, b = referable, 0
    elif p:                             # every shape is once-only
        a, b = 0, referable
    else:
        a = b = 0
    both = referable - a - b
    once_c, once_s = colors[p:], shapes[q:]
    objects = ([(colors[r], shapes[c]) for r, c in plain]
               + [(once_c[i], shapes[c]) for i, c in enumerate((short_s + [0] * a)[:a])]
               + [(colors[r], once_s[i]) for i, r in enumerate((short_c + [0] * b)[:b])]
               + [(once_c[a + i], once_s[b + i]) for i in range(both)])
    return [objects[int(i)] for i in rng.permutation(cfg.mu)]


def _attribute_words(cfg: SyntheticConfig) -> tuple[list[str], list[str]]:
    colors = [COLOR_WORDS[i] if i < len(COLOR_WORDS) else f"color{i}" for i in range(cfg.num_colors)]
    shapes = [SHAPE_WORDS[i] if i < len(SHAPE_WORDS) else f"shape{i}" for i in range(cfg.num_shapes)]
    return colors, shapes


def _sample_objects(cfg: SyntheticConfig, rng: np.random.Generator) -> tuple[list, list, list, list]:
    """mu distinct (color, shape) objects, the positions of the referable
    ones (a color or a shape no other object has), and each color's and each
    shape's count: a uniform draw of mu distinct pairs, redrawn until it holds
    cfg.rounds referable objects; after 500 misses, `_built_objects`'s image."""
    n_pairs = cfg.num_colors * cfg.num_shapes
    for attempt in range(501):
        objects = ([(int(p) // cfg.num_shapes, int(p) % cfg.num_shapes)
                    for p in rng.choice(n_pairs, size=cfg.mu, replace=False)]
                   if attempt < 500 else _built_objects(cfg, rng))
        color_counts = np.bincount([c for c, _ in objects], minlength=cfg.num_colors).tolist()
        shape_counts = np.bincount([s for _, s in objects], minlength=cfg.num_shapes).tolist()
        referable = [i for i, (c, s) in enumerate(objects)
                     if color_counts[c] == 1 or shape_counts[s] == 1]
        if len(referable) >= cfg.rounds:
            return objects, referable, color_counts, shape_counts


def _make_round(cfg, rng, objects, target_idx, colors, shapes,
                color_counts, shape_counts) -> dict:
    """One round's dict: a question naming the target's unique attribute,
    the other attribute as its answer, and `cfg.candidates` shuffled options.

    The words of the other objects, the set of those taken and the deduped
    lists (`dict.fromkeys`, first occurrence kept) are built once per round;
    `rng` is drawn in a fixed order, so a config gives the same rounds.
    """
    c, s = objects[target_idx]
    ask_shape_ok = color_counts[c] == 1
    ask_color_ok = shape_counts[s] == 1
    if ask_shape_ok and ask_color_ok:
        ask_shape = bool(rng.integers(2))
    else:
        ask_shape = ask_shape_ok
    color_words = [colors[oc] for i, (oc, _) in enumerate(objects) if i != target_idx]
    shape_words = [shapes[os] for i, (_, os) in enumerate(objects) if i != target_idx]
    if ask_shape:
        question = f"what shape is the {colors[c]} thing ?"
        answer = shapes[s]
        same_cat, other_cat = shape_words, color_words
        vocab_same, vocab_other = shapes, colors
    else:
        question = f"what color is the {shapes[s]} ?"
        answer = colors[c]
        same_cat, other_cat = color_words, shape_words
        vocab_same, vocab_other = colors, shapes

    # candidate pool, most plausible first: gt word, same-category words of
    # other objects, this image's other-category words, then unused
    # attribute vocabulary, then absent (color, shape) pair names as filler
    def dedup(words):
        kept = dict.fromkeys(words)         # first occurrences, in order
        kept.pop(answer, None)
        return list(kept)

    same_cat = dedup(same_cat)
    other_cat = dedup(other_cat)
    rng.shuffle(same_cat)
    rng.shuffle(other_cat)
    taken = set(same_cat).union(other_cat)
    rest = dedup([w for w in vocab_same + vocab_other if w not in taken])
    rng.shuffle(rest)
    pool = [answer] + same_cat + other_cat + rest
    if len(pool) < cfg.candidates:
        present = {(oc, os) for oc, os in objects}
        absent = [f"{colors[pc]} {shapes[ps]}" for pc in range(cfg.num_colors)
                  for ps in range(cfg.num_shapes) if (pc, ps) not in present]
        rng.shuffle(absent)
        pool += absent
    options = pool[:cfg.candidates]
    options = [options[k] for k in rng.permutation(len(options)).tolist()]
    gt_index = options.index(answer)
    same_set = set(same_cat)
    relevance = [1.0 if w == answer else (0.5 if w in same_set else 0.0) for w in options]
    return {
        "question": question,
        "answer": answer,
        "answer_options": options,
        "gt_index": gt_index,
        "relevance": relevance,
        "gt_grounding": [int(target_idx)],
    }


def generate_synthetic_raw(cfg: SyntheticConfig) -> tuple[dict, dict[str, np.ndarray]]:
    """Build the dataset dict and feature map; a pure function of cfg."""
    rng = np.random.default_rng(cfg.seed)
    colors, shapes = _attribute_words(cfg)
    dialogs = []
    features: dict[str, np.ndarray] = {}
    for img in range(cfg.num_images):
        objects, referable, color_counts, shape_counts = _sample_objects(cfg, rng)

        block = np.zeros((cfg.mu, cfg.d_v))
        for i, (c, s) in enumerate(objects):
            block[i, c] = 1.0
            block[i, cfg.num_colors + s] = 1.0
        block += cfg.noise * rng.normal(size=block.shape)
        image_id = f"synth{img:06d}"
        # stored as f32 in the feature file; quantize now so that generate ->
        # write -> load is an exact round-trip
        features[image_id] = block.astype(np.float32).astype(np.float64)

        targets = [int(i) for i in rng.permutation(referable)[:cfg.rounds]]
        rounds = [
            _make_round(cfg, rng, objects, t, colors, shapes, color_counts, shape_counts)
            for t in targets
        ]
        # a bland caption on purpose: an image-identifying caption would let
        # the decoder memorize answers through the context channel instead of
        # grounding, defeating the point of the task
        caption = f"a picture with {cfg.mu} colorful shapes"
        dialogs.append({"image_id": image_id, "caption": caption, "rounds": rounds})
    dataset = {"version": "1.0", "dialogs": dialogs}
    return dataset, features


def generate_synthetic(cfg: SyntheticConfig) -> DialogDataset:
    """In-memory "train" dataset with features attached; deterministic given cfg."""
    raw, features = generate_synthetic_raw(cfg)
    return dataset_from_dict(raw, features)


def dump_dataset_json(dataset_dict: dict) -> str:
    """Canonical JSON text so identical configs give identical bytes."""
    return json.dumps(dataset_dict, sort_keys=True, indent=1) + "\n"


# ---------------------------------------------------------------------------
# batching

def batch_iterator(items: Sequence, batch_size: int, seed: Optional[int]) -> Iterator[list]:
    """Yield one pass over `items` in batches of batch_size.

    A permutation seeded by `seed`, or the given order when seed is None;
    the final partial batch is kept.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    items = list(items)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(len(items))
        items = [items[int(i)] for i in order]
    for start in range(0, len(items), batch_size):
        yield items[start:start + batch_size]

"""Seeded input generators for the pipeline benchmark.

The benchmark owns its inputs: nothing here imports ``advsamp``, so a change
to the package cannot change a workload. Each generator writes svmlight text
(``label[,label...] idx:val ...``, zero-based feature indices) and returns
its parameters plus the byte size of every file it wrote.

Train and test files share the generating structure (cluster centres, topic
and label vocabularies) and are drawn from separately seeded streams.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# The structure (cluster centres, vocabularies, label marginals) is drawn
# from this fixed seed; the run seed and the sample index draw the rows. A
# workload is then one population, and each (seed, sample) pair is a sample
# from it.
STRUCTURE_SEED = 2002

# clustered(): TOP x SUB labels in DIM dense features
TOP, SUB, DIM = 16, 16, 32
TOP_SCALE, SUB_SCALE, NOISE_SCALE = 1.0, 0.5, 0.4

# text(): labels belong to one of TOPICS topics and own SIGNATURE words; a
# row's tokens come from its labels' signature words, its topic and the
# background in these shares
TOPICS, SIGNATURE = 32, 8
SIGNATURE_SHARE, TOPIC_SHARE = 0.5, 0.3


def _streams(seed: int, sample: int):
    """Independent RNGs for the structure, the train rows and the test rows."""
    return (np.random.default_rng([STRUCTURE_SEED, 0]),
            np.random.default_rng([seed, sample, 1]), np.random.default_rng([seed, sample, 2]))


def _zipf(n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1)
    return p / p.sum()


def _stratified(p: np.ndarray, n: int, rng) -> np.ndarray:
    """``n`` labels whose counts are as close to ``n * p`` as integers allow,
    in random order. Fixed counts keep the label and topic mix, and with it
    the covariance spectrum, the same from seed to seed."""
    counts = np.floor(n * p).astype(np.int64)
    rest = n - int(counts.sum())
    counts[np.argsort(counts - n * p, kind="stable")[:rest]] += 1
    return rng.permutation(np.repeat(np.arange(p.size), counts))


def _draw(cdf: np.ndarray, size, rng) -> np.ndarray:
    """Inverse-CDF draws; cheaper than ``rng.choice(p=...)`` in a row loop."""
    return np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right").clip(max=cdf.size - 1)


def _write_rows(path: Path, label_lists, indptr, indices, values, dim: int,
                num_labels: int) -> int:
    """Write svmlight text with an ``N K C`` header, so train and test agree on K."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(label_lists)} {dim} {num_labels}\n")
        for i, labels in enumerate(label_lists):
            lo, hi = indptr[i], indptr[i + 1]
            feats = " ".join(f"{j}:{v:.6g}" for j, v in zip(indices[lo:hi].tolist(),
                                                             values[lo:hi].tolist()))
            fh.write(f"{','.join(map(str, labels))} {feats}\n")
    return path.stat().st_size


def clustered(out_dir: Path, seed: int, sample: int, *, rows: int, test_rows: int) -> dict:
    """Dense hierarchical Gaussian clusters: ``TOP`` x ``SUB`` labels.

    Label marginals follow Zipf(1) over a random ranking of the labels, so
    the frequency baseline and the conditional tree disagree.
    """
    structure, train_rng, test_rng = _streams(seed, sample)
    num_labels = TOP * SUB
    centres = TOP_SCALE * structure.standard_normal((TOP, 1, DIM))
    centres = (centres + SUB_SCALE * structure.standard_normal((TOP, SUB, DIM)))
    centres = centres.reshape(num_labels, DIM)
    marginal = _zipf(num_labels)[structure.permutation(num_labels)]

    sizes = {}
    for name, rng, n in (("train", train_rng, rows), ("test", test_rng, test_rows)):
        labels = _stratified(marginal, n, rng)
        X = centres[labels] + NOISE_SCALE * rng.standard_normal((n, DIM))
        indptr = np.arange(n + 1) * DIM
        indices = np.tile(np.arange(DIM), n)
        sizes[name] = _write_rows(out_dir / f"{name}.txt", labels[:, None].tolist(),
                                  indptr, indices, X.ravel(), DIM, num_labels)
    return {
        "generator": "clustered", "seed": seed, "sample": sample,
        "structure_seed": STRUCTURE_SEED, "rows": rows, "test_rows": test_rows,
        "top": TOP, "sub": SUB, "num_labels": num_labels, "dim": DIM,
        "top_scale": TOP_SCALE, "sub_scale": SUB_SCALE, "noise_scale": NOISE_SCALE,
        "label_marginal": "zipf1", "bytes": sizes,
    }


def text(out_dir: Path, seed: int, sample: int, *, rows: int, test_rows: int, vocab: int,
         label_ids: int, tokens: int) -> dict:
    """Topic-structured bag-of-words rows with 1 to 3 labels each.

    Every label belongs to a topic and owns ``SIGNATURE`` words. A row's
    tokens come from its labels' signature words, its first label's topic
    and a Zipf(1) background over the vocabulary, in the shares above. Label
    ids follow Zipf(1) over a random ranking; the first label of each row is
    stratified. Values are log(1 + count), L2-normalised per row.
    """
    structure, train_rng, test_rng = _streams(seed, sample)
    background = _zipf(vocab)[structure.permutation(vocab)]
    label_marginal = _zipf(label_ids)[structure.permutation(label_ids)]
    word_cdf, label_cdf = np.cumsum(background), np.cumsum(label_marginal)
    label_topic = structure.integers(TOPICS, size=label_ids)
    topic_words = [structure.choice(vocab, size=vocab // TOPICS, replace=False,
                                    p=background) for _ in range(TOPICS)]
    sig_words = structure.integers(vocab, size=(label_ids, SIGNATURE))

    sizes = {}
    for name, rng, n in (("train", train_rng, rows), ("test", test_rng, test_rows)):
        counts = rng.integers(1, 4, size=n)
        first = _stratified(label_marginal, n, rng)
        label_lists = []
        indptr = np.zeros(n + 1, dtype=np.int64)
        idx_parts, val_parts = [], []
        n_tok = rng.poisson(tokens, size=n).clip(min=4)
        source = rng.random((n, int(n_tok.max())))
        for i in range(n):
            extra = _draw(label_cdf, counts[i] - 1, rng)
            labels = sorted({int(first[i]), *extra.tolist()})
            label_lists.append(labels)
            u = source[i, :n_tok[i]]
            n_sig = int((u < SIGNATURE_SHARE).sum())
            n_top = int(((u >= SIGNATURE_SHARE)
                         & (u < SIGNATURE_SHARE + TOPIC_SHARE)).sum())
            words = np.concatenate([
                sig_words[rng.choice(labels, size=n_sig), rng.integers(SIGNATURE, size=n_sig)],
                rng.choice(topic_words[label_topic[first[i]]], size=n_top),
                _draw(word_cdf, n_tok[i] - n_sig - n_top, rng),
            ])
            idx, cnt = np.unique(words, return_counts=True)
            val = np.log1p(cnt)
            idx_parts.append(idx)
            val_parts.append(val / np.linalg.norm(val))
            indptr[i + 1] = indptr[i] + idx.size
        sizes[name] = _write_rows(out_dir / f"{name}.txt", label_lists, indptr,
                                  np.concatenate(idx_parts), np.concatenate(val_parts),
                                  vocab, label_ids)
    return {
        "generator": "text", "seed": seed, "sample": sample,
        "structure_seed": STRUCTURE_SEED, "rows": rows, "test_rows": test_rows,
        "vocab": vocab, "label_ids": label_ids, "tokens": tokens, "topics": TOPICS,
        "signature": SIGNATURE, "signature_share": SIGNATURE_SHARE,
        "topic_share": TOPIC_SHARE, "labels_per_row": [1, 3],
        "label_marginal": "zipf1", "word_marginal": "zipf1", "bytes": sizes,
    }

"""The guide's first step: intelligently down-sampling two large tables.

Figure 2 of the paper: a user facing two 1M-tuple tables first down-samples
them to e.g. 100K tuples each before developing the EM workflow.  Naive
uniform sampling of both tables is a known trap — the probability that a
matching pair survives two independent uniform samples is the *product* of
the sampling rates, so most matches vanish and the development sample is
useless for training a matcher.

The down sampler here follows Magellan's ``down_sample`` design: sample B
uniformly to B', then pick A' as the A-tuples that share rare tokens with
B' (probed through an inverted index), topped up with random A-tuples.
Matches between A' and B' are thereby preserved at a far higher rate, which
``benchmarks/bench_ablation_downsample.py`` quantifies against the naive
sampler.
"""

from __future__ import annotations

import random
from collections import defaultdict

from repro.exceptions import ConfigurationError
from repro.table.schema import is_missing
from repro.table.table import Table
from repro.text.tokenizers import WhitespaceTokenizer


def _row_tokens(table: Table, columns: list[str], index: int) -> set[str]:
    tokenizer = WhitespaceTokenizer(return_set=True)
    tokens: set[str] = set()
    row = table.row(index)
    for column in columns:
        value = row[column]
        if not is_missing(value):
            tokens.update(token.lower() for token in tokenizer.tokenize(str(value)))
    return tokens


def _string_columns(table: Table, key: str) -> list[str]:
    return [name for name in table.columns if name != key]


def down_sample(
    ltable: Table,
    rtable: Table,
    size: int,
    y_param: int = 1,
    l_key: str = "id",
    r_key: str = "id",
    seed: int | None = None,
) -> tuple[Table, Table]:
    """Down-sample two tables to roughly ``size`` rows each.

    ``rtable`` is sampled uniformly; for each sampled right tuple the
    ``y_param`` left tuples sharing its rarest tokens are pulled into the
    left sample, so pairs that actually match survive.  The left sample is
    topped up with uniformly random rows if probing found fewer than
    ``size``.

    Returns ``(l_sample, r_sample)``.
    """
    if size < 1:
        raise ConfigurationError(f"size must be >= 1, got {size}")
    if y_param < 1:
        raise ConfigurationError(f"y_param must be >= 1, got {y_param}")
    rng = random.Random(seed)

    r_sample = rtable.sample(min(size, rtable.num_rows), seed=rng.randrange(2**31))

    # Inverted index over the left table's tokens.
    l_columns = _string_columns(ltable, l_key)
    token_index: dict[str, list[int]] = defaultdict(list)
    for i in range(ltable.num_rows):
        for token in _row_tokens(ltable, l_columns, i):
            token_index[token].append(i)

    r_columns = _string_columns(rtable, r_key)
    selected: set[int] = set()
    for j in range(r_sample.num_rows):
        tokens = _row_tokens(r_sample, r_columns, j)
        # Prefer rare tokens: they identify candidate matches most sharply.
        # Tokens are walked sorted so equally rare ones tie the same way
        # under every hash seed.
        postings = sorted(
            (token_index[t] for t in sorted(tokens) if t in token_index), key=len
        )
        picked = 0
        for posting in postings:
            for position in posting:
                if position not in selected:
                    selected.add(position)
                    picked += 1
                    if picked >= y_param:
                        break
            if picked >= y_param:
                break

    # Top up with random left rows to reach the requested size.
    remaining = [i for i in range(ltable.num_rows) if i not in selected]
    rng.shuffle(remaining)
    for position in remaining:
        if len(selected) >= min(size, ltable.num_rows):
            break
        selected.add(position)

    l_sample = ltable.take(sorted(selected))
    return l_sample, r_sample


def naive_down_sample(
    ltable: Table,
    rtable: Table,
    size: int,
    seed: int | None = None,
) -> tuple[Table, Table]:
    """Uniform independent sampling of both tables (the baseline the
    intelligent sampler is measured against)."""
    rng = random.Random(seed)
    l_sample = ltable.sample(min(size, ltable.num_rows), seed=rng.randrange(2**31))
    r_sample = rtable.sample(min(size, rtable.num_rows), seed=rng.randrange(2**31))
    return l_sample, r_sample


def sample_candset(candset: Table, n: int, seed: int | None = None) -> Table:
    """Uniformly sample ``n`` rows of a candidate set (guide step 'Sampling')."""
    return candset.sample(n, seed=seed)


def weighted_sample_candset(
    candset: Table,
    n: int,
    seed: int | None = None,
    top_fraction: float = 0.5,
) -> Table:
    """Sample a candidate set so that likely matches are represented.

    Candidate sets are heavily skewed toward non-matches, so a uniform
    sample of a few hundred pairs often contains almost no matches and
    cross-validation degenerates.  This sampler scores each pair by the
    Jaccard similarity of the whitespace tokens of its base tuples
    (concatenating all non-key attributes), draws ``top_fraction`` of the
    sample from the highest-scoring pairs and the rest uniformly from the
    remainder — the cheap, practical trick behind the guide's "take a
    sample S from C" step working at all.

    Requires the candidate set's catalog metadata (to reach the base
    tuples).
    """
    from repro.catalog.catalog import get_catalog
    from repro.catalog.checks import validate_candset

    if candset.num_rows <= n:
        return candset.copy()
    cat = get_catalog()
    meta = validate_candset(candset, cat)
    l_key = cat.get_key(meta.ltable)
    r_key = cat.get_key(meta.rtable)
    l_columns = _string_columns(meta.ltable, l_key)
    r_columns = _string_columns(meta.rtable, r_key)
    l_tokens = {
        meta.ltable.row(i)[l_key]: _row_tokens(meta.ltable, l_columns, i)
        for i in range(meta.ltable.num_rows)
    }
    r_tokens = {
        meta.rtable.row(i)[r_key]: _row_tokens(meta.rtable, r_columns, i)
        for i in range(meta.rtable.num_rows)
    }

    scores = []
    for l_id, r_id in zip(candset.column(meta.fk_ltable), candset.column(meta.fk_rtable)):
        left, right = l_tokens[l_id], r_tokens[r_id]
        union = len(left | right)
        scores.append(len(left & right) / union if union else 0.0)

    order = sorted(range(candset.num_rows), key=lambda i: -scores[i])
    n_top = int(round(n * top_fraction))
    top = order[:n_top]
    rest = order[n_top:]
    rng = random.Random(seed)
    rng.shuffle(rest)
    picked = sorted(top + rest[: n - len(top)])
    sample = candset.take(picked)
    cat.set_candset_metadata(
        sample, meta.key, meta.fk_ltable, meta.fk_rtable, meta.ltable, meta.rtable
    )
    return sample

# audit: module-role=bulk-api
"""Fixture: stable orders come from stable_argsort; unstable sorts stay."""

import numpy as np

from repro.gpusim.sorting import stable_argsort


def group_by_block(blocks, words, shift):
    order = stable_argsort(blocks)
    by_word = stable_argsort((blocks.astype(np.uint64) << shift) | words)
    # Answers scattered back by position need no stable order.
    probe_order = np.argsort(words)
    # audit: ignore[AUD107] - per-row 2-D argsort over fixed-width windows
    per_row = np.argsort(words.reshape(-1, 8), axis=1, kind="stable")
    return order, by_word, probe_order, per_row

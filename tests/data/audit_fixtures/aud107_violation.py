# audit: module-role=bulk-api
"""Fixture: stable sorts that bypass the packed-index primitive."""

import numpy as np


def group_by_block(blocks, words):
    order = np.argsort(blocks, kind="stable")
    by_word = np.lexsort((words, blocks))
    return order, by_word

import pytest

from cycloseq import ntheory


@pytest.fixture(autouse=True)
def cold_arena_memo():
    """Every test starts from an empty arena memo, so none sees an arena that
    another test built, or that a monkeypatched build_index_table made."""
    ntheory._MEMO.clear()

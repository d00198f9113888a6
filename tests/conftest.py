import pytest

from cycloseq import ntheory


@pytest.fixture(autouse=True)
def cold_arena_memo(monkeypatch):
    """Every test starts from an empty arena memo, so none sees an arena that
    another test built, or that a monkeypatched build_index_table made."""
    monkeypatch.setattr(ntheory, "_MEMO", ntheory._ArenaMemo())

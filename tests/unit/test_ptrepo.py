"""Unit tests for the points-to set interner (the frontier wire table)."""

from repro.datastructs.ptrepo import EMPTY_ID, PTRepo


class TestPTRepo:
    def test_empty_mask_is_id_zero(self):
        repo = PTRepo()
        assert repo.intern(0) == EMPTY_ID == 0
        assert repo.mask(EMPTY_ID) == 0
        # Id truthiness must match mask truthiness.
        assert not repo.intern(0) and repo.intern(0b1)

    def test_intern_dedups(self):
        repo = PTRepo()
        a = repo.intern(0b1010)
        b = repo.intern(0b1010)
        c = repo.intern(0b0101)
        assert a == b != c
        assert repo.mask(a) == 0b1010 and repo.mask(c) == 0b0101
        assert len(repo) == 2  # distinct non-empty sets

    def test_get_does_not_allocate(self):
        repo = PTRepo()
        assert repo.get(0b11) is None
        ident = repo.intern(0b11)
        assert repo.get(0b11) == ident
        assert len(repo) == 1

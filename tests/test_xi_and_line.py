"""Unit tests for XI message types and line-info bookkeeping."""

from repro.mem.line import DirectoryEntry, LineInfo, Ownership
from repro.mem.xi import Xi, XiResponse, XiType


class TestXiTypes:
    def test_rejectable_types(self):
        """Only demote and exclusive XIs can be rejected; read-only XIs
        need no response and LRU XIs come from the own hierarchy."""
        assert XiType.EXCLUSIVE.rejectable
        assert XiType.DEMOTE.rejectable
        assert not XiType.READ_ONLY.rejectable
        assert not XiType.LRU.rejectable

    def test_invalidating_types(self):
        """Demote XIs downgrade to read-only; every other type removes
        the line from the target."""
        assert XiType.EXCLUSIVE.invalidates
        assert XiType.READ_ONLY.invalidates
        assert XiType.LRU.invalidates
        assert not XiType.DEMOTE.invalidates

    def test_xi_is_immutable(self):
        xi = Xi(XiType.EXCLUSIVE, 0x100, 1, 2)
        assert xi.line == 0x100
        assert xi.requester == 1 and xi.target == 2


class TestOwnership:
    def test_grants(self):
        assert Ownership.EXCLUSIVE.grants_store()
        assert not Ownership.READ_ONLY.grants_store()
        assert Ownership.READ_ONLY.grants_load()
        assert not Ownership.INVALID.grants_load()


class TestDirectoryEntry:
    def test_clear_tx(self):
        entry = DirectoryEntry(line=0x100, tx_read=True, tx_dirty=True)
        entry.clear_tx()
        assert not entry.tx_read and not entry.tx_dirty


class TestLineInfo:
    def test_owners_union(self):
        info = LineInfo()
        assert info.is_unowned()
        info.ro_owners = 0b110  # CPUs 1 and 2
        info.ex_owner = 3
        assert info.owners() == {1, 2, 3}
        assert not info.is_unowned()

    def test_exclusive_only(self):
        info = LineInfo(ex_owner=5)
        assert info.owners() == {5}

"""Unit + property tests for redirect entries (paper Table II)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.redirect_entry import EntryState, RedirectEntry


def test_four_states_cover_both_bits():
    combos = {(s.global_bit, s.valid_bit) for s in EntryState}
    assert combos == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_transient_iff_bits_differ():
    assert EntryState.LOCAL_VALID.is_transient
    assert EntryState.LOCAL_INVALID.is_transient
    assert not EntryState.VALID.is_transient
    assert not EntryState.INVALID.is_transient


def test_commit_rule_matches_paper():
    # "global 0→1 if valid=1, global 1→0 if valid=0"
    assert EntryState.LOCAL_VALID.committed() is EntryState.VALID
    assert EntryState.LOCAL_INVALID.committed() is EntryState.INVALID
    # stable states are untouched
    assert EntryState.VALID.committed() is EntryState.VALID
    assert EntryState.INVALID.committed() is EntryState.INVALID


def test_abort_rule_matches_paper():
    # "valid 0→1 if global=1, valid 1→0 if global=0"
    assert EntryState.LOCAL_VALID.aborted() is EntryState.INVALID
    assert EntryState.LOCAL_INVALID.aborted() is EntryState.VALID
    assert EntryState.VALID.aborted() is EntryState.VALID
    assert EntryState.INVALID.aborted() is EntryState.INVALID


@given(st.sampled_from(list(EntryState)))
def test_commit_and_abort_always_yield_stable_states(state):
    assert not state.committed().is_transient
    assert not state.aborted().is_transient


def test_new_redirection_lifecycle_commit():
    e = RedirectEntry(orig_line=10, redirected_line=0x8000 >> 6, owner=3)
    assert e.state is EntryState.LOCAL_VALID
    assert e.active_for(3)        # the owner follows the new mapping
    assert not e.active_for(5)    # others do not, until commit
    assert not e.active_for(None)
    e.on_commit()
    assert e.state is EntryState.VALID
    assert e.owner is None
    assert e.active_for(5) and e.active_for(None)


def test_new_redirection_lifecycle_abort():
    e = RedirectEntry(orig_line=10, redirected_line=0x200, owner=3)
    e.on_abort()
    assert e.state is EntryState.INVALID
    assert e.is_free
    assert not e.active_for(3) and not e.active_for(None)


def test_redirect_back_lifecycle_commit():
    # a committed redirection gets suspended by a new transaction
    e = RedirectEntry(10, 0x200, state=EntryState.VALID)
    e.state = EntryState.LOCAL_INVALID
    e.owner = 7
    assert not e.active_for(7)    # owner writes to the original address
    assert e.active_for(2)        # isolation: others still see the old map
    e.on_commit()
    assert e.state is EntryState.INVALID and e.is_free


def test_redirect_back_lifecycle_abort():
    e = RedirectEntry(10, 0x200, state=EntryState.LOCAL_INVALID, owner=7)
    e.on_abort()
    assert e.state is EntryState.VALID  # old mapping restored
    assert e.active_for(7)


def test_first_level_entry_is_22_bits():
    assert RedirectEntry.first_level_entry_bits() == 22


def test_encode_first_level_fits_in_22_bits():
    e = RedirectEntry(0x1000040 >> 6, 0x8080 >> 6, state=EntryState.VALID)
    word = e.encode_first_level(tlb_index=5)
    assert 0 <= word < (1 << 22)


def test_encode_state_bits_position():
    e = RedirectEntry(0, 0, state=EntryState.VALID)
    word = e.encode_first_level(tlb_index=0)
    state_bits = (word >> 13) & 0b11   # above 6 tlb + 7 offset bits
    assert state_bits == 0b11
    e.state = EntryState.LOCAL_INVALID
    assert ((e.encode_first_level() >> 13) & 0b11) == 0b10

package metrics

import "l2fuzz/internal/bt/l2cap"

// The sniffer's per-packet state is keyed by 16-bit channel IDs. A trace
// can name any CID (fuzzers mutate them freely), so these tables index
// the CID space directly instead of hashing the key on every frame.

// cidSet is a set of channel IDs: one bit per CID of the 16-bit space
// (8 KiB).
type cidSet [1 << 16 / 64]uint64

func (s *cidSet) add(c l2cap.CID)      { s[c>>6] |= 1 << (c & 63) }
func (s *cidSet) has(c l2cap.CID) bool { return s[c>>6]&(1<<(c&63)) != 0 }

// cidTable maps channel IDs to shadows: a two-level table over the CID
// space whose 256-entry pages are allocated on first insert. Targets hand
// out CIDs in sequence, so even a trace that opens thousands of channels
// touches only a few dozen pages.
type cidTable struct {
	pages [256]*[256]*shadowChan
}

func (t *cidTable) get(c l2cap.CID) *shadowChan {
	if p := t.pages[c>>8]; p != nil {
		return p[c&0xFF]
	}
	return nil
}

// set binds c to sc; a nil sc removes the binding.
func (t *cidTable) set(c l2cap.CID, sc *shadowChan) {
	p := t.pages[c>>8]
	if p == nil {
		if sc == nil {
			return
		}
		p = new([256]*shadowChan)
		t.pages[c>>8] = p
	}
	p[c&0xFF] = sc
}

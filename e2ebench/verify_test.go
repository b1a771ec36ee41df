package main

import "testing"

// history builds a key history: SET v1 issued at 10 and acknowledged at
// 20, SET v2 issued at 30 and acknowledged at 40.
func history() *kvHistory {
	h := newKVHistory(4, 32)
	h.ackWrite(0, h.beginWrite(0, false, 10), 20)
	h.ackWrite(0, h.beginWrite(0, false, 30), 40)
	return h
}

func TestVerifierAcceptsLinearizableReads(t *testing.T) {
	h := history()
	for _, c := range []struct {
		name        string
		issue, done int64
		ver         uint32
	}{
		{"latest after its ack", 50, 60, 2},
		{"old value while the new write is in flight", 25, 35, 1},
		{"new value before its ack", 35, 38, 2},
		{"old value issued before the new ack", 39, 45, 1},
	} {
		if err := h.checkGet(0, c.issue, c.done, kvValue(0, c.ver, 32), true); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	// Never written: not-found is the only right answer.
	if err := h.checkGet(1, 50, 60, nil, false); err != nil {
		t.Errorf("absent key: %v", err)
	}
	// Not-found is right after an acknowledged DEL.
	h.ackWrite(0, h.beginWrite(0, true, 70), 80)
	if err := h.checkGet(0, 90, 95, nil, false); err != nil {
		t.Errorf("after DEL: %v", err)
	}
}

// Mutation cases: each must be caught.
func TestVerifierCatchesWrongReads(t *testing.T) {
	h := history()
	corrupt := kvValue(0, 2, 32)
	corrupt[len(corrupt)-1] ^= 1
	for _, c := range []struct {
		name        string
		issue, done int64
		val         []byte
		found       bool
	}{
		{"stale: v1 after v2 was acknowledged", 50, 60, kvValue(0, 1, 32), true},
		{"corrupted byte", 50, 60, corrupt, true},
		{"another key's value", 50, 60, kvValue(1, 2, 32), true},
		{"version never written", 50, 60, kvValue(0, 7, 32), true},
		{"future: v2 before it was issued", 22, 28, kvValue(0, 2, 32), true},
		{"lost write: not-found after a SET", 50, 60, nil, false},
		{"truncated value", 50, 60, kvValue(0, 2, 32)[:20], true},
	} {
		if err := h.checkGet(0, c.issue, c.done, c.val, c.found); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValueEmbedsKeyAndVersion(t *testing.T) {
	h := newKVHistory(70000, 16)
	v := kvValue(65535, 3, 16)
	if len(v) != 16 {
		t.Fatalf("value is %d bytes, want 16", len(v))
	}
	if ver, err := h.decode(65535, v); err != nil || ver != 3 {
		t.Fatalf("decode = %d, %v", ver, err)
	}
}

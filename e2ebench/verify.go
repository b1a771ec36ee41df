package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// keyName is the wire key of key index i.
func keyName(i int) []byte { return []byte(fmt.Sprintf("k%05x", i)) }

// kvValue is the value the benchmark writes for key index i at version
// ver: the key, the version, then filler derived from both, so a GET can
// tell which write it saw and whether the bytes survived intact.
func kvValue(i int, ver uint32, size int) []byte {
	v := make([]byte, 0, size)
	v = append(v, keyName(i)...)
	v = append(v, ':')
	v = append(v, fmt.Sprintf("%08x", ver)...)
	h := uint64(i)<<32 | uint64(ver)
	for len(v) < size {
		h = splitmix(h)
		v = append(v, 'a'+byte(h%26))
	}
	return v[:size]
}

// splitmix is the SplitMix64 step: a cheap, well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// write is one SET or DEL of a key as the client saw it. Times are
// nanoseconds on the benchmark's monotonic clock; ack 0 means no
// acknowledgement yet (in flight, or failed with unknown effect).
type write struct {
	ver        uint32
	del        bool
	issue, ack int64
}

// initialState is the absent key every history starts from: a delete
// acknowledged before anything else happened.
var initialState = write{ver: 0, del: true, issue: math.MinInt64 / 2, ack: math.MinInt64 / 2}

// kvHistory records every write per key and checks each GET against it.
// A GET issued at tI and completed at tC may return the result of write
// w only if w was issued before tC and no other write w' was both issued
// after w was acknowledged and acknowledged before tI; otherwise the
// GET saw a stale (or future) value. Versions are handed out at issue
// time, so they order writes by issue.
type kvHistory struct {
	size int // value size in bytes

	mu     sync.Mutex
	writes [][]write
}

func newKVHistory(keys, size int) *kvHistory {
	h := &kvHistory{size: size, writes: make([][]write, keys)}
	for i := range h.writes {
		h.writes[i] = []write{initialState}
	}
	return h
}

// beginWrite allocates the next version of key i and records the write
// as issued at now.
func (h *kvHistory) beginWrite(i int, del bool, now int64) uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	ws := h.writes[i]
	ver := ws[len(ws)-1].ver + 1
	h.writes[i] = append(ws, write{ver: ver, del: del, issue: now})
	return ver
}

// ackWrite marks version ver of key i acknowledged at now.
func (h *kvHistory) ackWrite(i int, ver uint32, now int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ws := h.writes[i]
	ws[int(ver)].ack = now // ws[0] is the initial state, so index = version
}

// checkGet verifies a GET of key i issued at issue and completed at done
// that returned val (found) or not-found.
func (h *kvHistory) checkGet(i int, issue, done int64, val []byte, found bool) error {
	var ver uint32
	if found {
		v, err := h.decode(i, val)
		if err != nil {
			return err
		}
		ver = v
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ws := h.writes[i]
	if found {
		if int(ver) >= len(ws) || ws[ver].del || ws[ver].issue >= done {
			return fmt.Errorf("key %s: GET returned version %d, which was never written before the GET ended", keyName(i), ver)
		}
		if w, stale := supersededBefore(ws, ver, issue); stale {
			return fmt.Errorf("key %s: GET issued at %d returned version %d, already overwritten by version %d acknowledged at %d",
				keyName(i), issue, ver, w.ver, w.ack)
		}
		return nil
	}
	for _, c := range ws {
		if c.del && c.issue < done {
			if _, stale := supersededBefore(ws, c.ver, issue); !stale {
				return nil
			}
		}
	}
	return fmt.Errorf("key %s: GET issued at %d found nothing, but a SET was acknowledged before it and no DEL could explain the miss", keyName(i), issue)
}

// supersededBefore reports a write issued after version ver was
// acknowledged and itself acknowledged before t.
func supersededBefore(ws []write, ver uint32, t int64) (write, bool) {
	w := ws[ver]
	if w.ack == 0 {
		return write{}, false
	}
	for _, n := range ws[ver+1:] {
		if n.ack != 0 && n.issue > w.ack && n.ack < t {
			return n, true
		}
	}
	return write{}, false
}

// decode checks val is exactly what the benchmark writes for key i at
// some version and returns that version.
func (h *kvHistory) decode(i int, val []byte) (uint32, error) {
	key := keyName(i)
	if len(val) < len(key)+9 || !bytes.HasPrefix(val, key) || val[len(key)] != ':' {
		return 0, fmt.Errorf("key %s: GET returned a value of another key or no version: %q", key, val)
	}
	v, err := strconv.ParseUint(string(val[len(key)+1:len(key)+9]), 16, 32)
	if err != nil {
		return 0, fmt.Errorf("key %s: unreadable version in %q", key, val)
	}
	if !bytes.Equal(val, kvValue(i, uint32(v), h.size)) {
		return 0, fmt.Errorf("key %s: value of version %d is corrupted: %q", key, v, val)
	}
	return uint32(v), nil
}

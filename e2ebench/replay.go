package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/transport"
	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// replayResult holds the in-process replays of a workload's own inputs
// through the layers' public functions (the "R" metrics). A zero field
// is a layer the workload does not reach.
type replayResult struct {
	posGetNS, posSetNS, posFlushMS float64
	sealNS, openNS, sealAllocs     float64
	codecNS                        float64
	scanNS                         float64
}

// replayBatch is how many calls one timed replay span covers, so clock
// reads do not swamp nanosecond-scale calls.
const replayBatch = 1000

// replayKV drives pos.OpenSharded (with kvserver's options), the frame
// and request codecs, and ecrypto at the workload's record size with the
// workload's regenerated request stream.
func replayKV(e *env, w kvWorkload, n int) (replayResult, error) {
	var rr replayResult
	ops := w.traffic(e.seed, n)
	key := storeKey(e.seed)
	opts := pos.ShardedOptions{Shards: pos.DefaultShards, SizeBytes: 16 << 20, EncryptionKey: key}
	if w.persist {
		opts.Dir = filepath.Join(e.artDir, "replay-store")
		if err := os.RemoveAll(opts.Dir); err != nil {
			return rr, err
		}
		defer os.RemoveAll(opts.Dir)
	}
	store, err := pos.OpenSharded(opts)
	if err != nil {
		return rr, fmt.Errorf("replay: open store: %w", err)
	}
	defer store.Close()

	// The server's write-back flusher runs every 100 ms: flush after as
	// many operations as the workload offers in that time.
	flushEvery := 1500
	if w.rate > 0 {
		flushEvery = int(w.rate / 10)
	}
	names := make([][]byte, w.keys)
	for i := range names {
		names[i] = keyName(i)
	}
	vers := make([]uint32, w.keys)
	var gets, sets, flushes []float64
	for i, op := range ops {
		t := e.clk.now()
		switch op.op {
		case kv.OpGet:
			_, _, err = store.Get(names[op.key])
		case kv.OpSet:
			vers[op.key]++
			err = store.Set(names[op.key], kvValue(op.key, vers[op.key], w.valSize))
		case kv.OpDel:
			_, err = store.Delete(names[op.key])
		}
		end := e.clk.now()
		if err != nil {
			return rr, fmt.Errorf("replay: pos op on %s: %w", names[op.key], err)
		}
		e.spans.add("replay.pos."+opName(op.op), "replay", uint64(i), 0, t, end)
		if i >= w.keys { // time the window's stream, not the populate writes
			switch op.op {
			case kv.OpGet:
				gets = append(gets, float64(end-t))
			case kv.OpSet:
				sets = append(sets, float64(end-t))
			}
		}
		if (i+1)%flushEvery == 0 {
			t = e.clk.now()
			if err := store.Flush(); err != nil {
				return rr, fmt.Errorf("replay: flush: %w", err)
			}
			end = e.clk.now()
			e.spans.add("replay.pos.flush", "replay", uint64(i), 0, t, end)
			if i >= w.keys {
				flushes = append(flushes, float64(end-t)/1e6)
			}
		}
	}
	rr.posGetNS, rr.posSetNS, rr.posFlushMS = median(gets), median(sets), median(flushes)

	// Codec: every window request and its response through the frame
	// and KV encoders and parsers.
	window := ops[w.keys:]
	var req, frame, resp []byte
	var codecNS float64
	for b := 0; b < len(window); b += replayBatch {
		batch := window[b:min(b+replayBatch, len(window))]
		t := e.clk.now()
		for i, op := range batch {
			r := kv.Request{Op: op.op, Key: names[op.key]}
			if op.op == kv.OpSet {
				r.Val = kvValue(op.key, 1, w.valSize)
			}
			if req, err = r.AppendTo(req[:0]); err == nil {
				frame, err = transport.AppendFrame(frame[:0], transport.Frame{Type: transport.TRequest, Opaque: uint32(i), Payload: req})
			}
			var f transport.Frame
			if err == nil {
				f, _, err = transport.ParseFrame(frame)
			}
			if err == nil {
				_, _, err = kv.ParseRequest(f.Payload)
			}
			if err == nil {
				resp, err = kv.Response{Status: kv.StatusValue, Val: r.Val}.AppendTo(resp[:0])
			}
			if err == nil {
				_, _, err = kv.ParseResponse(resp)
			}
			if err != nil {
				return rr, fmt.Errorf("replay: codec: %w", err)
			}
		}
		end := e.clk.now()
		e.spans.add("replay.codec", "replay", uint64(b), 0, t, end)
		codecNS += float64(end - t)
	}
	rr.codecNS = ratio(codecNS, float64(len(window)))

	// A SET request is the largest record the channels seal.
	setReq, err := kv.Request{Op: kv.OpSet, Key: names[0], Val: kvValue(0, 1, w.valSize)}.AppendTo(nil)
	if err != nil {
		return rr, err
	}
	rr.sealNS, rr.openNS, rr.sealAllocs, err = replayCipher(e, *key, len(setReq), n)
	return rr, err
}

func opName(op kv.Op) string {
	switch op {
	case kv.OpGet:
		return "get"
	case kv.OpSet:
		return "set"
	}
	return "del"
}

// replayCipher times ecrypto.Cipher Seal and Open of size-byte records,
// n of each, and counts heap allocations per Seal.
func replayCipher(e *env, key [ecrypto.KeySize]byte, size, n int) (sealNS, openNS, allocs float64, err error) {
	c, err := ecrypto.NewCipher(key, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	msg := make([]byte, size)
	dst := make([]byte, 0, ecrypto.SealedLen(size))
	plain := make([]byte, 0, size)
	sealed := c.Seal(nil, msg, nil)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var sealT, openT float64
	for b := 0; b < n; b += replayBatch {
		k := min(replayBatch, n-b)
		t := e.clk.now()
		for i := 0; i < k; i++ {
			dst = c.Seal(dst[:0], msg, nil)
		}
		mid := e.clk.now()
		for i := 0; i < k; i++ {
			if plain, err = c.Open(plain[:0], sealed, nil); err != nil {
				return 0, 0, 0, fmt.Errorf("replay: open: %w", err)
			}
		}
		end := e.clk.now()
		e.spans.add("replay.ecrypto.seal", "replay", uint64(b), 0, t, mid)
		e.spans.add("replay.ecrypto.open", "replay", uint64(b), 0, mid, end)
		sealT += float64(mid - t)
		openT += float64(end - mid)
	}
	runtime.ReadMemStats(&ms1)
	// Open allocates nothing into a sized dst, so the mallocs are Seal's
	// (plus the spans' own appends, at most one per batch).
	allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return sealT / float64(n), openT / float64(n), allocs, nil
}

// replayXMPP scans the stanzas A sends with stanza.Scanner and times
// ecrypto at the stanza size.
func replayXMPP(e *env, w xmppWorkload, n int) (replayResult, error) {
	var rr replayResult
	a, b := w.users(e.seed)
	key := *storeKey(e.seed)
	bodyCipher, err := xmpp.NewClientBodyCipher(key)
	if err != nil {
		return rr, err
	}
	group, bodies := w.traffic(e.seed, n)
	var sb strings.Builder
	for i, body := range bodies {
		if group[i] {
			sb.WriteString(stanza.GroupMessage(a, w.room, xmpp.SealBodyWith(bodyCipher, body)))
		} else {
			sb.WriteString(stanza.Message(a, b, body))
		}
	}
	stream := []byte(sb.String())
	var sc stanza.Scanner
	scanned := 0
	var scanT float64
	for off := 0; off < len(stream); {
		t := e.clk.now()
		// Feed as a socket would: 4 KiB reads.
		for chunk := 0; chunk < 16 && off < len(stream); chunk++ {
			end := min(off+4096, len(stream))
			sc.Feed(stream[off:end])
			off = end
			for {
				_, ok, err := sc.Next()
				if err != nil {
					return rr, fmt.Errorf("replay: scan: %w", err)
				}
				if !ok {
					break
				}
				scanned++
			}
		}
		end := e.clk.now()
		e.spans.add("replay.stanza.scan", "replay", uint64(off), 0, t, end)
		scanT += float64(end - t)
	}
	if scanned != n {
		return rr, fmt.Errorf("replay: scanned %d of %d stanzas", scanned, n)
	}
	rr.scanNS = scanT / float64(n)
	rr.sealNS, rr.openNS, rr.sealAllocs, err = replayCipher(e, key, len(stanza.Message(a, b, bodies[0])), n)
	return rr, err
}

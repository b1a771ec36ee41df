package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/eactors/eactors-go/internal/xmpp/client"
)

// xmppWorkload is user A chatting with user B, who echoes every message
// back directly; latency runs from A's due time to the echo's arrival.
type xmppWorkload struct {
	rate     float64 // A's messages per second (open loop)
	groupPct int     // share sent to the room both users joined
	bodySize int
	shards   int
	room     string
}

// xmppShardOf mirrors the server's user → XMPP shard placement (FNV-1a).
func xmppShardOf(user string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(user))
	return int(h.Sum32() % uint32(shards))
}

// users picks two user names, from the seed, that live on different
// shards, so every message crosses between shard eactors.
func (w xmppWorkload) users(seed int64) (string, string) {
	a := fmt.Sprintf("alice%d", seed)
	for j := 0; ; j++ {
		if b := fmt.Sprintf("bob%d-%d", seed, j); xmppShardOf(b, w.shards) != xmppShardOf(a, w.shards) {
			return a, b
		}
	}
}

// body is message seq's body: the sequence number, then filler derived
// from it. Letters only, so it needs no XML escaping.
func (w xmppWorkload) body(seed int64, seq uint64) string {
	var sb strings.Builder
	sb.Grow(w.bodySize)
	fmt.Fprintf(&sb, "m%016x-", seq)
	h := uint64(seed)<<40 ^ seq
	for sb.Len() < w.bodySize {
		h = splitmix(h)
		sb.WriteByte('a' + byte(h%26))
	}
	return sb.String()
}

func bodySeq(body string) (uint64, bool) {
	if len(body) < 18 || body[0] != 'm' || body[17] != '-' {
		return 0, false
	}
	seq, err := strconv.ParseUint(body[1:17], 16, 64)
	return seq, err == nil
}

// xmppMsg is one message A sent and awaits the echo of.
type xmppMsg struct {
	due      int64
	body     string
	measured bool
}

type xmppRun struct {
	e    *env
	w    xmppWorkload
	a, b string
	out  *outcome
	res  *runResult

	mu      sync.Mutex
	pending map[uint64]xmppMsg
	probes  chan string // echoes of set-up probes
}

func runXMPP(e *env, w xmppWorkload) (*runResult, error) {
	r := &xmppRun{e: e, w: w, res: &runResult{}, probes: make(chan string, 16)}
	r.a, r.b = w.users(e.seed)
	args := []string{"-listen", "127.0.0.1:0", "-shards", strconv.Itoa(w.shards),
		"-enclaves", strconv.Itoa(w.shards), "-rooms", w.room}
	args = append(args, e.serverExtras()...)
	bin := filepath.Join(e.binDir, "xmppserver")
	for seg := 0; seg < e.segments; seg++ {
		if err := r.segment(bin, args, seg); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// segment starts a fresh server, measures one window against it and
// stops it.
func (r *xmppRun) segment(bin string, args []string, seg int) error {
	r.out = &outcome{}
	r.pending = map[uint64]xmppMsg{}
	srv, ca, cb, err := r.setup(bin, args, seg)
	if err != nil {
		return err
	}
	defer srv.stop()
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { defer readers.Done(); r.echo(cb) }()
	go func() { defer readers.Done(); r.receive(ca) }()
	defer func() {
		_ = ca.Close()
		_ = cb.Close()
		readers.Wait()
	}()
	// The room is joined once B's presence reached the room's enclave:
	// probe it until a group message comes back.
	if err := r.awaitGroup(ca); err != nil {
		return err
	}

	win := r.e.newWindow(seg)
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		r.openLoop(ca, win, r.e.segSeed(seg))
	}()
	sr, err := r.e.observe(srv, win, r.res, r.out)
	gen.Wait()
	r.out.drain(3 * time.Second)
	r.res.add(seg, sr)
	return err
}

// setup starts the server, connects both users, joins them to the room
// and returns once one message made the A → B → A round trip intact.
func (r *xmppRun) setup(bin string, args []string, i int) (*server, *client.Client, *client.Client, error) {
	srv, err := startServer(bin, args, r.e.logPath("xmppserver"))
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error, cs ...*client.Client) (*server, *client.Client, *client.Client, error) {
		for _, c := range cs {
			_ = c.Close()
		}
		srv.stop()
		return nil, nil, nil, err
	}
	dial := func(user string) (*client.Client, error) {
		t := r.e.clk.now()
		c, err := client.Dial(srv.addr, user, 5*time.Second)
		if err == nil {
			r.res.dials = append(r.res.dials, float64(r.e.clk.now()-t)/1e6)
			err = c.JoinRoom(r.w.room)
		}
		return c, err
	}
	ca, err := dial(r.a)
	if err != nil {
		return fail(fmt.Errorf("connect %s: %w", r.a, err))
	}
	cb, err := dial(r.b)
	if err != nil {
		return fail(fmt.Errorf("connect %s: %w", r.b, err), ca)
	}
	probe := fmt.Sprintf("p%d", i)
	if err := ca.SendMessage(r.b, probe); err != nil {
		return fail(err, ca, cb)
	}
	m, err := cb.ReadMessage(10 * time.Second)
	if err == nil && m.Body != probe {
		err = fmt.Errorf("probe arrived as %q", m.Body)
	}
	if err == nil {
		err = cb.SendMessage(r.a, m.Body)
	}
	if err == nil {
		m, err = ca.ReadMessage(10 * time.Second)
	}
	if err == nil && m.Body != probe {
		err = fmt.Errorf("probe echo arrived as %q", m.Body)
	}
	if err != nil {
		return fail(fmt.Errorf("first round trip: %w", err), ca, cb)
	}
	r.res.setup = append(r.res.setup, time.Since(srv.exec).Seconds())
	return srv, ca, cb, nil
}

// awaitGroup sends group probes until one is echoed back.
func (r *xmppRun) awaitGroup(ca *client.Client) error {
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for i := 0; ; i++ {
		if err := ca.SendGroupMessage(r.w.room, fmt.Sprintf("g%d", i)); err != nil {
			return err
		}
		select {
		case body := <-r.probes:
			if strings.HasPrefix(body, "g") {
				return nil
			}
		case <-tick.C:
		case <-deadline:
			return errors.New("room never delivered a group probe")
		}
	}
}

// echo is B: every message it receives goes straight back to A.
func (r *xmppRun) echo(cb *client.Client) {
	for {
		m, err := cb.ReadMessage(0)
		if err != nil {
			return
		}
		start := r.e.clk.now()
		err = cb.SendMessage(r.a, m.Body)
		if seq, ok := bodySeq(m.Body); ok && r.e.spans != nil {
			r.e.spans.add("xmpp.echo", "client", seq, 0, start, r.e.clk.now())
		}
		if err != nil {
			return
		}
	}
}

// receive is A's reader: it matches each echo to the message sent and
// checks the body came back byte-identical.
func (r *xmppRun) receive(ca *client.Client) {
	for {
		m, err := ca.ReadMessage(0)
		if err != nil {
			return
		}
		now := r.e.clk.now()
		seq, ok := bodySeq(m.Body)
		if !ok {
			select {
			case r.probes <- m.Body:
			default:
			}
			continue
		}
		r.mu.Lock()
		sent, found := r.pending[seq]
		delete(r.pending, seq)
		r.mu.Unlock()
		switch {
		case !found:
			r.out.wrongResult(fmt.Errorf("echo of message %d that is not outstanding (duplicate?)", seq))
		case m.Body != sent.body || m.From != r.b || m.Group:
			err := fmt.Errorf("message %d echoed wrong: from %q group=%v body %q", seq, m.From, m.Group, m.Body)
			if sent.measured {
				r.out.done(0, err, true)
			} else {
				r.out.wrongResult(err)
			}
		case sent.measured:
			if r.e.spans != nil {
				r.e.spans.add("xmpp.op", "client", seq, 0, sent.due, now)
			}
			r.out.done(now-sent.due, nil, false)
		}
	}
}

// openLoop is A's Poisson generator.
func (r *xmppRun) openLoop(ca *client.Client, win window, seed int64) {
	rng := rand.New(rand.NewSource(seed + 1))
	arr := newArrivals(seed+2, r.w.rate, win.start)
	for seq := uint64(1); ; seq++ {
		due := arr.due()
		if due >= win.end {
			return
		}
		group := rng.Intn(100) < r.w.groupPct
		body := r.w.body(seed, seq)
		measured := win.contains(due)
		r.e.clk.sleepUntil(due)
		r.mu.Lock()
		r.pending[seq] = xmppMsg{due: due, body: body, measured: measured}
		r.mu.Unlock()
		start := r.e.clk.now()
		if measured {
			r.out.start()
			r.out.lateness(start - due)
			r.res.stanzas += 2 // the message and its echo
			if group {
				r.res.groupMsgs++
			}
		}
		var err error
		if group {
			err = ca.SendGroupMessage(r.w.room, body)
		} else {
			err = ca.SendMessage(r.b, body)
		}
		if r.e.spans != nil && measured {
			r.e.spans.add("xmpp.send", "client", seq, 0, start, r.e.clk.now())
		}
		if err != nil {
			r.mu.Lock()
			delete(r.pending, seq)
			r.mu.Unlock()
			if measured {
				r.out.done(0, fmt.Errorf("send message %d: %w", seq, err), false)
			}
		}
	}
}

// traffic regenerates the stanzas A sends, for the scanner replay.
func (w xmppWorkload) traffic(seed int64, n int) (group []bool, bodies []string) {
	rng := rand.New(rand.NewSource(seed + 1))
	for seq := uint64(1); seq <= uint64(n); seq++ {
		group = append(group, rng.Intn(100) < w.groupPct)
		bodies = append(bodies, w.body(seed, seq))
	}
	return group, bodies
}

package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/kv"
)

// kvWorkload is one KV traffic mix against kvserver.
type kvWorkload struct {
	keys, valSize  int
	getPct, setPct int // the rest are DELs
	persist        bool
	rate           float64 // open-loop arrivals per second; 0 = closed loop
	sessions       int
	depth          int // closed loop: requests in flight per session
}

// kvOp is one generated request.
type kvOp struct {
	op  kv.Op
	key int
}

func (w kvWorkload) draw(rng *rand.Rand) kvOp {
	k := rng.Intn(w.keys)
	switch p := rng.Intn(100); {
	case p < w.getPct:
		return kvOp{kv.OpGet, k}
	case p < w.getPct+w.setPct:
		return kvOp{kv.OpSet, k}
	default:
		return kvOp{kv.OpDel, k}
	}
}

// kvRun is the state of one KV benchmark run.
type kvRun struct {
	e     *env
	w     kvWorkload
	hist  *kvHistory
	names [][]byte
	out   *outcome
	res   *runResult
}

// storeKey is the at-rest key of the store, from the seed.
func storeKey(seed int64) *[ecrypto.KeySize]byte {
	var k [ecrypto.KeySize]byte
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(k[:])
	return &k
}

func runKV(e *env, w kvWorkload) (*runResult, error) {
	r := &kvRun{e: e, w: w, res: &runResult{}}
	r.names = make([][]byte, w.keys)
	for i := range r.names {
		r.names[i] = keyName(i)
	}
	args := []string{"-listen", "127.0.0.1:0", "-encrypt"}
	if w.persist {
		dir := filepath.Join(e.artDir, "store")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		args = append(args, "-dir", dir, "-key", hex.EncodeToString(storeKey(e.seed)[:]))
	}
	args = append(args, e.serverExtras()...)
	bin := filepath.Join(e.binDir, "kvserver")
	r.hist = newKVHistory(w.keys, w.valSize)
	if w.persist {
		// Write every key once; each segment then restarts the server
		// over the populated store and verifies against what was
		// acknowledged before the restart.
		srv, err := startServer(bin, args, e.logPath("kvserver-populate"))
		if err != nil {
			return nil, err
		}
		r.out = &outcome{}
		var c *kv.PipelinedClient
		if c, err = kv.DialPipelined(srv.addr, kv.PipelineOptions{}); err == nil {
			err = r.populate(c)
			_ = c.Close()
		}
		srv.stop()
		if err == nil {
			err = r.out.verified()
		}
		if err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	for seg := 0; seg < e.segments; seg++ {
		if err := r.segment(bin, args, seg); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// segment starts a server (fresh in memory, or restarted over the
// persistent store), measures one window against it and stops it.
func (r *kvRun) segment(bin string, args []string, seg int) error {
	seed := r.e.segSeed(seg)
	r.out = &outcome{}
	if !r.w.persist {
		r.hist = newKVHistory(r.w.keys, r.w.valSize) // a fresh in-memory store
	}
	srv, clients, err := r.setup(bin, args, rand.New(rand.NewSource(seed)).Intn(r.w.keys))
	if err != nil {
		return err
	}
	defer srv.stop()
	defer closeAll(clients)
	if !r.w.persist {
		if err := r.populate(clients[0]); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}

	win := r.e.newWindow(seg)
	var wg sync.WaitGroup
	if r.w.rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.openLoop(clients, win, seed)
		}()
	} else {
		for s, c := range clients {
			for d := 0; d < r.w.depth; d++ {
				wg.Add(1)
				go func(c *kv.PipelinedClient, worker int) {
					defer wg.Done()
					r.closedLoop(c, win, seed*1009+int64(worker), uint64(worker+1))
				}(c, s*r.w.depth+d)
			}
		}
	}
	sr, err := r.e.observe(srv, win, r.res, r.out)
	if r.w.rate > 0 {
		wg.Wait() // the generator has issued its last arrival
	}
	r.out.drain(3 * time.Second)
	for _, c := range clients {
		r.res.sessions = append(r.res.sessions, c.Stats())
	}
	closeAll(clients) // fails whatever is still in flight, so the workers return
	wg.Wait()
	r.res.add(seg, sr)
	return err
}

func closeAll(cs []*kv.PipelinedClient) {
	for _, c := range cs {
		_ = c.Close()
	}
}

// setup starts the server and dials its sessions, returning once one
// request was answered and verified; setup_s is that span from exec.
func (r *kvRun) setup(bin string, args []string, probe int) (*server, []*kv.PipelinedClient, error) {
	srv, err := startServer(bin, args, r.e.logPath("kvserver"))
	if err != nil {
		return nil, nil, err
	}
	var clients []*kv.PipelinedClient
	for s := 0; s < r.w.sessions; s++ {
		t := r.e.clk.now()
		c, err := kv.DialPipelined(srv.addr, kv.PipelineOptions{})
		if err != nil {
			closeAll(clients)
			srv.stop()
			return nil, nil, fmt.Errorf("dial kvserver: %w", err)
		}
		r.res.dials = append(r.res.dials, float64(r.e.clk.now()-t)/1e6)
		clients = append(clients, c)
	}
	// The first verified response: a GET of a populated key on the
	// persistent store, a SET then GET on the fresh in-memory one.
	if !r.w.persist {
		err = r.exec(clients[0], 0, kvOp{kv.OpSet, probe}, 0, false)
	}
	if err == nil {
		err = r.exec(clients[0], 0, kvOp{kv.OpGet, probe}, 0, false)
	}
	if err != nil {
		closeAll(clients)
		srv.stop()
		return nil, nil, fmt.Errorf("first request: %w", err)
	}
	r.res.setup = append(r.res.setup, time.Since(srv.exec).Seconds())
	return srv, clients, nil
}

// populate writes every key once through c, 64 requests in flight.
func (r *kvRun) populate(c *kv.PipelinedClient) error {
	const workers = 64
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for k := g; k < r.w.keys; k += workers {
				if err := r.exec(c, 0, kvOp{kv.OpSet, k}, 0, false); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	var first error
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// openLoop issues Poisson arrivals at the workload rate, alternating
// sessions, until the window ends; each request runs on its own
// goroutine so a slow response never delays the next arrival.
func (r *kvRun) openLoop(clients []*kv.PipelinedClient, win window, seed int64) {
	rng := rand.New(rand.NewSource(seed + 1))
	arr := newArrivals(seed+2, r.w.rate, win.start)
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	for seq := uint64(1); ; seq++ {
		due := arr.due()
		if due >= win.end {
			break
		}
		op := r.w.draw(rng)
		c := clients[int(seq)%len(clients)]
		r.e.clk.sleepUntil(due)
		sem <- struct{}{}
		measured := win.contains(due)
		if measured {
			r.out.start()
		}
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			defer func() { <-sem }()
			if measured {
				r.out.lateness(r.e.clk.now() - due)
			}
			_ = r.exec(c, seq, op, due, measured)
		}(seq)
	}
	wg.Wait()
}

// maxOutstanding bounds open-loop requests in flight; past it the
// generator blocks and its lateness shows in gen.late_p99_us.
const maxOutstanding = 1024

// closedLoop keeps one request in flight until the window ends; worker
// numbers its requests' trace ids.
func (r *kvRun) closedLoop(c *kv.PipelinedClient, win window, seed int64, worker uint64) {
	rng := rand.New(rand.NewSource(seed))
	for seq := worker << 40; ; seq++ {
		t := r.e.clk.now()
		if t >= win.end {
			return
		}
		measured := win.contains(t)
		if measured {
			r.out.start()
		}
		_ = r.exec(c, seq, r.w.draw(rng), 0, measured)
	}
}

// exec issues one request, waits for it and verifies the answer against
// the write history. Latency runs from due, the arrival time on an open
// loop; 0 means the request is due when issued. measured operations are
// tallied in the outcome; a wrong answer is recorded either way.
func (r *kvRun) exec(c *kv.PipelinedClient, seq uint64, op kvOp, due int64, measured bool) error {
	spans := r.e.spans
	var ver uint32
	start := r.e.clk.now()
	if due == 0 {
		due = start
	}
	var p *kv.Pending
	var err error
	key := r.names[op.key]
	switch op.op {
	case kv.OpGet:
		p, err = c.IssueGet(key)
	case kv.OpSet:
		ver = r.hist.beginWrite(op.key, false, start)
		p, err = c.IssueSet(key, kvValue(op.key, ver, r.w.valSize))
	case kv.OpDel:
		ver = r.hist.beginWrite(op.key, true, start)
		p, err = c.IssueDel(key)
	}
	issued := r.e.clk.now()
	var resp kv.Response
	if err == nil {
		resp, err = p.Wait()
	}
	end := r.e.clk.now()
	if spans != nil && measured {
		root := spans.add("kv.op", "client", seq, 0, due, end)
		if start > due {
			spans.add("gen.late", "client", seq, root, due, start)
		}
		spans.add("kv.issue", "client", seq, root, start, issued)
		spans.add("kv.wait", "client", seq, root, issued, end)
	}
	wrong := false
	if err == nil {
		err, wrong = r.check(op, ver, resp, start, end)
	}
	if measured {
		r.out.done(end-due, err, wrong)
	} else if wrong {
		r.out.wrongResult(err)
	}
	return err
}

// check verifies one response; wrong reports a verification failure as
// opposed to an operation the server refused.
func (r *kvRun) check(op kvOp, ver uint32, resp kv.Response, start, end int64) (err error, wrong bool) {
	if resp.Status == kv.StatusErr {
		return fmt.Errorf("key %s: server error: %s", r.names[op.key], resp.Val), false
	}
	switch op.op {
	case kv.OpSet:
		if resp.Status != kv.StatusOK {
			return fmt.Errorf("key %s: SET answered with status %d", r.names[op.key], resp.Status), true
		}
		r.hist.ackWrite(op.key, ver, end)
	case kv.OpDel:
		if resp.Status != kv.StatusOK && resp.Status != kv.StatusNotFound {
			return fmt.Errorf("key %s: DEL answered with status %d", r.names[op.key], resp.Status), true
		}
		r.hist.ackWrite(op.key, ver, end)
	case kv.OpGet:
		switch resp.Status {
		case kv.StatusValue, kv.StatusNotFound:
			if err := r.hist.checkGet(op.key, start, end, resp.Val, resp.Status == kv.StatusValue); err != nil {
				return err, true
			}
		default:
			return fmt.Errorf("key %s: GET answered with status %d", r.names[op.key], resp.Status), true
		}
	}
	return nil, false
}

// traffic returns the requests of a run as the replays need them: the
// populate writes followed by the window's op stream, regenerated from
// the seed.
func (w kvWorkload) traffic(seed int64, n int) []kvOp {
	ops := make([]kvOp, 0, w.keys+n)
	for k := 0; k < w.keys; k++ {
		ops = append(ops, kvOp{kv.OpSet, k})
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < n; i++ {
		ops = append(ops, w.draw(rng))
	}
	return ops
}

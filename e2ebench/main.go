// Command e2ebench is the repository's end-to-end benchmark. It builds
// cmd/kvserver and cmd/xmppserver from the checkout it runs in, drives
// them over loopback TCP with one of three seeded workloads, verifies
// every answer, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics of a traced run) as one JSON object on the last
// line of standard output. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/eactors/eactors-go/internal/transport"
)

// workloads are the benchmark's traffic mixes (README.md says why each).
var workloads = map[string]any{
	"kv-hot-open": kvWorkload{keys: 4096, valSize: 16, getPct: 95, setPct: 5,
		rate: 4000, sessions: 2},
	"kv-persist-pipelined": kvWorkload{keys: 65536, valSize: 128, getPct: 50, setPct: 45,
		persist: true, sessions: 2, depth: 32},
	"xmpp-chat-open": xmppWorkload{rate: 800, groupPct: 20, bodySize: 150, shards: 2,
		room: "benchroom"},
}

// env is what one pass over a workload needs.
type env struct {
	seed     int64
	warm     time.Duration // before each segment's measure window
	segment  time.Duration // measure window of one segment
	segments int           // server processes per run, each measured in turn
	binDir   string
	artDir   string
	clk      clock
	spans    *spanLog // non-nil on the traced pass
}

func (e *env) traced() bool { return e.spans != nil }

// serverExtras are the observability flags of the traced pass.
func (e *env) serverExtras() []string {
	if e.traced() {
		return []string{"-metrics", "127.0.0.1:0", "-trace", "-profile"}
	}
	return nil
}

func (e *env) logPath(name string) string { return filepath.Join(e.artDir, name+".log") }

// segSeed is the seed of segment seg's traffic; segment 0 uses the run
// seed itself, which is what the traced pass and the replays use.
func (e *env) segSeed(seg int) int64 { return e.seed + int64(seg)*7919 }

// newWindow lays out segment seg's warm-up and measure window from now.
// The first segment warms up longer: it also warms the load process.
func (e *env) newWindow(seg int) window {
	warm := e.warm
	if seg == 0 {
		warm *= 3
	}
	s := e.clk.now()
	return window{start: s, measure: s + int64(warm), end: s + int64(warm+e.segment)}
}

// runResult is everything one pass measured.
type runResult struct {
	setup    []float64 // s, exec → first verified response, per start
	dials    []float64 // ms
	segs     []segResult
	out      outcome // all segments' measure windows merged
	sessions []transport.SessionStats

	stanzas, groupMsgs int // XMPP stanzas sent by clients in the window

	// Traced pass only.
	before, after scrape
	gauges        []scrape // one per second of the window, for gauge extremes
	traces        []tspan
	rawTraces     []byte
	rawBefore     []byte
	rawAfter      []byte
}

// segResult is one segment's measure window.
type segResult struct {
	out     *outcome
	seconds float64
	cpu     time.Duration // server CPU over the window
	rssMB   float64       // server VmHWM at the window's end
}

// add records a drained segment and prints its figures to standard
// error, so a run whose segments disagree shows which one.
func (r *runResult) add(seg int, sr segResult) {
	r.segs = append(r.segs, sr)
	r.out.merge(sr.out)
	o := sr.out
	p50, _, _ := percentile(o.lat, 0.5)
	p99, _, _ := percentile(o.lat, 0.99)
	fmt.Fprintf(os.Stderr, "e2ebench: segment %d: %d ops, p50 %.3f ms, p99 %.3f ms, server cpu %.1f us/op\n",
		seg, o.completed, p50, p99, ratio(float64(sr.cpu.Microseconds()), float64(o.completed)))
}

// totals sums the segments' window lengths and server CPU.
func (r *runResult) totals() (seconds float64, cpu time.Duration) {
	for _, s := range r.segs {
		seconds += s.seconds
		cpu += s.cpu
	}
	return seconds, cpu
}

// observe waits out the window, taking the server's CPU time at both
// ends. On the traced pass it also scrapes the metrics at the start,
// every second, and after the window's requests drained, and pulls the
// server traces.
func (e *env) observe(srv *server, win window, res *runResult, out *outcome) (segResult, error) {
	sr := segResult{out: out, seconds: win.seconds()}
	e.clk.sleepUntil(win.measure)
	cpu0, err := srv.cpuTime()
	if err != nil {
		return sr, err
	}
	if e.traced() {
		if res.rawBefore, err = srv.fetch("/metrics"); err == nil {
			res.before, err = parseProm(res.rawBefore)
		}
		if err != nil {
			return sr, err
		}
		for t := win.measure + int64(time.Second); t < win.end; t += int64(time.Second) {
			e.clk.sleepUntil(t)
			raw, err := srv.fetch("/metrics")
			if err != nil {
				return sr, err
			}
			g, err := parseProm(raw)
			if err != nil {
				return sr, err
			}
			res.gauges = append(res.gauges, g)
		}
	}
	e.clk.sleepUntil(win.end)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return sr, err
	}
	sr.cpu = cpu1 - cpu0
	if sr.rssMB, err = srv.peakRSS(); err != nil {
		return sr, err
	}
	if e.traced() {
		out.drain(3 * time.Second)
		if res.rawAfter, err = srv.fetch("/metrics"); err == nil {
			res.after, err = parseProm(res.rawAfter)
		}
		if err == nil {
			res.rawTraces, err = srv.fetch("/debug/traces")
		}
		if err == nil {
			res.traces, err = parseChrome(res.rawTraces)
		}
	}
	return sr, err
}

func runWorkload(e *env, w any) (*runResult, error) {
	switch w := w.(type) {
	case kvWorkload:
		return runKV(e, w)
	case xmppWorkload:
		return runXMPP(e, w)
	}
	return nil, fmt.Errorf("unknown workload type %T", w)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	rep, err := run()
	if err == nil {
		var line []byte
		if line, err = json.Marshal(rep); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func run() (report, error) {
	name := flag.String("workload", "", "kv-hot-open, kv-persist-pipelined or xmpp-chat-open")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measure window in seconds")
	traceRun := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceRun != 0 && *traceRun != 1) {
		return report{}, errors.New("usage: -workload <name> -seed <n> -seconds <s> -trace <0|1>")
	}
	// One load process, at most nproc (2) connections' worth of CPU.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if _, err := os.Stat(filepath.Join("cmd", "kvserver")); err != nil {
		return report{}, fmt.Errorf("run from the repository root: %w", err)
	}
	out, err := filepath.Abs(".bench_build")
	if err != nil {
		return report{}, err
	}
	binDir := filepath.Join(out, "bin")
	if err := buildServers(binDir); err != nil {
		return report{}, err
	}
	suffix := ""
	if *traceRun == 1 {
		suffix = "-trace"
	}
	artDir := filepath.Join(out, "runs", fmt.Sprintf("%s-seed%d%s", *name, *seed, suffix))
	if err := os.RemoveAll(artDir); err != nil {
		return report{}, err
	}
	if err := os.MkdirAll(artDir, 0o755); err != nil {
		return report{}, err
	}
	// The window is split over several server processes: a process keeps
	// one scheduling regime for its life, so one process per run would
	// make the run-to-run spread that of a single draw.
	segments := min(max(*seconds/minSegmentSeconds, 1), maxSegments)
	e := &env{seed: *seed, warm: time.Second, segments: segments,
		segment: time.Duration(*seconds) * time.Second / time.Duration(segments),
		binDir:  binDir, artDir: artDir, clk: clock{t0: time.Now()}}
	if *traceRun == 1 {
		return traced(e, *name, w)
	}
	res, err := runWorkload(e, w)
	if err != nil {
		return report{}, err
	}
	return endToEnd(*name, res)
}

// An end-to-end run measures up to maxSegments server processes, each
// for at least minSegmentSeconds: at 800 msg/s that leaves 40 samples
// beyond each segment's p99.
const (
	maxSegments       = 5
	minSegmentSeconds = 5
)

// endToEnd turns an untraced run into the end-to-end metrics, printing
// each with its unit and sample count. Each figure is the median over
// the segments, so one segment caught by a host disturbance does not
// move it; set-up is the median over the starts.
func endToEnd(name string, res *runResult) (report, error) {
	o := &res.out
	rep := report{Correct: o.wrong == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if o.attempted == 0 || o.completed == 0 {
		return rep, fmt.Errorf("%s: no operation completed in the window", name)
	}
	var p50s, p99s, rates, rss []float64
	minBeyondP99 := o.completed
	for i, s := range res.segs {
		p50, _, _ := percentile(s.out.lat, 0.5)
		p99, beyond, err := percentile(s.out.lat, 0.99)
		if err != nil {
			return rep, fmt.Errorf("%s: segment %d: latency_p99_ms: %w", name, i, err)
		}
		minBeyondP99 = min(minBeyondP99, beyond)
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
		rates = append(rates, float64(s.out.completed)/s.seconds)
		rss = append(rss, s.rssMB)
	}
	add := func(k string, v float64, unit string, samples int) {
		rep.Metrics[k] = metric{Value: v, Unit: unit}
		fmt.Printf("%-22s %-22s %14.6f %-6s n=%d\n", name, k, v, unit, samples)
	}
	add("setup_s", median(res.setup), "s", len(res.setup))
	add("ops_per_s", median(rates), "ops/s", o.completed)
	add("latency_p50_ms", median(p50s), "ms", o.completed)
	add("latency_p99_ms", median(p99s), "ms", o.completed)
	add("success_ratio", float64(o.attempted-o.failed)/float64(o.attempted), "ratio", o.attempted)
	add("server_rss_peak_mb", median(rss), "MB", len(rss))
	secs, cpu := res.totals()
	fmt.Printf("%-22s %-22s %14d segments of %.1f s; >= %d samples beyond each segment's p99; failed %d of %d (wrong %d)\n",
		name, "segments", len(res.segs), secs/float64(len(res.segs)), minBeyondP99, o.failed, o.attempted, o.wrong)
	fmt.Printf("%-22s %-22s %14.6f %-6s n=%d (not gated)\n", name, "server_cpu_us_per_op",
		float64(cpu.Microseconds())/float64(o.completed), "us", o.completed)
	fmt.Printf("%-22s %-22s %14.1f %-6s n=%d (not gated)\n", name, "gen.late_p99_us", quantile(o.late, 0.99), "us", len(o.late))
	for _, msg := range o.firstErrs {
		fmt.Fprintln(os.Stderr, "e2ebench: failure:", msg)
	}
	if err := lateness(o, median(p50s)); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: INVALID RUN:", err)
		rep.Correct = false
	}
	return rep, nil
}

// lateness flags a run whose open-loop generator ran so late that
// lateness, not the system, sets the median: it then measured the load
// host, not the server.
func lateness(o *outcome, p50ms float64) error {
	if len(o.late) == 0 {
		return nil
	}
	if l := quantile(o.late, 0.5) / 1e3; l > p50ms/2 {
		return fmt.Errorf("generator lateness p50 %.3f ms exceeds half of latency p50 %.3f ms", l, p50ms)
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

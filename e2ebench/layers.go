package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// layerMetric is one per-layer figure and its unit; absent, when set,
// says why the workload cannot produce it (the value is then 0).
type layerMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Absent string  `json:"absent,omitempty"`
}

// traced runs the workload untraced (for the tracing overhead), then
// traced, then replays its inputs in process, and reports the per-layer
// metrics. Spans, scrapes and the budget table go to the artifact dir.
func traced(e *env, name string, w any) (report, error) {
	e.segments, e.segment = 1, e.segment*time.Duration(e.segments)
	base, err := runWorkload(e, w)
	if err != nil {
		return report{}, fmt.Errorf("untraced pass: %w", err)
	}
	te := *e
	te.spans = &spanLog{}
	tr, err := runWorkload(&te, w)
	if err != nil {
		return report{}, fmt.Errorf("traced pass: %w", err)
	}
	n := min(tr.out.attempted, 40000)
	var rr replayResult
	visits := 1 // server traces one request makes
	switch w := w.(type) {
	case kvWorkload:
		rr, err = replayKV(&te, w, n)
	case xmppWorkload:
		rr, err = replayXMPP(&te, w, n)
		visits = 2 // the message and its echo
	}
	if err != nil {
		return report{}, err
	}
	m := layers(base, tr, rr, te.spans, visits)
	rep := report{Correct: base.out.wrong == 0 && tr.out.wrong == 0,
		Attempted: tr.out.attempted, Failed: tr.out.failed, Metrics: map[string]metric{}}
	for _, msg := range append(base.out.firstErrs, tr.out.firstErrs...) {
		fmt.Fprintln(os.Stderr, "e2ebench: failure:", msg)
	}
	for _, k := range sortedKeys(m) {
		rep.Metrics[k] = metric{Value: m[k].Value, Unit: m[k].Unit}
		note := ""
		if m[k].Absent != "" {
			note = "  (absent: " + m[k].Absent + ")"
		}
		fmt.Printf("%-22s %-34s %14.6f %s%s\n", name, k, m[k].Value, m[k].Unit, note)
	}
	// Invariants of the traced run.
	if v := m["kv.server_ops_per_op"]; v.Absent == "" && math.Abs(v.Value-1) > 0.01 {
		fmt.Fprintf(os.Stderr, "e2ebench: INVARIANT: kv.server_ops_per_op = %.4f, want 1 ± 1%%\n", v.Value)
		rep.Correct = false
	}
	for _, k := range []string{"pos.sync_failures", "netactors.dropped_frames"} {
		if m[k].Value != 0 {
			fmt.Fprintf(os.Stderr, "e2ebench: INVARIANT: %s = %g, want 0\n", k, m[k].Value)
			rep.Correct = false
		}
	}
	if err := writeArtifacts(te.artDir, tr, te.spans, visits, m); err != nil {
		return report{}, err
	}
	fmt.Fprintln(os.Stderr, "e2ebench: spans, scrapes and budget table in", te.artDir)
	return rep, nil
}

// layers computes the per-layer metrics. Server counters are window
// deltas divided by the client's verified operations in the same
// window; server span figures come from the sampled /debug/traces.
func layers(base, tr *runResult, rr replayResult, spans *spanLog, visits int) map[string]layerMetric {
	m := map[string]layerMetric{}
	ops := float64(tr.out.completed)
	kops := ops / 1000
	secs, _ := tr.totals()
	winNS := secs * 1e9
	b, a := tr.before, tr.after
	d := func(name string) float64 { return delta(b, a, name) }
	set := func(k, unit string, v float64) { m[k] = layerMetric{Value: v, Unit: unit} }
	absent := func(k, unit, why string) { m[k] = layerMetric{Unit: unit, Absent: why} }
	byCat := spansByCat(tr.traces)
	spanQ := func(k, unit, cat string, q, scale float64) {
		if len(byCat[cat]) == 0 {
			absent(k, unit, "no "+cat+" spans in the sampled server traces")
			return
		}
		set(k, unit, quantile(byCat[cat], q)/scale)
	}
	isKV := len(tr.sessions) > 0
	kvOps := d("eactors_kv_gets_total") + d("eactors_kv_sets_total") + d("eactors_kv_dels_total")

	// client
	set("client.dial_ms", "ms", median(tr.dials))
	issue := spans.durations("kv.issue")
	if !isKV {
		issue = spans.durations("xmpp.send")
	}
	set("client.issue_us_p50", "us", quantile(issue, 0.5))
	if isKV {
		resent, ratioMax := 0.0, 0.0
		for _, s := range tr.sessions {
			resent += float64(s.Resent)
			ratioMax = math.Max(ratioMax, ratio(float64(s.MaxInFlightBytes), float64(s.WindowLimit)))
		}
		set("client.resent_per_kop", "1/kop", ratio(resent, kops))
		set("client.inflight_window_ratio", "ratio", ratioMax)
	} else {
		absent("client.resent_per_kop", "1/kop", "xmpp/client has no resending session")
		absent("client.inflight_window_ratio", "ratio", "xmpp/client has no flow-control window")
	}

	// netactors
	set("netactors.bytes_in_per_op", "B", ratio(d("eactors_net_bytes_in_total"), ops))
	set("netactors.bytes_out_per_op", "B", ratio(d("eactors_net_bytes_out_total"), ops))
	set("netactors.queue_depth_max", "count", gaugeMax(tr, "eactors_net_queue_depth"))
	set("netactors.dropped_frames", "count", d("eactors_net_dropped_frames_total"))
	set("actor.reader_busy_share", "ratio", actorBusy(b, a, "reader", winNS))
	set("actor.writer_busy_share", "ratio", actorBusy(b, a, "writer", winNS))

	// netloop: absent series read as 0, which records that the legacy
	// pump carried the traffic.
	set("netloop.ready_events_per_op", "count", ratio(d("eactors_netloop_ready_events_total"), ops))
	set("netloop.retry_ratio", "ratio", ratio(d("eactors_netloop_retries_total"), d("eactors_netloop_dispatches_total")))
	set("netloop.sheds", "count", d("eactors_netloop_sheds_total"))

	// kv / transport
	if isKV {
		set("kv.server_ops_per_op", "ratio", ratio(kvOps, ops))
		set("kv.pipelined_share", "ratio", ratio(d("eactors_kv_pipelined_total"), kvOps))
		set("kv.replayed_per_kop", "1/kop", ratio(d("eactors_kv_replayed_total"), kops))
		set("kv.not_found_ratio", "ratio", ratio(d("eactors_kv_not_found_total"), d("eactors_kv_gets_total")+d("eactors_kv_dels_total")))
		set("actor.frontend_busy_share", "ratio", actorBusy(b, a, "frontend", winNS))
		set("actor.kvstore_busy_share", "ratio", actorBusy(b, a, "kvstore", winNS))
		set("transport.codec_ns_per_op", "ns", rr.codecNS)
	} else {
		for k, unit := range map[string]string{"kv.server_ops_per_op": "ratio", "kv.pipelined_share": "ratio",
			"kv.replayed_per_kop": "1/kop", "kv.not_found_ratio": "ratio", "actor.frontend_busy_share": "ratio",
			"actor.kvstore_busy_share": "ratio", "transport.codec_ns_per_op": "ns"} {
			absent(k, unit, "xmppserver has no KV layer")
		}
	}
	spanQ("trace.route_us_p50", "us", "route", 0.5, 1)

	// core / mem
	set("core.invocations_per_op", "count", ratio(d("eactors_worker_invocations_total"), ops))
	set("core.wakes_per_op", "count", ratio(d("eactors_worker_wakes_total"), ops))
	set("core.backstop_expiries_per_s", "1/s", (d("eactors_worker_idle_total")-d("eactors_worker_wakes_total"))/secs)
	set("core.send_batch_mean", "count", ratio(d("eactors_channel_send_batch_size_sum"), d("eactors_channel_send_batch_size_count")))
	set("core.recv_batch_mean", "count", ratio(d("eactors_channel_recv_batch_size_sum"), d("eactors_channel_recv_batch_size_count")))
	set("core.send_failures_per_kop", "1/kop", ratio(d("eactors_channel_send_failures_total"), kops))
	set("core.drain_exhausted_per_kop", "1/kop", ratio(d("eactors_worker_drain_exhausted_total"), kops))
	set("mem.pool_free_min", "count", gaugeMin(tr, "eactors_pool_free"))
	spanQ("trace.dwell_us_p50", "us", "dwell", 0.5, 1)
	spanQ("trace.dwell_us_p99", "us", "dwell", 0.99, 1)
	spanQ("trace.invoke_us_p50", "us", "invoke", 0.5, 1)

	// sgx / ecrypto
	set("sgx.crossings_per_kop", "1/kop", ratio(d("eactors_sgx_crossings_total"), kops))
	set("sgx.seal_ops_per_op", "count", ratio(d("eactors_sgx_seal_ops_total"), ops))
	histUS := func(k, base string, q float64) {
		if v, n := histQuantile(b, a, base, q); n > 0 {
			set(k, "us", v/1e3)
		} else {
			absent(k, "us", "no "+base+" observations in the window")
		}
	}
	histUS("channel.seal_us_p50", "eactors_channel_seal_ns", 0.5)
	histUS("channel.open_us_p50", "eactors_channel_open_ns", 0.5)
	set("sgx.epc_used_pages_max", "count", gaugeMax(tr, "eactors_sgx_epc_used_pages"))
	set("sgx.evicted_pages_per_kop", "1/kop", ratio(d("eactors_sgx_evicted_pages_total"), kops))
	spanQ("trace.crossing_us_p50", "us", "crossing", 0.5, 1)
	set("ecrypto.seal_ns", "ns", rr.sealNS)
	set("ecrypto.open_ns", "ns", rr.openNS)
	set("ecrypto.seal_allocs", "count", rr.sealAllocs)

	// pos
	if isKV {
		set("pos.cache_hit_ratio", "ratio", ratio(d("eactors_pos_cache_hits_total"),
			d("eactors_pos_cache_hits_total")+d("eactors_pos_cache_misses_total")))
		set("pos.flushed_per_write", "ratio", ratio(d("eactors_pos_flushed_ops_total"),
			d("eactors_kv_sets_total")+d("eactors_kv_dels_total")))
		set("pos.dirty_max", "count", gaugeMax(tr, "eactors_pos_dirty_entries"))
		set("pos.replay_get_ns", "ns", rr.posGetNS)
		set("pos.replay_set_ns", "ns", rr.posSetNS)
		set("pos.replay_flush_ms", "ms", rr.posFlushMS)
	} else {
		for k, unit := range map[string]string{"pos.cache_hit_ratio": "ratio", "pos.flushed_per_write": "ratio",
			"pos.dirty_max": "count", "pos.replay_get_ns": "ns", "pos.replay_set_ns": "ns", "pos.replay_flush_ms": "ms"} {
			absent(k, unit, "xmppserver has no sharded KV store")
		}
	}
	spanQ("pos.get_us_p50", "us", "pos-get", 0.5, 1)
	spanQ("pos.get_us_p99", "us", "pos-get", 0.99, 1)
	spanQ("pos.set_us_p50", "us", "pos-set", 0.5, 1)
	spanQ("pos.sync_ms_p99", "ms", "pos-sync", 0.99, 1e3)
	set("pos.sync_failures", "count", d("eactors_pos_sync_failures_total"))

	// xmpp
	if !isKV {
		histUS("xmpp.route_us_p50", "eactors_xmpp_route_ns", 0.5)
		histUS("xmpp.route_us_p99", "eactors_xmpp_route_ns", 0.99)
		set("xmpp.routed_per_stanza", "ratio", ratio(d("eactors_xmpp_routed_total"), float64(tr.stanzas)))
		set("xmpp.fanout_per_group_msg", "ratio", ratio(d("eactors_xmpp_group_fanout_total"), float64(tr.groupMsgs)))
		set("xmpp.scan_ns_per_stanza", "ns", rr.scanNS)
		set("actor.xmpp_shard_busy_share", "ratio", actorBusy(b, a, "xmpp-shard", winNS))
		set("actor.room_busy_share", "ratio", actorBusy(b, a, "room-shard", winNS))
	} else {
		for k, unit := range map[string]string{"xmpp.route_us_p50": "us", "xmpp.route_us_p99": "us",
			"xmpp.routed_per_stanza": "ratio", "xmpp.fanout_per_group_msg": "ratio", "xmpp.scan_ns_per_stanza": "ns",
			"actor.xmpp_shard_busy_share": "ratio", "actor.room_busy_share": "ratio"} {
			absent(k, unit, "kvserver has no XMPP layer")
		}
	}

	// process / observe
	set("process.gc_pause_p99_us", "us", a.sum("eactors_process_gc_pause_p99_ns", nil)/1e3)
	set("process.goroutines", "count", a.sum("eactors_process_goroutines", nil))
	cpuOp := func(r *runResult) float64 {
		_, cpu := r.totals()
		return ratio(float64(cpu.Microseconds()), float64(r.out.completed))
	}
	set("process.cpu_us_per_op", "us", cpuOp(tr))
	set("observe.cpu_overhead_ratio", "ratio", ratio(cpuOp(tr), cpuOp(base)))
	_, attributed := budget(tr.traces, spans, visits)
	set("budget.unattributed_share", "ratio", 1-attributed/(quantile(tr.out.lat, 0.5)*1e3))
	set("gen.late_p99_us", "us", quantile(tr.out.late, 0.99))
	return m
}

// spansByCat groups server span durations (µs) by category.
func spansByCat(spans []tspan) map[string][]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Cat] = append(by[s.Cat], s.Dur)
	}
	return by
}

// gaugeMax and gaugeMin scan a gauge over the window's scrapes.
func gaugeMax(r *runResult, name string) float64 {
	v := math.Inf(-1)
	for _, s := range r.allScrapes() {
		v = math.Max(v, s.sum(name, nil))
	}
	return v
}

func gaugeMin(r *runResult, name string) float64 {
	v := math.Inf(1)
	for _, s := range r.allScrapes() {
		v = math.Min(v, s.sum(name, nil))
	}
	return v
}

func (r *runResult) allScrapes() []scrape {
	return append([]scrape{r.before, r.after}, r.gauges...)
}

// budgetRow is one span kind's share of a request: server kinds per
// sampled trace, client kinds per request.
type budgetRow struct {
	Kind       string
	Spans      int
	PerUnit    float64 // spans per trace (server) or per request (client)
	SelfUSMean float64
	USPerUnit  float64
}

// budget attributes request time to span kinds and returns the rows and
// the time per request the spans account for. A server trace roots one
// inbound burst, which on a pipelined session carries many requests
// handled in parallel, so summing per-kind times would count that
// parallel work many times over. The server's share of a request is
// instead the median time a trace covers (the union of its spans),
// once per server visit (the message and its echo make two on XMPP);
// the client adds its issue call and the generator's lateness.
func budget(server []tspan, client *spanLog, visits int) ([]budgetRow, float64) {
	var rows []budgetRow
	add := func(spans []tspan, units int) {
		self := selfTimes(spans)
		sum, count := map[string]float64{}, map[string]int{}
		for i, s := range spans {
			sum[s.Cat] += self[i]
			count[s.Cat]++
		}
		for _, k := range sortedKeys(count) {
			per := float64(count[k]) / float64(units)
			mean := sum[k] / float64(count[k])
			rows = append(rows, budgetRow{Kind: k, Spans: count[k], PerUnit: per, SelfUSMean: mean, USPerUnit: mean * per})
		}
	}
	cover := traceCoverage(server)
	add(server, max(len(cover), 1))
	attributed := float64(visits) * median(cover)
	var cs []tspan
	requests := 0
	if client != nil {
		client.mu.Lock()
		for _, s := range client.spans {
			switch s.Name {
			case "kv.op", "xmpp.op":
				requests++
			case "kv.issue", "gen.late", "xmpp.send":
				s.Cat = s.Name
				cs = append(cs, s)
			}
		}
		client.mu.Unlock()
	}
	n := len(rows)
	add(cs, max(requests, 1))
	for _, r := range rows[n:] {
		attributed += r.USPerUnit
	}
	return rows, attributed
}

// traceCoverage returns, per server trace, the time its spans cover.
func traceCoverage(spans []tspan) []float64 {
	iv := map[uint64][][2]float64{}
	for _, s := range spans {
		iv[s.Args.Trace] = append(iv[s.Args.Trace], [2]float64{s.TS, s.TS + s.Dur})
	}
	cover := make([]float64, 0, len(iv))
	for _, v := range iv {
		cover = append(cover, unionLen(v))
	}
	return cover
}

// writeArtifacts saves the traced pass: both scrapes, the server traces,
// the client and replay spans, the metrics, and the budget table.
func writeArtifacts(dir string, tr *runResult, spans *spanLog, visits int, m map[string]layerMetric) error {
	files := map[string][]byte{
		"scrape-before.txt":  tr.rawBefore,
		"scrape-after.txt":   tr.rawAfter,
		"server-traces.json": tr.rawTraces,
	}
	lm, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	files["layers.json"] = lm
	var sb strings.Builder
	p50 := quantile(tr.out.lat, 0.5) * 1e3
	cover := traceCoverage(tr.traces)
	fmt.Fprintf(&sb, "latency p50 %.1f us over %d requests; %d sampled server traces covering %.1f us (median)\n\n",
		p50, len(tr.out.lat), len(cover), median(cover))
	fmt.Fprintf(&sb, "%-22s %8s %10s %12s %10s\n", "kind", "spans", "per unit", "self us", "us/unit")
	rows, _ := budget(tr.traces, spans, visits)
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %8d %10.3f %12.2f %10.2f\n", r.Kind, r.Spans, r.PerUnit, r.SelfUSMean, r.USPerUnit)
	}
	fmt.Fprintf(&sb, "\nunits: server kinds per sampled trace, client kinds per request\nunattributed share %.3f\n\nper-layer metrics\n",
		m["budget.unattributed_share"].Value)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&sb, "%-34s %14.4f %-6s %s\n", k, m[k].Value, m[k].Unit, m[k].Absent)
	}
	files["budget.txt"] = []byte(sb.String())
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	spans.mu.Lock()
	defer spans.mu.Unlock()
	return writeChromeGz(filepath.Join(dir, "client-spans.json.gz"), spans.spans)
}

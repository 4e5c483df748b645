package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// perLayer lists the metrics a traced run reports. A layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"apps.montage.self_ms_p50", "ms"},
	{"apps.nyx.self_ms_p50", "ms"},
	{"apps.qmcpack.self_ms_p50", "ms"},
	{"classify.montage.ms_p50", "ms"},
	{"classify.nyx.ms_p50", "ms"},
	{"classify.qmcpack.ms_p50", "ms"},
	{"fits.encode_us", "us"},
	{"fits.encode_allocs", "count"},
	{"fits.decode_us", "us"},
	{"fits.decode_allocs", "count"},
	{"hdf5.read_us", "us"},
	{"hdf5.read_allocs", "count"},
	{"vfs.append2880_ns", "ns"},
	{"vfs.append2880_allocs", "count"},
	{"vfs.open.ops_per_run", "count"},
	{"vfs.open.ns_per_op", "ns"},
	{"vfs.read.ops_per_run", "count"},
	{"vfs.read.ns_per_op", "ns"},
	{"vfs.read.bytes_per_run", "B"},
	{"vfs.write.ops_per_run", "count"},
	{"vfs.write.ns_per_op", "ns"},
	{"vfs.write.bytes_per_run", "B"},
	{"vfs.meta.ops_per_run", "count"},
	{"vfs.meta.ns_per_op", "ns"},
	{"vfs.sync.ops_per_run", "count"},
	{"vfs.sync.ns_per_op", "ns"},
	{"core.run_ms_p99", "ms"},
	{"core.clone_us_p50", "us"},
	{"core.clone_us_p99", "us"},
	{"core.clone_world_us", "us"},
	{"core.clone_world_allocs", "count"},
	{"experiments.build_ms", "ms"},
	{"core.setup_ms", "ms"},
	{"core.profile_ms", "ms"},
	{"campaignd.lease.ms_p50", "ms"},
	{"campaignd.heartbeat.ms_p50", "ms"},
	{"campaignd.records.ms_p50", "ms"},
	{"campaignd.records.ms_p99", "ms"},
	{"campaignd.complete.ms_p50", "ms"},
	{"campaignd.requests_per_run", "count"},
	{"campaignd.upload_bytes_per_run", "B"},
	{"campaignd.lease_spinup_ms", "ms"},
	{"campaignd.worker_busy_share", "share"},
	{"results.bytes_per_run", "B"},
	{"results.finalize_ms_p50", "ms"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_per_run", "count"},
	{"inject.fired_share", "share"},
	{"core.events_dropped", "count"},
	{"campaignd.http_errors", "count"},
	{"trace.overhead_pct", "%"},
}

// setupMetric names the per-layer metric each kind of set-up span adds to.
var setupMetric = map[string]string{
	"build":   "experiments.build_ms",
	"setup":   "core.setup_ms",
	"profile": "core.profile_ms",
}

// perLayerValues derives the per-layer metrics. Tap-based rows come from
// the traced rounds; rows the program reports itself (events, runtime
// counters, the store) come from the untraced rounds.
func perLayerValues(t *tap, plainRounds, tracedRounds []roundResult, probes map[string]probeResult) map[string]float64 {
	plain, traced := summarize(plainRounds), summarize(tracedRounds)
	v := map[string]float64{"core.run_ms_p99": p99OverBlocks(plainRounds)}

	self := map[string][]float64{}
	cls := map[string][]float64{}
	var io ioStats
	n := 0.0 // traced injection runs: one Run span each
	for _, sp := range t.runs {
		if sp.Kind == "run" {
			self[sp.App] = append(self[sp.App], float64(sp.Ns-sp.IO.ns())/1e6)
			n++
		} else {
			cls[sp.App] = append(cls[sp.App], float64(sp.Ns)/1e6)
		}
		io.merge(&sp.IO)
	}
	for _, app := range []string{"montage", "nyx", "qmcpack"} {
		v["apps."+app+".self_ms_p50"] = median(self[app])
		v["classify."+app+".ms_p50"] = median(cls[app])
	}
	for c, name := range ioClassNames {
		v["vfs."+name+".ops_per_run"] = per(float64(io[c].Ops), n)
		v["vfs."+name+".ns_per_op"] = per(float64(io[c].Ns), float64(io[c].Ops))
	}
	v["vfs.read.bytes_per_run"] = per(float64(io[ioRead].Bytes), n)
	v["vfs.write.bytes_per_run"] = per(float64(io[ioWrite].Bytes), n)

	for _, p := range []struct {
		probe, metric string
		perUnit       float64 // ns per unit of the metric
	}{
		{"fits.encode", "fits.encode_us", 1e3},
		{"fits.decode", "fits.decode_us", 1e3},
		{"hdf5.read", "hdf5.read_us", 1e3},
		{"vfs.append2880", "vfs.append2880_ns", 1},
		{"core.clone_world", "core.clone_world_us", 1e3},
	} {
		v[p.metric] = probes[p.probe].ns / p.perUnit
		v[p.probe+"_allocs"] = probes[p.probe].allocs
	}

	v["core.clone_us_p50"] = quantile(plain.cloneUs, 0.50)
	v["core.clone_us_p99"] = quantile(plain.cloneUs, 0.99)
	for _, sp := range t.setups {
		v[setupMetric[sp.Kind]] += float64(sp.Ns) / 1e6
	}

	httpLayer(v, t.http, traced)
	if traced.runs > 0 && len(t.http) > 0 {
		v["campaignd.worker_busy_share"] = per(float64(traced.busyNs), float64(fleetWorkers)*float64(traced.use.wall.Nanoseconds()))
	}
	v["results.bytes_per_run"] = per(float64(plain.storeBytes), float64(plain.runs))

	v["runtime.gc_cpu_share"] = per(plain.use.gcCPU, plain.use.totalCPU)
	v["runtime.gc_per_run"] = per(float64(plain.use.gcCycles), float64(plain.done))
	v["inject.fired_share"] = per(float64(plain.fired), float64(plain.runs))
	for _, d := range plain.dropped {
		v["core.events_dropped"] += float64(d)
	}
	for _, d := range traced.dropped {
		v["core.events_dropped"] += float64(d)
	}
	plainRate := per(float64(plain.done), plain.use.wall.Seconds())
	tracedRate := per(float64(traced.done), traced.use.wall.Seconds())
	v["trace.overhead_pct"] = 100 * per(plainRate-tracedRate, plainRate)
	return v
}

// httpLayer derives the campaignd rows from the HTTP spans: latencies as
// the worker's client sees them, volume and store finalization as the
// coordinator's handler sees them.
func httpLayer(v map[string]float64, spans []httpSpan, traced summary) {
	client := map[string][]float64{}
	// Lease ids restart with every coordinator, so a lease is known by its
	// round and id.
	type leaseKey struct {
		round int
		id    string
	}
	grantEnd := map[leaseKey]int64{}
	firstRecords := map[leaseKey]int64{}
	var requests, bytes float64
	var finalize []float64
	for _, sp := range spans {
		if sp.Side == "client" {
			client[sp.Route] = append(client[sp.Route], float64(sp.Ns)/1e6)
			if sp.Status == 0 || sp.Status >= 400 {
				v["campaignd.http_errors"]++
			}
			continue
		}
		requests++
		bytes += float64(sp.Bytes)
		lease := leaseKey{sp.Round, sp.Lease}
		switch sp.Route {
		case "/lease":
			if sp.Lease != "" {
				grantEnd[lease] = sp.StartUs + sp.Ns/1e3
			}
		case "/records":
			if at, ok := firstRecords[lease]; !ok || sp.StartUs < at {
				firstRecords[lease] = sp.StartUs
			}
		case "/complete":
			finalize = append(finalize, float64(sp.Ns)/1e6)
		}
	}
	for _, route := range []string{"lease", "heartbeat", "records", "complete"} {
		v["campaignd."+route+".ms_p50"] = quantile(client["/"+route], 0.50)
	}
	v["campaignd.records.ms_p99"] = quantile(client["/records"], 0.99)
	v["campaignd.requests_per_run"] = per(requests, float64(traced.runs))
	v["campaignd.upload_bytes_per_run"] = per(bytes, float64(traced.runs))
	v["results.finalize_ms_p50"] = median(finalize)
	var spinup []float64
	for lease, end := range grantEnd {
		if at, ok := firstRecords[lease]; ok {
			spinup = append(spinup, float64(at-end)/1e3)
		}
	}
	v["campaignd.lease_spinup_ms"] = median(spinup)
}

// ledgerRow accumulates one application's traced runs.
type ledgerRow struct {
	events, runSpans, clsSpans          int
	latNs, cloneNs                      int64
	runNs, runIONs, classifyNs, clsIONs int64
}

// printLedger prints the per-run cost ledger of the traced rounds: clone +
// application self time + vfs + classify self time + unaccounted = run
// latency, as means per run in µs. Latency and clone come from the RunDone
// events; the rest from the callback and vfs taps.
func printLedger(t *tap, tapped []roundResult) {
	rows := map[string]*ledgerRow{}
	row := func(app string) *ledgerRow {
		if rows[app] == nil {
			rows[app] = &ledgerRow{}
		}
		return rows[app]
	}
	appOfKey := map[string]string{}
	for _, sp := range t.runs {
		appOfKey[sp.Key] = sp.App
		for _, r := range []*ledgerRow{row(sp.App), row("all")} {
			if sp.Kind == "run" {
				r.runSpans++
				r.runNs += sp.Ns
				r.runIONs += sp.IO.ns()
			} else {
				r.clsSpans++
				r.classifyNs += sp.Ns
				r.clsIONs += sp.IO.ns()
			}
		}
	}
	for _, rr := range tapped {
		for _, ev := range rr.ledger {
			for _, r := range []*ledgerRow{row(appOfKey[ev.Key]), row("all")} {
				r.events++
				r.latNs += ev.latencyNs()
				r.cloneNs += ev.CloneUs * 1e3
			}
		}
	}
	apps := make([]string, 0, len(rows))
	for app := range rows {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	fmt.Println("# per-run ledger, µs per run: clone + app self + vfs + classify self + unaccounted = run latency")
	for _, app := range apps {
		r := rows[app]
		n := float64(r.events)
		us := func(ns int64) float64 { return per(float64(ns)/1e3, n) }
		appSelf, vfsNs, clsSelf := r.runNs-r.runIONs, r.runIONs+r.clsIONs, r.classifyNs-r.clsIONs
		rest := r.latNs - r.cloneNs - appSelf - vfsNs - clsSelf
		fmt.Printf("  %-8s %9.1f + %9.1f + %9.1f + %9.1f + %8.1f = %9.1f  (%d runs, %d run spans, %d classify spans)\n",
			app, us(r.cloneNs), us(appSelf), us(vfsNs), us(clsSelf), us(rest), us(r.latNs), r.events, r.runSpans, r.clsSpans)
	}
}

// writeTrace writes the traced run's spans, kept in memory until now, as
// JSON lines between a self-describing header and a trailer that counts
// what the event subscribers dropped.
func writeTrace(path string, h host, name string, seed uint64, seconds int, t *tap, tapped []roundResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	line := func(kind string, v any) error {
		return enc.Encode(struct {
			Type string `json:"type"`
			Span any    `json:"span,omitempty"`
		}{kind, v})
	}
	header := map[string]any{
		"host": h, "seed": seed, "workloads": []string{name}, "seconds": seconds,
		"rounds": len(tapped), "io_classes": ioClassNames,
	}
	if err := enc.Encode(map[string]any{"type": "header", "header": header}); err != nil {
		return err
	}
	drops := map[string]int64{}
	events := 0
	for _, sp := range t.setups {
		if err := line("setup", sp); err != nil {
			return err
		}
	}
	for _, sp := range t.runs {
		if err := line("run", sp); err != nil {
			return err
		}
	}
	for _, sp := range t.http {
		if err := line("http", sp); err != nil {
			return err
		}
	}
	for _, rr := range tapped {
		for _, ev := range rr.ledger {
			if err := line("run_done", ev); err != nil {
				return err
			}
			events++
		}
		for k, d := range rr.dropped {
			drops[k] += d
		}
	}
	trailer := map[string]any{"type": "trailer", "spans": len(t.setups) + len(t.runs) + len(t.http), "events": events, "drops": drops}
	if err := enc.Encode(trailer); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

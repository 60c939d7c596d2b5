package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"rocks/internal/core"
	"rocks/internal/lifecycle"
)

// Phase boundaries. A reinstall node's time splits at its installer,
// facts and cluster events; a discovery node's at insert-ethers' events and
// the benchmark's own OFFER timestamp; an integrated node's at
// insert-ethers' events, then as a reinstall's from its lease on. Each
// list's phases tile the node's command-to-completion window, so their
// shares sum to 100%.
var (
	reinstallPhases = []struct {
		name string
		end  lifecycle.EventType
	}{
		{"installer.lease_ms", lifecycle.EventLease},
		{"kickstart.phase_ms", lifecycle.EventKickstart},
		{"installer.partition_ms", lifecycle.EventPartition},
		{"installer.packages_ms", lifecycle.EventPackages},
		{"installer.post_ms", lifecycle.EventPost},
		{"installer.finalize_ms", lifecycle.EventInstallComplete},
		{"facts.phase_ms", lifecycle.EventFactsReported},
		{"core.comeup_ms", lifecycle.EventUp},
	}
	discoverPhases = []string{"syslogd.deliver_ms", "insertethers.bind_ms", "dhcp.wait_ms", "kickstart.phase_ms"}
	httpKinds      = []string{"kickstart", "manifest", "relays", "package.frontend", "package.peer", "facts"}
)

// layerMetric is one per-layer metric's name, unit and direction.
type layerMetric struct{ name, unit, better string }

// layerUnits lists every per-layer metric the traced run reports, in
// print order. A metric a workload never exercises reads 0.
func layerUnits() []layerMetric {
	var out []layerMetric
	add := func(name, unit, better string) { out = append(out, layerMetric{name, unit, better}) }
	seen := map[string]bool{}
	phase := func(n string) {
		if !seen[n] {
			seen[n] = true
			add(n, "ms", "lower")
			add(n+"_share", "fraction", "lower")
		}
	}
	for _, ph := range reinstallPhases {
		phase(ph.name)
	}
	for _, n := range discoverPhases {
		phase(n)
	}
	add("dhcp.discovers_per_node", "count", "lower")
	for _, k := range httpKinds {
		add("http."+k+".per_node", "count", "lower")
		add("http."+k+".p50_ms", "ms", "lower")
		add("http."+k+".p95_ms", "ms", "lower")
	}
	for _, m := range []layerMetric{
		{"http.dials_per_node", "count", "lower"},
		{"http.reuse_frac", "fraction", "higher"},
		{"installer.verify_unpack_ms", "ms", "lower"},
		{"clusterdb.wal_records_per_node", "count", "lower"},
		{"clusterdb.wal_bytes_per_node", "bytes", "lower"},
		{"clusterdb.scan_selects_per_node", "count", "lower"},
		{"clusterdb.index_selects_per_node", "count", "lower"},
		{"clusterdb.plan_cache_hit_frac", "fraction", "higher"},
		{"reports.writes_per_node", "count", "lower"},
		{"reports.coalesce_frac", "fraction", "higher"},
		{"kickstart.cache_hit_frac", "fraction", "higher"},
		{"kickstart.cgi_server_ms_mean", "ms", "lower"},
		{"dist.package_requests_per_node", "count", "lower"},
		{"dist.package_mb_per_node", "MB", "lower"},
		{"dist.relay_byte_frac", "fraction", "higher"},
		{"dist.not_found_per_node", "count", "lower"},
		{"installer.fetch_retries_per_node", "count", "lower"},
		{"installer.corrupt_per_node", "count", "lower"},
		{"installer.relay_demotions_per_node", "count", "lower"},
		{"lifecycle.events_per_node", "count", "lower"},
		{"lifecycle.ring_evictions", "count", "lower"},
		{"lifecycle.subscriber_drops", "count", "lower"},
		{"facts.reports_per_node", "count", "lower"},
		{"facts.drift_events", "count", "lower"},
		{"runtime.alloc_kb_per_node", "KB", "lower"},
		{"runtime.mallocs_per_node", "count", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_pause_ms", "ms", "lower"},
		{"trace.untraced_nodes_per_s", "1/s", "higher"},
		{"trace.traced_nodes_per_s", "1/s", "higher"},
		{"trace.overhead_frac", "fraction", "lower"},
	} {
		add(m.name, m.unit, m.better)
	}
	return out
}

// span is one line of the traced run's spans file.
type span struct {
	Pass    int    `json:"pass"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a node's root span
	Name    string `json:"name"`
	Node    string `json:"node"`
	StartUS int64  `json:"start_us"` // from the timed phase's start
	EndUS   int64  `json:"end_us"`
}

// nodePhases cuts one node's window into its workload's phases. Event
// timestamps are clamped into [window start, window end] and made
// monotone, so the phases tile the window exactly.
func nodePhases(w workload, win nodeWindow, evs map[lifecycle.EventType]time.Time) (names []string, bounds []time.Time, ok bool) {
	var marks []time.Time
	if w.discover || w.integrate {
		d, okD := evs[lifecycle.EventDiscovered]
		b, okB := evs[lifecycle.EventBound]
		if !okD || !okB {
			return nil, nil, false
		}
		marks = []time.Time{d, b}
	}
	if w.discover {
		names = discoverPhases
		marks = append(marks, win.offer, win.end)
	} else {
		phases := reinstallPhases
		if w.integrate {
			// The lease phase splits into syslog delivery, insert-ethers'
			// binding and the installer's wait for its next DISCOVER's OFFER.
			lease, seen := evs[lifecycle.EventLease]
			if !seen {
				return nil, nil, false
			}
			names = append(names, discoverPhases[:3]...)
			marks = append(marks, lease)
			phases = phases[1:]
		}
		for _, ph := range phases {
			t, seen := evs[ph.end]
			if !seen {
				return nil, nil, false
			}
			names = append(names, ph.name)
			marks = append(marks, t)
		}
		marks[len(marks)-1] = win.end
	}
	bounds = append(bounds, win.start)
	for _, t := range marks {
		prev := bounds[len(bounds)-1]
		if t.Before(prev) {
			t = prev
		}
		if t.After(win.end) {
			t = win.end
		}
		bounds = append(bounds, t)
	}
	return names, bounds, true
}

// layerMetrics derives every per-layer metric from one traced pass.
func layerMetrics(w workload, p passResult, spans []httpSpan, dials int64, pass int, out *[]span) map[string]float64 {
	m := map[string]float64{}
	nodes := float64(p.attempted)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// Terminal events of each node in the timed phase (first occurrence).
	byMAC := map[string]map[lifecycle.EventType]time.Time{}
	for _, e := range p.events {
		if e.mac == "" {
			continue
		}
		if byMAC[e.mac] == nil {
			byMAC[e.mac] = map[lifecycle.EventType]time.Time{}
		}
		if _, dup := byMAC[e.mac][e.typ]; !dup {
			byMAC[e.mac][e.typ] = e.time
		}
	}
	ipToMAC := map[string]string{}
	for mac, win := range p.windows {
		ipToMAC[win.ip] = mac
	}
	spansByMAC := map[string][]httpSpan{}
	for _, s := range spans {
		mac := ipToMAC[s.nodeIP]
		spansByMAC[mac] = append(spansByMAC[mac], s)
	}

	phaseSum := map[string]time.Duration{}
	var total, verify time.Duration
	phased := 0
	nextID := 1
	macs := make([]string, 0, len(p.windows))
	for mac := range p.windows {
		macs = append(macs, mac)
	}
	sort.Strings(macs)
	rel := func(t time.Time) int64 { return t.Sub(p.start).Microseconds() }
	for _, mac := range macs {
		win := p.windows[mac]
		if !win.ok {
			continue
		}
		names, bounds, ok := nodePhases(w, win, byMAC[mac])
		if !ok {
			continue
		}
		phased++
		total += win.end.Sub(win.start)
		root := nextID
		nextID++
		*out = append(*out, span{pass, root, 0, "node." + w.name, win.name, rel(win.start), rel(win.end)})
		// The packages phase's own time: its duration minus the HTTP spans
		// inside it is the installer's verify-and-unpack work.
		var unpack time.Duration
		phaseIDs := make([]int, len(names))
		for i, n := range names {
			phaseSum[n] += bounds[i+1].Sub(bounds[i])
			if n == "installer.packages_ms" {
				unpack = bounds[i+1].Sub(bounds[i])
			}
			phaseIDs[i] = nextID
			nextID++
			*out = append(*out, span{pass, phaseIDs[i], root, strings.TrimSuffix(n, "_ms"), win.name, rel(bounds[i]), rel(bounds[i+1])})
		}
		for _, s := range spansByMAC[mac] {
			parent := root
			for i := range names {
				if !s.start.Before(bounds[i]) && s.start.Before(bounds[i+1]) {
					parent = phaseIDs[i]
					if names[i] == "installer.packages_ms" {
						unpack -= s.end.Sub(s.start)
					}
				}
			}
			*out = append(*out, span{pass, nextID, parent, "http." + s.kind, win.name, rel(s.start), rel(s.end)})
			nextID++
		}
		verify += unpack
	}
	if phased > 0 {
		for n, d := range phaseSum {
			m[n] = ms(d) / float64(phased)
			m[n+"_share"] = float64(d) / float64(total)
		}
		m["installer.verify_unpack_ms"] = ms(verify) / float64(phased)
	}
	m["dhcp.discovers_per_node"] = float64(p.discovers) / nodes

	byKind := map[string][]float64{}
	reused := 0
	for _, s := range spans {
		byKind[s.kind] = append(byKind[s.kind], ms(s.end.Sub(s.start)))
		if s.reused {
			reused++
		}
	}
	for _, k := range httpKinds {
		d := byKind[k]
		sort.Float64s(d)
		m["http."+k+".per_node"] = float64(len(d)) / nodes
		m["http."+k+".p50_ms"] = quantile(d, 0.50)
		m["http."+k+".p95_ms"] = quantile(d, 0.95)
	}
	m["http.dials_per_node"] = float64(dials) / nodes
	if len(spans) > 0 {
		m["http.reuse_frac"] = float64(reused) / float64(len(spans))
	}

	d := func(family string) float64 { return delta(&p, family) }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["clusterdb.wal_records_per_node"] = d("rocks_db_wal_records_appended_total") / nodes
	m["clusterdb.wal_bytes_per_node"] = d("rocks_db_wal_bytes_appended_total") / nodes
	m["clusterdb.scan_selects_per_node"] = d("rocks_db_scan_selects_total") / nodes
	m["clusterdb.index_selects_per_node"] = d("rocks_db_index_selects_total") / nodes
	hits, misses := d("rocks_db_plan_cache_hits_total"), d("rocks_db_plan_cache_misses_total")
	m["clusterdb.plan_cache_hit_frac"] = frac(hits, hits+misses)
	writes, scheduled := d("rocks_reports_writes_total"), d("rocks_reports_scheduled_total")
	m["reports.writes_per_node"] = writes / nodes
	if scheduled > 0 {
		m["reports.coalesce_frac"] = 1 - writes/scheduled
	}
	kh, km := d("rocks_kickstart_cache_hits_total"), d("rocks_kickstart_cache_misses_total")
	m["kickstart.cache_hit_frac"] = frac(kh, kh+km)
	m["kickstart.cgi_server_ms_mean"] = 1000 * frac(d("rocks_kickstart_cgi_seconds_sum"), d("rocks_kickstart_cgi_seconds_count"))
	frontBytes, relayBytes := d("rocks_dist_package_bytes_total"), d("rocks_dist_relay_package_bytes_total")
	m["dist.package_requests_per_node"] = d("rocks_dist_package_requests_total") / nodes
	m["dist.package_mb_per_node"] = frontBytes / (1 << 20) / nodes
	m["dist.relay_byte_frac"] = frac(relayBytes, relayBytes+frontBytes)
	m["dist.not_found_per_node"] = d("rocks_dist_not_found_total") / nodes
	m["installer.fetch_retries_per_node"] = d("rocks_installer_fetch_retries_total") / nodes
	m["installer.corrupt_per_node"] = d("rocks_installer_packages_corrupt_total") / nodes
	m["installer.relay_demotions_per_node"] = d("rocks_installer_relay_demotions_total") / nodes
	m["lifecycle.events_per_node"] = d("rocks_lifecycle_events_total") / nodes
	m["lifecycle.ring_evictions"] = d("rocks_lifecycle_ring_evictions_total")
	// The benchmark's own subscription: /metrics counts drops of current
	// subscribers only, and the pass's subscription is gone by the second
	// scrape.
	m["lifecycle.subscriber_drops"] = float64(p.lost)
	m["facts.reports_per_node"] = d("rocks_facts_reports_total") / nodes
	m["facts.drift_events"] = d("rocks_facts_drift_total")

	mb, ma := p.memBefore, p.memAfter
	m["runtime.alloc_kb_per_node"] = float64(ma.TotalAlloc-mb.TotalAlloc) / 1024 / nodes
	m["runtime.mallocs_per_node"] = float64(ma.Mallocs-mb.Mallocs) / nodes
	m["runtime.gc_cycles"] = float64(ma.NumGC - mb.NumGC)
	m["runtime.gc_pause_ms"] = float64(ma.PauseTotalNs-mb.PauseTotalNs) / 1e6
	return m
}

// profile is a traced pass's CPU profile of its timed phase.
type profile struct {
	path string
	f    *os.File
	err  error
}

// hooks swap the tracing transport in for a traced pass's timed phase and
// profile that phase's CPU into prof.
func (t *tracer) hooks(prof *profile) phaseHooks {
	return phaseHooks{
		begin: func(c *core.Cluster) {
			t.install(strings.TrimPrefix(c.BaseURL(), "http://"))
			if prof.f, prof.err = os.Create(prof.path); prof.err == nil {
				prof.err = pprof.StartCPUProfile(prof.f)
			}
		},
		end: func() {
			pprof.StopCPUProfile()
			if prof.f != nil {
				if err := prof.f.Close(); prof.err == nil {
					prof.err = err
				}
			}
			t.uninstall()
		},
	}
}

func traceDir(w workload, seed int64) string {
	return filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d", w.name, seed))
}

// reportTraced folds a traced run's passes into its result. The tracing
// overhead compares the untraced and traced sides' median nodes_per_s;
// the per-layer metrics are medians across traced passes. It writes
// layers.txt beside the passes' spans and CPU profiles under
// .bench_build/trace/<workload>-seed<seed>/.
func reportTraced(w workload, seed int64, refs, passes []passSummary) (result, error) {
	res := endToEnd(append(refs, passes...))
	printProvenance(w, seed, len(refs)+len(passes))
	res.Metrics = map[string]metric{}
	for _, lm := range layerUnits() {
		var vals []float64
		for _, p := range passes {
			vals = append(vals, p.Layers[lm.name])
		}
		res.Metrics[lm.name] = metric{median(vals), lm.unit}
	}
	untraced := endToEnd(refs).Metrics["nodes_per_s"].Value
	traced := endToEnd(passes).Metrics["nodes_per_s"].Value
	res.Metrics["trace.untraced_nodes_per_s"] = metric{untraced, "1/s"}
	res.Metrics["trace.traced_nodes_per_s"] = metric{traced, "1/s"}
	res.Metrics["trace.overhead_frac"] = metric{1 - traced/untraced, "fraction"}

	dir := traceDir(w, seed)
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer metrics: workload %s, seed %d, %d traced pass(es) of %d nodes (medians)\n",
		w.name, seed, len(passes), passes[0].Attempted)
	for _, lm := range layerUnits() {
		fmt.Fprintf(&b, "  %-40s %14.4f %s\n", lm.name, res.Metrics[lm.name].Value, lm.unit)
	}
	fmt.Fprintf(&b, "tracing overhead: %.1f%% (median untraced %.2f nodes/s, traced %.2f nodes/s, same seeds)\n",
		100*res.Metrics["trace.overhead_frac"].Value, untraced, traced)
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(b.String()), 0o644); err != nil {
		return result{}, err
	}
	fmt.Print(b.String())
	fmt.Printf("spans, CPU profiles and this table are in %s\n", dir)
	return res, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package core

import (
	"time"

	"rocks/internal/metrics"
	"rocks/internal/node"
)

// registerMetrics builds the cluster's metrics registry — the /metrics
// surface — and registers every layer's counters on it: the figures that
// used to live only in the JSON of /v1/dbstats, /v1/diststats,
// /v1/supervisor, and /v1/events, plus the node-population and
// control-plane gauges. Everything is a collector func sampling live state
// at scrape time; the registry costs the instrumented paths nothing.
func (c *Cluster) registerMetrics() {
	r := metrics.NewRegistry()
	c.metricsReg = r

	// Database fast path + WAL (the /v1/dbstats "db" block).
	c.DB.RegisterMetrics(r)

	// Kickstart profile cache. The families exist even when the cache is
	// disabled (the ablation config), reading zero, so scrape-side
	// presence checks never depend on configuration.
	if c.ksCache != nil {
		c.ksCache.RegisterMetrics(r)
	} else {
		r.CounterFunc("rocks_kickstart_cache_hits_total",
			"Kickstart requests answered from the profile memo.",
			func() float64 { return 0 })
		r.CounterFunc("rocks_kickstart_cache_misses_total",
			"Kickstart requests that paid a full graph traversal.",
			func() float64 { return 0 })
		r.CounterFunc("rocks_kickstart_cache_invalidations_total",
			"Whole-cache drops caused by framework generation bumps.",
			func() float64 { return 0 })
	}

	// Distribution serving and (when a parent was replicated) the mirror
	// pass. The mirror figures are a finished pass's report, so gauges.
	c.distSrv.RegisterMetrics(r)
	r.GaugeFunc("rocks_dist_mirror_packages_listed",
		"Packages the parent distribution advertised (last mirror pass).",
		func() float64 {
			if c.mirrorReport == nil {
				return 0
			}
			return float64(c.mirrorReport.Listed)
		})
	r.GaugeFunc("rocks_dist_mirror_packages_skipped",
		"Packages reused from the baseline by digest match (no body fetched).",
		func() float64 {
			if c.mirrorReport == nil {
				return 0
			}
			return float64(c.mirrorReport.Skipped)
		})
	r.GaugeFunc("rocks_dist_mirror_packages_fetched",
		"Package bodies transferred from the parent.",
		func() float64 {
			if c.mirrorReport == nil {
				return 0
			}
			return float64(c.mirrorReport.Fetched)
		})
	r.GaugeFunc("rocks_dist_mirror_bytes_fetched",
		"Bytes of package bodies transferred from the parent.",
		func() float64 {
			if c.mirrorReport == nil {
				return 0
			}
			return float64(c.mirrorReport.FetchedBytes)
		})
	r.GaugeFunc("rocks_dist_mirror_corrupt_bodies",
		"Fetched bodies discarded after failing their manifest digest.",
		func() float64 {
			if c.mirrorReport == nil {
				return 0
			}
			return float64(c.mirrorReport.CorruptBodies)
		})

	// Relay distribution tier. The families exist even with relays
	// disabled (reading zero), so scrape-side presence checks never depend
	// on configuration. Relay serve traffic is the load the frontend NIC
	// did not carry — compare rocks_dist_relay_package_bytes_total against
	// rocks_dist_package_bytes_total for the offload ratio.
	r.GaugeFunc("rocks_dist_relays",
		"Completed nodes currently re-serving their verified package trees.",
		func() float64 {
			if c.relays == nil {
				return 0
			}
			return float64(c.relays.liveCount())
		})
	r.CounterFunc("rocks_dist_relays_started_total",
		"Relays promoted after install-complete.",
		func() float64 {
			if c.relays == nil {
				return 0
			}
			return float64(c.relays.started.Load())
		})
	r.CounterFunc("rocks_dist_relays_withdrawn_total",
		"Relays withdrawn on reinstall, dark, quarantine, or decommission.",
		func() float64 {
			if c.relays == nil {
				return 0
			}
			return float64(c.relays.withdrawn.Load())
		})
	r.CounterFunc("rocks_dist_relay_package_requests_total",
		"Package bodies served by peer relays, live and retired.",
		func() float64 {
			if c.relays == nil {
				return 0
			}
			reqs, _ := c.relays.serveTotals()
			return float64(reqs)
		})
	r.CounterFunc("rocks_dist_relay_package_bytes_total",
		"Package body bytes served by peer relays, live and retired.",
		func() float64 {
			if c.relays == nil {
				return 0
			}
			_, bytes := c.relays.serveTotals()
			return float64(bytes)
		})
	r.CounterFunc("rocks_dist_relay_same_rack_total",
		"Relay sources handed to installers in the installer's own rack.",
		func() float64 {
			if c.relays == nil {
				return 0
			}
			return float64(c.relays.sameRack.Load())
		})
	r.CounterFunc("rocks_dist_relay_cross_rack_total",
		"Relay sources handed out across rack boundaries (no same-rack peer).",
		func() float64 {
			if c.relays == nil {
				return 0
			}
			return float64(c.relays.crossRack.Load())
		})

	// Lifecycle bus health.
	c.events.RegisterMetrics(r)

	// Report coalescer (the /v1/dbstats "reports" block).
	r.CounterFunc("rocks_reports_writes_total",
		"Report regenerations actually performed.",
		func() float64 { return float64(c.ReportStats().Writes) })
	r.CounterFunc("rocks_reports_skips_total",
		"WriteReports calls coalesced away (another write already pending).",
		func() float64 { return float64(c.ReportStats().Skips) })
	r.CounterFunc("rocks_reports_scheduled_total",
		"WriteReports calls that scheduled a deferred regeneration.",
		func() float64 { return float64(c.ReportStats().Scheduled) })

	// Installer outcomes, aggregated across every node's installs.
	c.installStats.RegisterMetrics(r)

	// Supervisor remediation (the /v1/supervisor figures).
	r.CounterFunc("rocks_supervisor_power_cycles_total",
		"Hard power cycles the supervisor commanded.",
		func() float64 { return float64(c.supStats.powerCycles.Load()) })
	r.CounterFunc("rocks_supervisor_power_cycle_failures_total",
		"Cycle commands the PDU refused or botched.",
		func() float64 { return float64(c.supStats.powerCycleFails.Load()) })
	r.CounterFunc("rocks_supervisor_quarantines_total",
		"Nodes pulled from service after exhausting their retry budget.",
		func() float64 { return float64(c.supStats.quarantines.Load()) })
	r.CounterFunc("rocks_supervisor_unquarantines_total",
		"Repaired nodes returned to service.",
		func() float64 { return float64(c.supStats.unquarantines.Load()) })
	r.CounterFunc("rocks_supervisor_recoveries_total",
		"Failing nodes that reached Up and had their budget refunded.",
		func() float64 { return float64(c.supStats.recoveries.Load()) })
	r.GaugeFunc("rocks_supervisor_running",
		"1 while a remediation supervisor is attached.",
		func() float64 {
			if c.Supervisor() != nil {
				return 1
			}
			return 0
		})

	// Node population.
	r.GaugeFunc("rocks_nodes",
		"Nodes the cluster tracks, including the frontend.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.nodes))
		})
	r.GaugeFunc("rocks_nodes_quarantined",
		"Hosts currently quarantined.",
		func() float64 { return float64(len(c.Quarantined())) })
	r.GaugeVecFunc("rocks_nodes_state",
		"Nodes per lifecycle state.", []string{"state"},
		func() []metrics.Sample {
			counts := make(map[node.State]int)
			c.mu.Lock()
			for _, n := range c.nodes {
				counts[n.State()]++
			}
			c.mu.Unlock()
			out := make([]metrics.Sample, 0, len(counts))
			for state, n := range counts {
				out = append(out, metrics.Sample{Labels: []string{string(state)}, Value: float64(n)})
			}
			return out
		})

	// Startup recovery (what Open found; zero for fresh/in-memory lives).
	r.GaugeFunc("rocks_db_recovery_records_replayed",
		"Log records applied during this life's startup recovery.",
		func() float64 {
			if c.recovery == nil {
				return 0
			}
			return float64(c.recovery.Replayed)
		})
	r.GaugeFunc("rocks_db_recovery_replay_errors",
		"Replayed records that failed during this life's startup recovery.",
		func() float64 {
			if c.recovery == nil {
				return 0
			}
			return float64(c.recovery.ReplayErrors)
		})

	// Kickstart CGI latency — the frontend-side cost a §6.1 reinstall
	// storm concentrates. Default buckets; the storm benchmark asserts on
	// the _count series.
	c.cgiSeconds = r.Histogram("rocks_kickstart_cgi_seconds",
		"Wall-clock seconds spent serving one kickstart.cgi request.", nil)

	// Federation: the management hierarchy's own health. Families exist
	// (reading zero) on standalone frontends, like the relay block above.
	r.GaugeFunc("rocks_federation_children",
		"Child frontends currently registered with this parent.",
		func() float64 { return float64(len(c.fed.childSnapshot())) })
	r.GaugeVecFunc("rocks_federation_child_up",
		"1 while the labeled child shard answered its last fan-out.", []string{"shard"},
		func() []metrics.Sample {
			children := c.fed.childSnapshot()
			out := make([]metrics.Sample, 0, len(children))
			for _, ch := range children {
				up := 1.0
				ch.mu.Lock()
				if ch.dark {
					up = 0
				}
				name := ch.shard.Name
				ch.mu.Unlock()
				out = append(out, metrics.Sample{Labels: []string{name}, Value: up})
			}
			return out
		})
	r.CounterFunc("rocks_federation_registrations_total",
		"Child registration calls accepted, including re-registrations.",
		func() float64 { return float64(c.fed.registrations.Load()) })
	r.CounterFunc("rocks_federation_events_received_total",
		"Lifecycle events ingested from child forwarders.",
		func() float64 { return float64(c.fed.received.Load()) })
	r.CounterFunc("rocks_federation_events_forwarded_total",
		"Lifecycle events this child streamed to its parent.",
		func() float64 {
			fw := c.fed.getForwarder()
			if fw == nil {
				return 0
			}
			n, _, _ := fw.Stats()
			return float64(n)
		})
	r.CounterFunc("rocks_federation_forward_errors_total",
		"Upstream event batches that failed to post.",
		func() float64 {
			fw := c.fed.getForwarder()
			if fw == nil {
				return 0
			}
			_, errs, _ := fw.Stats()
			return float64(errs)
		})
	r.CounterFunc("rocks_federation_fanout_errors_total",
		"Child fetches that failed during merged queries and scrapes.",
		func() float64 { return float64(c.fed.fanoutErrors.Load()) })
	r.CounterFunc("rocks_federation_merge_deduped_total",
		"Duplicate rows and events dropped by merged queries.",
		func() float64 { return float64(c.fed.deduped.Load()) })
	r.GaugeVecFunc("rocks_federation_child_last_scrape_seconds",
		"Seconds since the labeled child shard last answered a /metrics "+
			"scrape; its stale exposition is re-served while it is dark. "+
			"Example alert: rocks_federation_child_last_scrape_seconds > 120.",
		[]string{"shard"},
		func() []metrics.Sample {
			children := c.fed.childSnapshot()
			out := make([]metrics.Sample, 0, len(children))
			for _, ch := range children {
				ch.mu.Lock()
				at := ch.lastExpoAt
				name := ch.shard.Name
				ch.mu.Unlock()
				if at.IsZero() {
					continue // never scraped; nothing to age
				}
				out = append(out, metrics.Sample{Labels: []string{name}, Value: time.Since(at).Seconds()})
			}
			return out
		})

	// Facts-driven inventory loop: reports ingested (own nodes and
	// forwarded), drift events by divergent field, and reinstalls the
	// supervisor ordered to chase actionable drift. The drift family is
	// pre-seeded with every comparator field, so all series exist at zero
	// before any report lands.
	r.CounterFunc("rocks_facts_reports_total",
		"Facts reports ingested from first-boot agents and child forwarders.",
		func() float64 { return float64(c.factsReportCount()) })
	r.CounterVecFunc("rocks_facts_drift_total",
		"Drift events published, by divergent field.", []string{"field"},
		func() []metrics.Sample {
			counts := c.factsDriftCounts()
			out := make([]metrics.Sample, 0, len(driftFields))
			for _, f := range driftFields {
				out = append(out, metrics.Sample{Labels: []string{f}, Value: float64(counts[f])})
			}
			return out
		})
	r.CounterFunc("rocks_facts_reinstalls_total",
		"Reinstalls the supervisor ordered to remediate actionable drift.",
		func() float64 { return float64(c.supStats.driftReinstalls.Load()) })

	// Control plane: per-op traffic and the mutation audit log.
	c.apiReqs = r.CounterVec("rocks_api_requests_total",
		"Control-plane requests to /v1 by operation.", "op")
	r.CounterFunc("rocks_audit_entries_total",
		"Mutating control-plane calls recorded in the audit log.",
		func() float64 { seq, _, _ := c.audit.stats(); return float64(seq) })
	r.CounterFunc("rocks_audit_errors_total",
		"Audited calls that failed.",
		func() float64 { _, _, errs := c.audit.stats(); return float64(errs) })
	r.CounterFunc("rocks_audit_evictions_total",
		"Audit entries evicted from the bounded ring.",
		func() float64 { _, ev, _ := c.audit.stats(); return float64(ev) })
}

// Metrics exposes the cluster's registry (tests and embedders; HTTP
// clients scrape /metrics).
func (c *Cluster) Metrics() *metrics.Registry { return c.metricsReg }
